"""Unified observability layer: tracing, metrics, and run telemetry.

This package is the substrate the ROADMAP's performance/robustness work
measures against.  It has four pieces:

* :mod:`repro.obs.trace` — the structured tracing core: a bounded
  flight-recorder :class:`Tracer` with span/instant/counter records and
  Chrome-trace/Perfetto + JSONL export.  Compiled out to a ``None``-check
  when disabled.
* :mod:`repro.obs.metrics` — :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` and the :class:`MetricsRegistry` that unifies the
  simulator's scattered counters behind one snapshot API
  (``subsystem.component.metric`` naming).
* :mod:`repro.obs.install` — attaches a tracer to the instrumentation
  points threaded through kernel, channels, netsim, parallel, and
  orchestration.
* :mod:`repro.obs.telemetry` — live multiprocess heartbeats, the
  :class:`HealthMonitor` watchdog (stalled/stale/backpressured children),
  and the versioned ``run_report.json``.
* :mod:`repro.obs.live` — the live inspection & control plane: a unix
  socket endpoint on the parent (discoverable via ``control.json``),
  per-child command mailboxes polled at sync-round boundaries, and the
  :class:`ControlClient` behind ``splitsim-inspect attach``.
* :mod:`repro.obs.flows` — end-to-end causal flow tracing: per-message
  provenance (flow/hop ids carried in the wire header), per-hop latency
  records, and the post-processor that reconstructs flow trees, latency
  attribution, and the critical-path bottleneck.
* :mod:`repro.obs.recorder` — the recorder seam: the probe / collector /
  observer contracts through which every recorder plugs into fast,
  strict and multiprocess runs, and the shared columnar-JSONL document
  reader/writer.
* :mod:`repro.obs.timeline` — the epoch-resolved metrics timeline:
  per-sync-epoch compute/wait/comm cycles, per-edge message and sync
  counts, and selected registry counters, recorded at round boundaries
  (in-process strict) or piggybacked on heartbeats (multiprocess) into a
  columnar ``timeline.jsonl``.  Input to the partition advisor
  (:mod:`repro.parallel.advisor`).
* :mod:`repro.obs.audit` — the divergence auditor: a streaming ledger of
  per-component, per-epoch timeline subdigests (fixed simulated-time
  windows, chained digests, columnar ``audit.jsonl``) whose root is
  bit-identical to the determinism guard's golden fold, plus the
  cross-run diff behind ``splitsim-inspect diff``.
* :mod:`repro.obs.schema` — the single source of every versioned document
  schema constant (``run_report.json``, ``timeline.jsonl``,
  ``audit.jsonl``, traces, metric snapshots, control, partition).
* :mod:`repro.obs.names` — the single source of metric-name literals
  shared by emitters, collectors, and the inspect CLI.

The ``splitsim-inspect`` CLI (:mod:`repro.obs.inspect_cli`) consumes the
exported traces: top spans, stall timeline, per-edge wait histograms, and a
WTPG reconstructed from trace data.
"""

from .metrics import (Counter, Gauge, Histogram, METRICS_SCHEMA,
                      MetricsRegistry, collect_experiment,
                      collect_live_children, collect_simulation)
from .telemetry import (HEALTH_DONE, HEALTH_FAILED, HEALTH_OK, HEALTH_STALE,
                        HEALTH_STALLED, HEALTH_STARTING, Heartbeat,
                        HealthMonitor, MAX_ALERTS, MAX_HEARTBEATS,
                        RUN_REPORT_SCHEMA, TelemetryAggregator,
                        build_run_report, write_run_report)
from .trace import (ORCH_PID, TRACE_SCHEMA, Tracer, chrome_doc,
                    load_trace, merge_trace_jsonl, us_from_ps,
                    validate_chrome_doc)
from .flows import (Flow, FlowHop, FlowRecorder, FlowReport,
                    analyze_doc, extract_flows, flow_origin, flow_serial,
                    install_flow_recorder, retune_sample,
                    uninstall_flow_recorder)
from .live import (CONTROL_FILE, CONTROL_SCHEMA, ChildMailbox, ControlClient,
                   ControlError, ControlPlane, read_control_file,
                   wait_for_control)
from .install import (TraceRecorder, TracerSampler, install_network_tracer,
                      install_tracer)
from .recorder import ProbeDriver
from .timeline import (EpochRow, EpochTracker, TIMELINE_FILE,
                       TIMELINE_SCHEMA, Timeline, TimelineCollector,
                       detect_phases, load_timeline, resolve_timeline_path,
                       save_timeline)
from .audit import (AUDIT_FILE, AUDIT_SCHEMA, AuditCollector, AuditDiff,
                    AuditDivergence, AuditLedger, AuditRow, ComponentAuditor,
                    DEFAULT_WINDOW_PS, diff_ledgers, fold_root, load_audit,
                    resolve_audit_path)
from .schema import ALL_SCHEMAS
from . import names

__all__ = [
    "Tracer", "chrome_doc", "load_trace", "merge_trace_jsonl",
    "us_from_ps", "validate_chrome_doc", "TRACE_SCHEMA", "ORCH_PID",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "METRICS_SCHEMA",
    "collect_simulation", "collect_experiment", "collect_live_children",
    "install_tracer", "install_network_tracer",
    "TracerSampler", "TraceRecorder",
    "ProbeDriver",
    "Heartbeat", "TelemetryAggregator", "HealthMonitor", "build_run_report",
    "write_run_report", "RUN_REPORT_SCHEMA", "MAX_HEARTBEATS", "MAX_ALERTS",
    "HEALTH_STARTING", "HEALTH_OK", "HEALTH_STALLED", "HEALTH_STALE",
    "HEALTH_DONE", "HEALTH_FAILED",
    "FlowRecorder", "FlowReport", "Flow", "FlowHop",
    "install_flow_recorder", "uninstall_flow_recorder", "analyze_doc",
    "extract_flows", "flow_origin", "flow_serial", "retune_sample",
    "ControlPlane", "ControlClient", "ChildMailbox", "ControlError",
    "CONTROL_SCHEMA", "CONTROL_FILE", "read_control_file",
    "wait_for_control",
    "Timeline", "TimelineCollector", "EpochRow", "EpochTracker",
    "TIMELINE_SCHEMA", "TIMELINE_FILE",
    "save_timeline", "load_timeline", "resolve_timeline_path",
    "detect_phases",
    "AuditCollector", "AuditLedger", "AuditRow", "AuditDiff",
    "AuditDivergence", "ComponentAuditor",
    "diff_ledgers", "fold_root", "load_audit", "resolve_audit_path",
    "AUDIT_SCHEMA", "AUDIT_FILE", "DEFAULT_WINDOW_PS", "ALL_SCHEMAS",
    "names",
]
