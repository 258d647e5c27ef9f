"""Unified observability layer: tracing, metrics, and run telemetry.

This package is the substrate the ROADMAP's performance/robustness work
measures against.  Its modules:

* :mod:`repro.obs.trace` — the structured tracing core: a bounded
  flight-recorder :class:`Tracer` with span/instant/counter records and
  Chrome-trace/Perfetto + JSONL export.  Compiled out to a ``None``-check
  when disabled.
* :mod:`repro.obs.metrics` — the one walk over the simulator's
  scattered counters (:func:`~repro.obs.metrics.component_counters`), the
  flat ``subsystem.component.metric`` snapshot built from it (the
  ``stats.json`` of a run directory, an mp child's live ``metrics``
  reply), and
  the :class:`~repro.obs.metrics.Histogram` of ``splitsim-inspect``.
* :mod:`repro.obs.install` — attaches a tracer to the instrumentation
  points threaded through kernel, channels, netsim, parallel, and
  orchestration.
* :mod:`repro.obs.telemetry` — live multiprocess heartbeats, the
  parent's one :class:`~repro.obs.telemetry.RunWatch` over them (latest
  beat, finished children, stalled/stale/backpressured health) that the
  status line, the control plane and the run report read, and the
  versioned ``run_report.json``.
* :mod:`repro.obs.live` — the live inspection & control plane: a unix
  socket endpoint on the parent (discoverable via ``control.json``),
  per-child command mailboxes polled at sync-round boundaries, and the
  :class:`ControlClient` behind ``splitsim-inspect attach``.
* :mod:`repro.obs.flows` — end-to-end causal flow tracing: per-message
  provenance (flow/hop ids carried in the wire header) and per-hop latency
  records.  The post-processor that reconstructs flow trees, latency
  attribution and the critical-path bottleneck is
  :mod:`repro.obs.inspect.flows`.
* :mod:`repro.obs.recorder` — the recorder seam: the probe / collector /
  observer contracts through which every recorder plugs into fast,
  strict and multiprocess runs, and the shared columnar-JSONL document
  reader/writer.
* :mod:`repro.obs.timeline` — the epoch-resolved metrics timeline:
  per-sync-epoch compute/wait/comm cycles, per-edge message and sync
  counts, and a fixed selection of the network counters of the metrics
  walk, recorded at round boundaries
  (in-process strict) or piggybacked on heartbeats (multiprocess) into a
  columnar ``timeline.jsonl``.  Input to the partition advisor
  (:mod:`repro.parallel.advisor`).
* :mod:`repro.obs.audit` — the divergence auditor: a streaming ledger of
  per-component, per-epoch timeline subdigests (fixed simulated-time
  windows, chained digests, columnar ``audit.jsonl``) whose root is the
  repo's one determinism digest (the determinism guard pins it to its
  golden fold), plus the cross-run diff behind ``splitsim-inspect diff``.
* :mod:`repro.obs.schema` — the single source of every versioned document
  schema constant (``run_report.json``, ``timeline.jsonl``,
  ``audit.jsonl``, traces, metric snapshots, control, partition).
* :mod:`repro.obs.names` — the single source of metric-name literals
  shared by emitters, collectors, and the inspect CLI.
* :mod:`repro.obs.rundir` — the run directory: the one module that knows
  the layout (``run_report.json``, ``stats.json``, ``trace.json``,
  ``timeline.jsonl``, ``audit.jsonl``, ``traces/``, ``partition.json``),
  writes a finished run of either runtime into it, follows the run
  report's references, and raises one error type whose message is the
  CLI hint.
* :mod:`repro.obs.inspect` — the ``splitsim-inspect`` CLI, the one
  run-analysis tool: one view per subcommand (trace summary, ``profile``,
  flows, timeline + recommend, diff, attach), each reading through the
  loader.

The package itself imports none of them: import a name from the module
that defines it.  A simulation loads :mod:`~repro.obs.flows` (the
flow-recorder slot its hot paths read) and nothing else from here.
Every other module loads when a recorder is observed or a tool runs:
:mod:`~repro.obs.recorder` (the collector contract, with the
:mod:`~repro.obs.telemetry` heartbeat and :mod:`~repro.obs.schema` it
builds on) with the first collector, so a simulation without one never
loads it, the tracer, the metrics walk, the control plane, the
timeline, the auditor, the run-directory loader or the CLI.
"""
