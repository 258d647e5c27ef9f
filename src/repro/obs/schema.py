"""Single source of truth for every versioned SplitSim document schema.

Each on-disk artifact the toolchain writes — ``run_report.json``,
``timeline.jsonl``, ``audit.jsonl``, Chrome traces, metric snapshots,
``control.json``, ``partition.json`` — carries a ``schema`` field that
consumers must check before trusting the rest of the document.  The
version constants used to live as literal ints scattered across their
writer modules (and re-hardcoded by readers and tests); they are defined
here once and re-exported from the writer modules for back compatibility.

Bump a constant when (and only when) a document's layout changes in a way
existing readers cannot ignore; append-only additions of nullable fields
bump ``RUN_REPORT_SCHEMA`` by convention (see the version history in
:mod:`repro.obs.telemetry`).

This module must stay import-free (stdlib included) so any layer — obs,
parallel, tools, tests — can depend on it without cycles.
"""

#: ``run_report.json`` (writer: :mod:`repro.obs.telemetry`).
#: v5 adds ``mode`` (in-process runs write one too); see the telemetry
#: docstring for the full version history.
RUN_REPORT_SCHEMA = 5

#: ``timeline.jsonl`` (writer: :mod:`repro.obs.timeline`).
TIMELINE_SCHEMA = 1

#: ``audit.jsonl`` digest ledger (writer: :mod:`repro.obs.audit`).
AUDIT_SCHEMA = 1

#: Chrome-trace ``otherData.schema`` (writer: :mod:`repro.obs.trace`).
TRACE_SCHEMA = 1

#: Metrics snapshot documents (writer: :mod:`repro.obs.metrics`).
METRICS_SCHEMA = 1

#: ``control.json`` + control-plane replies (writer: :mod:`repro.obs.live`).
CONTROL_SCHEMA = 1

#: ``partition.json`` advisor plans (writer: :mod:`repro.parallel.advisor`).
PARTITION_SCHEMA = 1

#: Every document kind in one mapping (schema tests iterate this).
ALL_SCHEMAS = {
    "run_report": RUN_REPORT_SCHEMA,
    "timeline": TIMELINE_SCHEMA,
    "audit": AUDIT_SCHEMA,
    "trace": TRACE_SCHEMA,
    "metrics": METRICS_SCHEMA,
    "control": CONTROL_SCHEMA,
    "partition": PARTITION_SCHEMA,
}
