"""The run directory: where a run's artifacts live and how to find them.

A run directory (``splitsim-run --out DIR``, ``Experiment.run(...,
rundir=DIR)``, ``run_mp(..., rundir=DIR)``) holds, for either runtime::

    run_report.json     the versioned run report
    stats.json          the flat metrics snapshot
    trace.json          the trace recorder's Chrome trace
    timeline.jsonl      the epoch-resolved metrics timeline
    audit.jsonl         the per-epoch digest ledger

with one file per recorder the run declared; later tools add
``wtpg.dot`` (``splitsim-inspect profile --dot``) and ``partition.json``
(``splitsim-inspect recommend``), and a live multiprocess run's control
plane its ``control.json`` and the partial traces under ``traces/``.

This module is the only place that knows those names: :func:`write_run`
writes a finished run, the ``load_*`` functions read one.
``run_report.json`` names the artifacts its run wrote, relative to
itself, so :func:`locate` follows that reference first (run dirs that
kept the merged trace at ``traces/trace.json`` still load) and falls back
to the artifact's name; a plain file path passes through unchanged.
Every ``load_*`` failure is one :class:`RunDirError` whose message is the
hint ``splitsim-inspect`` prints.
"""

from __future__ import annotations

import json
import os
from typing import (TYPE_CHECKING, Any, Callable, Iterable, List, Optional,
                    Sequence)

if TYPE_CHECKING:  # pragma: no cover - the readers load with their loader
    from .audit import AuditLedger
    from .timeline import Timeline

REPORT_FILE = "run_report.json"
STATS_FILE = "stats.json"
TRACE_FILE = "trace.json"
TIMELINE_FILE = "timeline.jsonl"
AUDIT_FILE = "audit.jsonl"
WTPG_FILE = "wtpg.dot"
PARTITION_FILE = "partition.json"
TRACES_DIR = "traces"
PARTIAL_TRACE_FILE = "trace.partial.json"

#: recorder name -> the one file its artifact is saved as (a recorder
#: not named here, like ``work``, writes none)
ARTIFACTS = {"trace": TRACE_FILE, "timeline": TIMELINE_FILE,
             "audit": AUDIT_FILE}


class RunDirError(Exception):
    """A run's artifact is missing or unreadable; the message is the hint."""


def run_dir(path: str) -> str:
    """The run directory an artifact path belongs to (itself for a dir)."""
    return path if os.path.isdir(path) else os.path.dirname(path) or "."


def locate(path: str, artifact: str) -> str:
    """The file holding ``artifact`` (``"trace"``, ``"timeline"`` or
    ``"audit"``) of the run at ``path``.

    A file passes through.  In a directory: the run report's reference if
    that file exists, else the artifact's own name (which may not exist).
    """
    if not os.path.isdir(path):
        return path
    try:
        ref = load_report(path).get(artifact)
    except RunDirError:
        ref = None
    if isinstance(ref, str) and os.path.isfile(os.path.join(path, ref)):
        return os.path.join(path, ref)
    return os.path.join(path, ARTIFACTS[artifact])


def partial_trace(path: str, comp: Optional[str] = None) -> str:
    """Where a live multiprocess run's control plane dumps its trace so
    far: one child's flushed ring, or (``comp=None``) the merged one."""
    name = PARTIAL_TRACE_FILE if comp is None else \
        f"{comp}.trace.partial.jsonl"
    return os.path.join(path, TRACES_DIR, name)


def write_run(path: str, recorders: Iterable, report: dict,
              metrics: dict) -> None:
    """Write a finished run into the run directory ``path``: each
    recorder's artifact under its one name (referenced from the report),
    the flat ``metrics`` as ``stats.json``, and ``report`` (see
    :func:`~repro.obs.telemetry.build_run_report`)."""
    from .metrics import snapshot
    from .telemetry import write_run_report
    os.makedirs(path, exist_ok=True)
    for recorder in recorders:
        name = ARTIFACTS.get(recorder.name)
        if name is not None:
            recorder.save(os.path.join(path, name))
            report[recorder.name] = name
    with open(os.path.join(path, STATS_FILE), "w") as fh:
        json.dump(snapshot(metrics), fh, indent=2, default=str)
    write_run_report(os.path.join(path, REPORT_FILE), report)


def partition_path(path: str) -> str:
    """Where ``recommend`` writes ``partition.json``: next to the timeline."""
    return os.path.join(os.path.dirname(locate(path, "timeline")) or ".",
                        PARTITION_FILE)


def load_report(path: str) -> dict:
    """The run report of the run at ``path`` (or the report file itself)."""
    found = os.path.join(path, REPORT_FILE) if os.path.isdir(path) else path
    try:
        with open(found) as fh:
            report = json.load(fh)
        if not isinstance(report, dict):
            raise ValueError("not a JSON object")
    except (OSError, ValueError) as exc:
        raise RunDirError(f"error reading {found}: {exc}") from None
    return report


def load_trace(path: str) -> dict:
    """The validated Chrome-trace document of a trace file or run dir."""
    from . import trace
    found = locate(path, "trace")
    if os.path.isdir(path) and not os.path.isfile(found):
        if os.path.isfile(os.path.join(path, REPORT_FILE)):
            raise RunDirError(
                f"error: {path} has {REPORT_FILE} but no {TRACE_FILE} — "
                "rerun with tracing on (splitsim-run --trace, or "
                "Instantiation(trace=True)) to collect one")
        raise RunDirError(
            f"error: {path} is a directory without {TRACE_FILE} or "
            f"{REPORT_FILE} — pass a Chrome-trace JSON file or a SplitSim "
            "run directory")
    if not os.path.exists(found):
        raise RunDirError(f"error: {path} does not exist (expected a "
                          "Chrome-trace JSON file or a run directory)")
    try:
        doc = trace.load_trace(found)
    except (OSError, ValueError) as exc:
        raise RunDirError(f"error reading {found}: {exc}") from None
    if not doc.get("traceEvents"):
        raise RunDirError(f"error: {found} contains no trace events (empty "
                          "or truncated capture)")
    problems = trace.validate_chrome_doc(doc)
    if problems:
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        raise RunDirError(f"error: {found} is not a valid trace: "
                          f"{problems[0]}{more}")
    return doc


def _load_jsonl(path: str, artifact: str, read: Callable[[str], Any],
                recorder: str):
    found = locate(path, artifact)
    try:
        return read(found)
    except OSError as exc:
        if os.path.isdir(path):
            raise RunDirError(
                f"error: {path} has no {os.path.basename(found)} — rerun "
                f"with {recorder} on (splitsim-run --{artifact} or "
                f"Instantiation({artifact}=True))") from None
        raise RunDirError(f"error reading {found}: {exc}") from None
    except ValueError as exc:
        raise RunDirError(f"error: {exc}") from None


def load_timeline(path: str) -> "Timeline":
    """The epoch timeline of a ``timeline.jsonl`` file or run dir."""
    from .timeline import load_timeline as read
    return _load_jsonl(path, "timeline", read,
                       "the timeline")


def load_audit(path: str) -> "AuditLedger":
    """The audit ledger of an ``audit.jsonl`` file or run dir."""
    from .audit import load_audit as read
    return _load_jsonl(path, "audit", read, "auditing")


def load_all(load: Callable[[str], Any], paths: Sequence[str]) -> List[Any]:
    """``load`` over every path; one error carrying every failure's hint."""
    loaded, hints = [], []
    for path in paths:
        try:
            loaded.append(load(path))
        except RunDirError as exc:
            hints.append(str(exc))
    if hints:
        raise RunDirError("\n".join(hints))
    return loaded
