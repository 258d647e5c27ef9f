"""The run directory: where a run's artifacts live and how to find them.

A run directory (``splitsim-run --control DIR``, ``--profile-out DIR``,
or any directory a run saved its artifacts into) holds some of::

    run_report.json     the versioned run report (multiprocess runs)
    traces/             per-child traces; trace.json is the merged one
    trace.json          an in-process run's Chrome trace
    timeline.jsonl      the epoch-resolved metrics timeline
    audit.jsonl         the per-epoch digest ledger
    partition.json      the partition advisor's recommendation

This module is the only place that knows those names.  ``run_report.json``
names the artifacts its run wrote, relative to itself, so :func:`locate`
follows that reference first and falls back to the conventional names; a
plain file path passes through unchanged.  Every ``load_*`` failure is one
:class:`RunDirError` whose message is the hint ``splitsim-inspect`` prints.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Sequence

from . import audit, timeline, trace

REPORT_FILE = "run_report.json"
TRACES_DIR = "traces"
TRACE_FILE = "trace.json"
PARTIAL_TRACE_FILE = "trace.partial.json"
TIMELINE_FILE = "timeline.jsonl"
AUDIT_FILE = "audit.jsonl"
PARTITION_FILE = "partition.json"

#: artifact -> conventional names inside a run directory, in lookup order
_CONVENTIONAL = {
    "trace": (TRACE_FILE, os.path.join(TRACES_DIR, TRACE_FILE)),
    "timeline": (TIMELINE_FILE,),
    "audit": (AUDIT_FILE,),
}


class RunDirError(Exception):
    """A run's artifact is missing or unreadable; the message is the hint."""


def control_layout(rundir: str) -> Dict[str, str]:
    """Where a ``splitsim-run --control DIR`` run writes its artifacts
    (``rundir=""``: where an in-process ``splitsim-run`` writes them)."""
    return {"report": os.path.join(rundir, REPORT_FILE),
            "trace_dir": os.path.join(rundir, TRACES_DIR),
            "timeline": os.path.join(rundir, TIMELINE_FILE),
            "audit": os.path.join(rundir, AUDIT_FILE)}


def run_dir(path: str) -> str:
    """The run directory an artifact path belongs to (itself for a dir)."""
    return path if os.path.isdir(path) else os.path.dirname(path) or "."


def locate(path: str, artifact: str) -> str:
    """The file holding ``artifact`` (``"trace"``, ``"timeline"`` or
    ``"audit"``) of the run at ``path``.

    A file passes through.  In a directory: the run report's reference if
    that file exists, else the first conventional name that exists, else
    the first conventional name (which does not exist).
    """
    if not os.path.isdir(path):
        return path
    try:
        ref = load_report(path).get(artifact)
    except RunDirError:
        ref = None
    names = ((ref,) if isinstance(ref, str) else ()) + _CONVENTIONAL[artifact]
    candidates = [os.path.join(path, name) for name in names]
    return next((c for c in candidates if os.path.isfile(c)),
                os.path.join(path, _CONVENTIONAL[artifact][0]))


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
    found = locate(path, "trace")
    if os.path.isdir(path) and not os.path.isfile(found):
        if os.path.isfile(os.path.join(path, REPORT_FILE)):
            raise RunDirError(
                f"error: {path} has {REPORT_FILE} but no {TRACE_FILE} — "
                "rerun with tracing on (splitsim-run --trace, or "
                "run_mp(trace_dir=...)) to collect one")
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


def load_timeline(path: str) -> timeline.Timeline:
    """The epoch timeline of a ``timeline.jsonl`` file or run dir."""
    return _load_jsonl(path, "timeline", timeline.load_timeline,
                       "the timeline")


def load_audit(path: str) -> audit.AuditLedger:
    """The audit ledger of an ``audit.jsonl`` file or run dir."""
    return _load_jsonl(path, "audit", audit.load_audit, "auditing")


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
