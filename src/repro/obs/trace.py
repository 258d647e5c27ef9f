"""Structured tracing core: a near-zero-overhead flight recorder.

A :class:`Tracer` collects **span** (``ph="X"``), **instant** (``ph="i"``)
and **counter** (``ph="C"``) records into a bounded ring buffer.  When the
ring fills, the oldest records are overwritten (and counted in
:attr:`Tracer.dropped`) — the tracer is a *flight recorder*: it never grows
without bound and never throws away the most recent history.

Design constraints (this is threaded through the PR-1 hot paths):

* **Disabled is free.**  Instrumentation sites hold a single attribute that
  is ``None`` when tracing is off; the only cost on the hot path is one
  pointer test (and in the kernel drain, one test per *drain*, not per
  event — see :meth:`repro.kernel.events.EventQueue.run_until`).
* **Emitting is cheap.**  A record is one tuple stored into a preallocated
  list slot; no dicts are built and no strings are formatted until export.
* **Export is Chrome-trace.**  :meth:`chrome_doc` renders the ring as a
  Chrome/Perfetto ``traceEvents`` document that loads directly in
  ``ui.perfetto.dev`` (one *pid* per simulator process, one *tid* per
  component/track, counter tracks for queues).

Clock domains
-------------
Trace timestamps are floating-point **microseconds** (the Chrome trace
unit).  Two domains exist and are recorded in the document metadata:

* ``clock="sim"`` — simulated time (``ts_us = sim_ps / 1e6``); used by
  in-process simulation traces.
* ``clock="wall"`` — real elapsed time since the tracer was created; used
  by the multiprocess runtime (children trace real waits and heartbeats).

A merged multiprocess trace keeps one pid per child process; the
orchestrator's phase spans live on the dedicated :data:`ORCH_PID` whose
clock is always wall time (documented in DESIGN.md §6).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

#: Schema version stamped into every exported trace document
#: (re-exported from the central registry in :mod:`repro.obs.schema`).
from .schema import TRACE_SCHEMA

#: Reserved pid for orchestration phase spans (wall-clock domain).
ORCH_PID = 1000

#: Picoseconds per trace microsecond.
_PS_PER_US = 1_000_000


def us_from_ps(ps: int) -> float:
    """Convert simulated picoseconds to trace microseconds."""
    return ps / _PS_PER_US


class Tracer:
    """Bounded flight recorder for span/instant/counter records.

    Parameters
    ----------
    capacity:
        Ring size in records; rounded up to a power of two.  Oldest records
        are overwritten once the ring is full.
    pid:
        Chrome-trace process id for every record emitted by this tracer.
    process_name:
        Human label for the pid (rendered by Perfetto).
    clock:
        ``"sim"`` or ``"wall"`` (metadata only; see module docstring).
    """

    __slots__ = ("pid", "process_name", "clock", "capacity", "_mask",
                 "_buf", "_idx", "_tids", "_t0", "meta")

    def __init__(self, capacity: int = 1 << 16, pid: int = 0,
                 process_name: str = "simulation", clock: str = "sim") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if clock not in ("sim", "wall"):
            raise ValueError(f"unknown clock domain {clock!r}")
        cap = 1
        while cap < capacity:
            cap <<= 1
        self.pid = pid
        self.process_name = process_name
        self.clock = clock
        self.capacity = cap
        self._mask = cap - 1
        self._buf: List[Optional[tuple]] = [None] * cap
        self._idx = 0
        self._tids: Dict[str, int] = {}
        self._t0 = time.perf_counter()
        #: free-form metadata merged into the exported document
        self.meta: Dict[str, Any] = {}

    # -- tracks ------------------------------------------------------------

    def tid(self, name: str) -> int:
        """Stable thread-track id for ``name`` (created on first use)."""
        tids = self._tids
        t = tids.get(name)
        if t is None:
            t = len(tids) + 1
            tids[name] = t
        return t

    def wall_us(self) -> float:
        """Elapsed wall microseconds since this tracer was created."""
        return (time.perf_counter() - self._t0) * 1e6

    # -- emission (hot-ish; one tuple store each) --------------------------

    def span(self, tid: int, cat: str, name: str, ts_us: float,
             dur_us: float, args: Optional[dict] = None) -> None:
        """Record a complete span (``ph="X"``)."""
        i = self._idx
        self._buf[i & self._mask] = ("X", tid, cat, name, ts_us, dur_us, args)
        self._idx = i + 1

    def instant(self, tid: int, cat: str, name: str, ts_us: float,
                args: Optional[dict] = None) -> None:
        """Record an instant event (``ph="i"``, thread scope)."""
        i = self._idx
        self._buf[i & self._mask] = ("i", tid, cat, name, ts_us, 0.0, args)
        self._idx = i + 1

    def counter(self, tid: int, cat: str, name: str, ts_us: float,
                values: Dict[str, float]) -> None:
        """Record one sample of a counter track (``ph="C"``).

        ``values`` maps series name to value; Perfetto stacks the series.
        """
        i = self._idx
        self._buf[i & self._mask] = ("C", tid, cat, name, ts_us, 0.0, values)
        self._idx = i + 1

    def flow_event(self, ph: str, tid: int, ts_us: float,
                   flow_id: int) -> None:
        """Record a Chrome flow event (``ph`` in ``s``/``t``/``f``).

        Flow events bind to the enclosing slice on the same pid/tid at
        ``ts_us`` and render as arrows between bound slices across tracks
        and pid lanes.  The flow id rides in the tuple's dur slot (exported
        as ``id``); start/step/finish events of one flow share name+cat+id,
        which is Perfetto's binding rule.
        """
        i = self._idx
        self._buf[i & self._mask] = (ph, tid, "flow", "flow", ts_us,
                                     flow_id, None)
        self._idx = i + 1

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return min(self._idx, self.capacity)

    @property
    def dropped(self) -> int:
        """Records overwritten because the ring was full."""
        return max(0, self._idx - self.capacity)

    def records(self) -> List[tuple]:
        """Raw records, oldest first."""
        idx, cap = self._idx, self.capacity
        if idx <= cap:
            return [r for r in self._buf[:idx]]
        start = idx & self._mask
        return self._buf[start:] + self._buf[:start]

    # -- export ------------------------------------------------------------

    def events(self) -> List[dict]:
        """Chrome ``traceEvents`` dicts for the buffered records."""
        pid = self.pid
        out: List[dict] = []
        for ph, tid, cat, name, ts, dur, args in self.records():
            ev: Dict[str, Any] = {"ph": ph, "pid": pid, "tid": tid,
                                  "cat": cat, "name": name, "ts": ts}
            if ph == "X":
                ev["dur"] = dur
            elif ph == "i":
                ev["s"] = "t"
            elif ph in ("s", "t", "f"):
                ev["id"] = int(dur)
                if ph == "f":
                    ev["bp"] = "e"  # bind finish to the enclosing slice
            if args is not None:
                ev["args"] = args
            out.append(ev)
        return out

    def metadata_events(self) -> List[dict]:
        """Process/thread name metadata records (``ph="M"``)."""
        pid = self.pid
        out = [{"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                "args": {"name": self.process_name}}]
        for name, tid in sorted(self._tids.items(), key=lambda kv: kv[1]):
            out.append({"ph": "M", "pid": pid, "tid": tid,
                        "name": "thread_name", "args": {"name": name}})
        return out

    def chrome_doc(self) -> dict:
        """Complete Chrome-trace JSON document for this tracer alone."""
        return chrome_doc([self])

    def save_json(self, path: str) -> None:
        """Write the Chrome-trace JSON document (loads in Perfetto)."""
        with open(path, "w") as fh:
            json.dump(self.chrome_doc(), fh, separators=(",", ":"))

    def save_jsonl(self, path: str) -> None:
        """Write raw events as JSON-lines (one event per line, mergeable)."""
        with open(path, "w") as fh:
            for ev in self.metadata_events() + self.events():
                fh.write(json.dumps(ev, separators=(",", ":")) + "\n")


def chrome_doc(tracers, extra_meta: Optional[dict] = None) -> dict:
    """Merge one or more tracers into a single Chrome-trace document.

    Each tracer keeps its own pid, so a multiprocess run renders as one
    process track per simulator process.
    """
    events: List[dict] = []
    clocks: Dict[str, str] = {}
    dropped = 0
    for tr in tracers:
        events.extend(tr.metadata_events())
        events.extend(tr.events())
        clocks[str(tr.pid)] = tr.clock
        dropped += tr.dropped
    meta: Dict[str, Any] = {"schema": TRACE_SCHEMA, "clock_domains": clocks,
                            "dropped_records": dropped}
    for tr in tracers:
        meta.update(tr.meta)
    if extra_meta:
        meta.update(extra_meta)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": meta}


def merge_trace_jsonl(trace_dir: str, names, suffix=".trace.jsonl",
                      parent_tracer: Optional[Tracer] = None,
                      out_name: str = "trace.json") -> str:
    """Merge per-process JSONL traces into one Chrome-trace document.

    Reads ``<name><suffix>`` for every name in ``names``; ``suffix`` may
    be a sequence tried in order (the control plane's partial dump
    prefers a child's ``.trace.partial.jsonl`` flush but falls back to
    the final ``.trace.jsonl`` of an already-finished child).  Missing
    files are skipped: a child may have died — or, for a live partial
    dump, not have flushed yet.  Prepends ``parent_tracer``'s phase
    spans and writes ``trace_dir/<out_name>``.  Used both for the final
    merged ``trace.json`` and for the control plane's on-demand
    ``trace.partial.json`` flush of a still-running simulation; the
    output is a complete, valid document either way.
    """
    suffixes = [suffix] if isinstance(suffix, str) else list(suffix)
    events: List[dict] = []
    clocks: Dict[str, str] = {}
    dropped = 0
    if parent_tracer is not None:
        events.extend(parent_tracer.metadata_events())
        events.extend(parent_tracer.events())
        clocks[str(parent_tracer.pid)] = parent_tracer.clock
        dropped += parent_tracer.dropped
    for index, name in enumerate(names):
        for suf in suffixes:
            child = os.path.join(trace_dir, f"{name}{suf}")
            if os.path.exists(child):
                break
        else:
            continue
        events.extend(load_trace(child)["traceEvents"])
        clocks[str(index + 1)] = "wall"
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA,
                      "clock_domains": clocks,
                      "dropped_records": dropped},
    }
    path = os.path.join(trace_dir, out_name)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    os.replace(tmp, path)  # readers never see a half-written document
    return path


def load_trace(path: str) -> dict:
    """Load a trace: Chrome JSON document or JSONL event stream.

    Returns a document-shaped dict (``{"traceEvents": [...], ...}``) either
    way, so consumers need not care which format was written.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        # multiple JSON values -> JSONL event stream
        events = [json.loads(line) for line in text.splitlines()
                  if line.strip()]
        return {"traceEvents": events, "otherData": {"schema": TRACE_SCHEMA}}
    if isinstance(doc, list):  # bare traceEvents array (Chrome accepts it)
        return {"traceEvents": doc, "otherData": {"schema": TRACE_SCHEMA}}
    if isinstance(doc, dict) and "traceEvents" not in doc:
        # a single-line JSONL file parses as one event dict
        return {"traceEvents": [doc], "otherData": {"schema": TRACE_SCHEMA}}
    return doc


def validate_chrome_doc(doc: dict) -> List[str]:
    """Validate the exported trace shape; returns a list of problems.

    Checks the keys the acceptance criteria (and Perfetto) rely on:
    ``traceEvents`` is a list, every event has ``ph``/``pid``/``ts`` (or is
    metadata), phases are within the emitted alphabet, and flow events
    (``ph`` in ``s``/``t``/``f``) carry an ``id`` and a ``cat``, use a
    consistent ``bind_id`` when present, and every step/finish id has a
    matching flow start.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    allowed = {"B", "E", "X", "i", "C", "M", "s", "t", "f"}
    flow_starts = set()
    flow_continuations: List[tuple] = []
    for n, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in allowed:
            problems.append(f"event {n}: bad ph {ph!r}")
            continue
        if "pid" not in ev:
            problems.append(f"event {n}: missing pid")
        if ph != "M" and "ts" not in ev:
            problems.append(f"event {n}: missing ts")
        if ph == "X" and "dur" not in ev:
            problems.append(f"event {n}: X span missing dur")
        if ph in ("s", "t", "f"):
            if "id" not in ev:
                problems.append(f"event {n}: flow event missing id")
                continue
            if not ev.get("cat"):
                problems.append(f"event {n}: flow event missing cat")
            if "bind_id" in ev and ev["bind_id"] != ev["id"]:
                problems.append(f"event {n}: bind_id {ev['bind_id']!r} "
                                f"does not match id {ev['id']!r}")
            if ph == "s":
                flow_starts.add(ev["id"])
            else:
                flow_continuations.append((n, ev["id"]))
    for n, fid in flow_continuations:
        if fid not in flow_starts:
            problems.append(f"event {n}: flow {fid!r} has no start (ph=s)")
    return problems
