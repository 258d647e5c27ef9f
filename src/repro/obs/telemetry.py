"""Live telemetry for multiprocess runs: heartbeats, health, run report.

While a :class:`~repro.parallel.procrunner.ProcessRunner` simulation is
alive, each child process periodically publishes a :class:`Heartbeat` —
simulated time reached, events executed, instantaneous events/sec, and
shared-memory ring occupancy — up its pipe to the parent.  The parent
keeps one :class:`RunWatch` over them: the latest beat per child, which
children finished and how, and each one's health (stalled / stale /
backpressured).  The one-line status (``progress=True``), the control
plane's ``status`` reply and, after the run, the heartbeat history and
``health`` of the versioned machine-readable ``run_report.json``
(:func:`build_run_report`, written by every run given a run directory, in
process too) all read it.

The report schema is versioned by :data:`RUN_REPORT_SCHEMA`; consumers must
check it.  Version history:

* ``1`` — initial: ``schema``, ``until_ps``, ``wall_seconds``,
  ``components`` (per-child events/wall/wait/work/outputs), ``heartbeats``
  (bounded history), ``trace`` (relative path of the merged Chrome trace,
  or ``null``).
* ``2`` — adds ``health``: the watchdog's verdict (per-component terminal
  state, alert history, watchdog parameters), or ``null`` when the run
  collected no telemetry.  All v1 fields are unchanged.
* ``3`` — adds ``timeline``: the relative path of the epoch-resolved
  metrics timeline (``timeline.jsonl``, see :mod:`repro.obs.timeline`),
  or ``null`` when the run did not record one.  All v2 fields are
  unchanged.
* ``4`` — adds ``audit``: the relative path of the per-epoch digest
  ledger (``audit.jsonl``, see :mod:`repro.obs.audit`), or ``null`` when
  the run was not audited.  All v3 fields are unchanged.
* ``5`` — adds ``mode`` (``fast``, ``strict`` or ``mp``): in-process runs
  write a report too.  Their ``components`` carry ``events``,
  ``work_cycles`` and ``outputs`` only, their ``heartbeats`` are empty
  and their ``health`` is ``null``.  All v4 fields are unchanged.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..kernel.simtime import fmt_time
from .schema import RUN_REPORT_SCHEMA

__all__ = [
    "RUN_REPORT_SCHEMA", "MAX_HEARTBEATS", "MAX_ALERTS",
    "HEALTH_STARTING", "HEALTH_OK", "HEALTH_STALLED", "HEALTH_STALE",
    "HEALTH_DONE", "HEALTH_FAILED", "STALL_INTERVALS", "BACKPRESSURE_FILL",
    "Heartbeat", "RunWatch", "build_run_report", "write_run_report",
]

#: Parent-side cap on retained heartbeat history (oldest dropped first).
MAX_HEARTBEATS = 4096

#: Cap on the retained alert history (oldest dropped first).
MAX_ALERTS = 256

#: Beats without sim-time progress before a child counts as stalled.
STALL_INTERVALS = 4

#: Input-ring occupancy at or above which a child is backpressured: an
#: alert of :class:`RunWatch`, a marker of ``splitsim-inspect timeline``.
BACKPRESSURE_FILL = 0.9

#: Component health states reported by :class:`RunWatch`.
HEALTH_STARTING = "starting"   # no heartbeat received yet
HEALTH_OK = "ok"               # beating and making horizon progress
HEALTH_STALLED = "stalled"     # beating, but no sim-time progress
HEALTH_STALE = "stale"         # heartbeats stopped arriving
HEALTH_DONE = "done"           # result collected
HEALTH_FAILED = "failed"       # result collected, with an error


@dataclass
class Heartbeat:
    """One liveness sample from a child simulator process."""

    comp: str
    wall_s: float          # child wall-clock seconds since its run started
    sim_ps: int            # simulated time reached (last commit)
    events: int            # events executed so far
    events_per_sec: float  # instantaneous rate since the previous beat
    #: max input-ring occupancy across ends, 0..1 (``None`` in process:
    #: there are no rings)
    ring_fill: Optional[float]
    waiting: bool = False  # currently blocked on a channel
    #: piggybacked probe payloads, keyed by recorder name (see
    #: :mod:`repro.obs.recorder`)
    extras: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        # probe payloads live in their recorders' own artifacts, not in
        # the report's heartbeat history — history rows keep their v2 shape
        d = dict(vars(self))
        del d["extras"]
        return d


class RunWatch:
    """The parent's one view of a running multiprocess run.

    Per child: the latest :class:`Heartbeat` and when it arrived, whether
    it finished (``done``: its error, or ``None``), and its health state:

    * **stalled** — beats keep arriving but simulated time has not
      advanced across :data:`STALL_INTERVALS` consecutive beats (a child
      wedged on a peer that stopped synchronizing);
    * **stale** — no beat for ``stale_after_s`` = max(2 s, 8 heartbeat
      intervals), counted from launch for a child that never beat (a
      child stuck inside an event callback, or dead);
    * **ring backpressure** — input-ring occupancy at or above
      :data:`BACKPRESSURE_FILL` (an alert, not a state: the child is
      alive, its consumer is the problem).

    Beats drive :meth:`note`, the clock drives :meth:`tick`.  Alerts fire
    on the rising edge of each condition and re-arm on recovery, so a
    flapping child produces one alert per episode.  ``history`` is a
    bounded ring: past :data:`MAX_HEARTBEATS` beats each new one drops
    the *oldest*, so the report carries the most recent window of the
    run.  The live status line, the control plane's ``status`` reply and
    the ``heartbeats`` and ``health`` of ``run_report.json`` all read it.
    """

    def __init__(self, components: List[str], hb_interval_s: float = 0.25,
                 clock=time.monotonic) -> None:
        self.components = list(components)
        self.hb_interval_s = hb_interval_s
        self.stale_after_s = max(2.0, 8 * hb_interval_s)
        self._clock = clock
        self._t0 = clock()
        self.latest: Dict[str, Heartbeat] = {}
        #: receipt time (``clock``) of the latest beat per component
        self.last_seen: Dict[str, float] = {}
        self.history: Deque[dict] = deque(maxlen=MAX_HEARTBEATS)
        self.alerts: Deque[dict] = deque(maxlen=MAX_ALERTS)
        #: finished children and their errors (``None``: a clean result)
        self.done: Dict[str, Optional[str]] = {}
        self.states: Dict[str, str] = dict.fromkeys(self.components,
                                                    HEALTH_STARTING)
        self._no_progress = dict.fromkeys(self.components, 0)
        self._backpressured = set()

    def _alert(self, comp: str, kind: str, detail: str) -> None:
        self.alerts.append({"t_s": round(self._clock() - self._t0, 3),
                            "comp": comp, "kind": kind, "detail": detail})

    def note(self, hb: Heartbeat) -> None:
        """One heartbeat: record it, count its progress, check its ring."""
        comp = hb.comp
        prev = self.latest.get(comp)
        self.latest[comp] = hb
        self.last_seen[comp] = self._clock()
        self.history.append(hb.to_dict())
        if comp in self.done:
            return
        state = self.states[comp]
        if prev is not None and hb.sim_ps <= prev.sim_ps:
            self._no_progress[comp] += 1
        else:
            self._no_progress[comp] = 0
        if hb.ring_fill < BACKPRESSURE_FILL:
            self._backpressured.discard(comp)
        elif comp not in self._backpressured:
            self._backpressured.add(comp)
            self._alert(comp, "backpressure",
                        f"input ring {hb.ring_fill:.0%} full")
        if self._no_progress[comp] >= STALL_INTERVALS:
            if state != HEALTH_STALLED:
                self.states[comp] = HEALTH_STALLED
                self._alert(comp, "stalled",
                            f"no horizon progress for "
                            f"{self._no_progress[comp]} beats "
                            f"at {fmt_time(hb.sim_ps)}")
        elif state != HEALTH_OK:
            if state in (HEALTH_STALLED, HEALTH_STALE):
                self._alert(comp, "recovered",
                            f"progressing again at {fmt_time(hb.sim_ps)}")
            self.states[comp] = HEALTH_OK

    def note_done(self, comp: str, error: Optional[str] = None) -> None:
        """A child's result arrived (or never will); it is no longer
        watched."""
        self.done[comp] = error
        if error:
            self.states[comp] = HEALTH_FAILED
            self._alert(comp, "failed", error)
        else:
            self.states[comp] = HEALTH_DONE

    def tick(self) -> None:
        """The time-based pass: flag children silent past
        ``stale_after_s``."""
        now = self._clock()
        for comp, state in self.states.items():
            if comp in self.done or state == HEALTH_STALE:
                continue
            seen = self.last_seen.get(comp)
            if seen is None:
                if now - self._t0 > self.stale_after_s:
                    self.states[comp] = HEALTH_STALE
                    self._alert(comp, "stale",
                                f"no heartbeat {now - self._t0:.1f}s "
                                f"after launch")
            elif now - seen > self.stale_after_s:
                self.states[comp] = HEALTH_STALE
                self._alert(comp, "stale",
                            f"last heartbeat {now - seen:.1f}s ago at "
                            f"{fmt_time(self.latest[comp].sim_ps)}")

    def _unhealthy(self) -> List[str]:
        return sorted(c for c, s in self.states.items()
                      if s in (HEALTH_STALLED, HEALTH_STALE, HEALTH_FAILED))

    def status_line(self) -> str:
        """One-line live status across all components, unhealthy ones
        named at the end; a stale child renders as ``stale(<age>)``
        instead of a frozen, healthy-looking rate."""
        now = self._clock()
        parts = []
        for name in self.components:
            hb = self.latest.get(name)
            if hb is None:
                parts.append(f"{name}: starting")
            elif self.states[name] == HEALTH_STALE:
                age = now - self.last_seen[name]
                parts.append(f"{name}: stale({age:.1f}s)")
            else:
                flag = "~" if hb.waiting else ""
                parts.append(
                    f"{name}: {fmt_time(hb.sim_ps)} "
                    f"{hb.events_per_sec:,.0f}ev/s "
                    f"ring {hb.ring_fill:.0%}{flag}")
        bad = self._unhealthy()
        badge = "  [!] " + ", ".join(f"{c}:{self.states[c]}" for c in bad) \
            if bad else ""
        return " | ".join(parts) + badge

    def status(self, until_ps: int) -> Dict[str, dict]:
        """The per-component entries of the control plane's ``status``
        reply: state, error, the latest beat, progress and its age."""
        now = self._clock()
        entries: Dict[str, dict] = {}
        for name in self.components:
            entry: Dict[str, object] = {"state": self.states[name]}
            if self.done.get(name):
                entry["error"] = self.done[name]
            hb = self.latest.get(name)
            if hb is not None:
                entry.update(hb.to_dict())
                entry["progress"] = min(1.0, hb.sim_ps / until_ps) \
                    if until_ps else 1.0
                entry["age_s"] = round(max(0.0, now - self.last_seen[name]),
                                       3)
            entries[name] = entry
        return entries

    def report(self) -> dict:
        """The ``health`` section of ``run_report.json`` (schema v2)."""
        return {
            "watchdog": {
                "hb_interval_s": self.hb_interval_s,
                "stall_intervals": STALL_INTERVALS,
                "stale_after_s": self.stale_after_s,
                "ring_alert_fill": BACKPRESSURE_FILL,
            },
            "components": dict(self.states),
            "degraded": bool(self._unhealthy()),
            "alerts": list(self.alerts),
        }


def build_run_report(mode: str, until_ps: int, wall_seconds: float,
                     components: Dict[str, dict],
                     watch: Optional[RunWatch] = None) -> dict:
    """Assemble the versioned ``run_report.json`` document.

    ``components`` maps each component to its entry (see the schema
    history); ``watch`` (an mp run's) gives the heartbeat history and the
    ``health`` section; the artifact references (``trace``, ``timeline``,
    ``audit``) stay ``null`` until :func:`~repro.obs.rundir.write_run`
    saves them.
    """
    return {
        "schema": RUN_REPORT_SCHEMA,
        "mode": mode,
        "until_ps": until_ps,
        "wall_seconds": wall_seconds,
        "components": dict(sorted(components.items())),
        "heartbeats": [] if watch is None else list(watch.history),
        "trace": None,
        "health": None if watch is None else watch.report(),
        "timeline": None,
        "audit": None,
    }


def write_run_report(path: str, report: dict) -> None:
    """Write the report (pretty-printed, trailing newline)."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")
