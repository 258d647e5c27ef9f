"""Live telemetry for multiprocess runs: heartbeats, health, run report.

While a :class:`~repro.parallel.procrunner.ProcessRunner` simulation is
alive, each child process periodically publishes a :class:`Heartbeat` —
simulated time reached, events executed, instantaneous events/sec, and
shared-memory ring occupancy — up its pipe to the parent.  The parent
renders a one-line status (``progress=True``), feeds a
:class:`HealthMonitor` watchdog (stalled / stale / backpressured children),
and, after the run, reports both in the versioned machine-readable
``run_report.json`` (:func:`build_run_report`) that every run given a run
directory writes, in process too.

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
    "HEALTH_DONE", "HEALTH_FAILED",
    "Heartbeat", "TelemetryAggregator", "HealthMonitor",
    "build_run_report", "write_run_report",
]

#: Parent-side cap on retained heartbeat history (oldest dropped first).
MAX_HEARTBEATS = 4096

#: Cap on the watchdog's retained alert history (oldest dropped first).
MAX_ALERTS = 256

#: Component health states reported by :class:`HealthMonitor`.
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


class TelemetryAggregator:
    """Parent-side view over the heartbeat stream of all children.

    ``history`` is a true bounded ring: once ``max_history`` beats are
    retained, each new beat drops the *oldest* one, so the report always
    carries the most recent window of the run.
    """

    def __init__(self, components: List[str],
                 max_history: int = MAX_HEARTBEATS,
                 stale_after_s: float = 5.0,
                 clock=time.monotonic) -> None:
        self.latest: Dict[str, Heartbeat] = {}
        self.history: Deque[dict] = deque(maxlen=max_history)
        #: receipt time (parent clock) of the latest beat per component
        self.last_seen: Dict[str, float] = {}
        self._components = list(components)
        self._max_history = max_history
        self._stale_after = stale_after_s
        self._clock = clock

    def note(self, hb: Heartbeat) -> None:
        """Record one heartbeat (oldest history entry dropped at the cap)."""
        self.latest[hb.comp] = hb
        self.last_seen[hb.comp] = self._clock()
        self.history.append(hb.to_dict())

    def age_s(self, comp: str) -> Optional[float]:
        """Seconds since this component's last heartbeat (None = never)."""
        seen = self.last_seen.get(comp)
        return None if seen is None else max(0.0, self._clock() - seen)

    def status_line(self, stale_after_s: Optional[float] = None) -> str:
        """One-line live status across all components.

        A component whose last heartbeat is older than the staleness
        threshold renders as ``stale(<age>)`` instead of a frozen — but
        healthy-looking — rate.
        """
        threshold = self._stale_after if stale_after_s is None \
            else stale_after_s
        parts = []
        for name in self._components:
            hb = self.latest.get(name)
            if hb is None:
                parts.append(f"{name}: starting")
                continue
            age = self.age_s(name)
            if age is not None and age > threshold:
                parts.append(f"{name}: stale({age:.1f}s)")
                continue
            flag = "~" if hb.waiting else ""
            parts.append(
                f"{name}: {fmt_time(hb.sim_ps)} {hb.events_per_sec:,.0f}ev/s "
                f"ring {hb.ring_fill:.0%}{flag}")
        return " | ".join(parts)


class HealthMonitor:
    """Watchdog over the heartbeat stream of a multiprocess run.

    Detects, per component:

    * **stalled** — heartbeats keep arriving but simulated time has not
      advanced across ``stall_intervals`` consecutive beats (a child
      wedged on a peer that stopped synchronizing);
    * **stale** — no heartbeat for ``stale_after_s`` seconds (a child
      stuck inside an event callback, or dead);
    * **ring backpressure** — input-ring occupancy at or above
      ``ring_alert_fill`` (surfaced as an alert, not a state: the child is
      alive, its consumer is the problem).

    Alerts fire on the rising edge of each condition and re-arm on
    recovery, so a flapping child produces one alert per episode.  The
    monitor feeds the live status line, the control-plane ``status``
    reply, and the ``health`` section of ``run_report.json``.
    """

    def __init__(self, components: List[str], hb_interval_s: float = 0.25,
                 stall_intervals: int = 4,
                 stale_after_s: Optional[float] = None,
                 ring_alert_fill: float = 0.9,
                 clock=time.monotonic) -> None:
        if stall_intervals < 1:
            raise ValueError("stall_intervals must be >= 1")
        self.components = list(components)
        self.hb_interval_s = hb_interval_s
        self.stall_intervals = stall_intervals
        self.stale_after_s = stale_after_s if stale_after_s is not None \
            else max(2.0, 8 * hb_interval_s)
        self.ring_alert_fill = ring_alert_fill
        self._clock = clock
        self._t0 = clock()
        self._states: Dict[str, str] = {c: HEALTH_STARTING
                                        for c in self.components}
        self._last_sim_ps: Dict[str, int] = {}
        self._beats_no_progress: Dict[str, int] = {c: 0 for c in components}
        self._last_wall_s: Dict[str, float] = {}
        self._ring_alerted: Dict[str, bool] = {c: False for c in components}
        self.alerts: Deque[dict] = deque(maxlen=MAX_ALERTS)

    # -- observation -------------------------------------------------------

    def _alert(self, comp: str, kind: str, detail: str) -> None:
        self.alerts.append({"t_s": round(self._clock() - self._t0, 3),
                            "comp": comp, "kind": kind, "detail": detail})

    def note_done(self, comp: str, error: Optional[str] = None) -> None:
        """A child's result arrived; it is no longer watched."""
        if error:
            self._states[comp] = HEALTH_FAILED
            self._alert(comp, "failed", error)
        else:
            self._states[comp] = HEALTH_DONE

    def observe(self, aggregator: TelemetryAggregator) -> None:
        """One watchdog pass over the aggregator's current view."""
        now = self._clock()
        for comp in self.components:
            state = self._states[comp]
            if state in (HEALTH_DONE, HEALTH_FAILED):
                continue
            hb = aggregator.latest.get(comp)
            if hb is None:
                # never beat: stale once the startup grace period expires
                if (now - self._t0 > self.stale_after_s
                        and state != HEALTH_STALE):
                    self._states[comp] = HEALTH_STALE
                    self._alert(comp, "stale",
                                f"no heartbeat "
                                f"{now - self._t0:.1f}s after launch")
                continue
            seen = aggregator.last_seen.get(comp, now)
            if now - seen > self.stale_after_s:
                if state != HEALTH_STALE:
                    self._states[comp] = HEALTH_STALE
                    self._alert(comp, "stale",
                                f"last heartbeat {now - seen:.1f}s ago "
                                f"at {fmt_time(hb.sim_ps)}")
                continue
            # a fresh beat: track horizon progress (one count per beat)
            if hb.wall_s != self._last_wall_s.get(comp):
                self._last_wall_s[comp] = hb.wall_s
                last_ps = self._last_sim_ps.get(comp)
                if last_ps is not None and hb.sim_ps <= last_ps:
                    self._beats_no_progress[comp] += 1
                else:
                    self._beats_no_progress[comp] = 0
                self._last_sim_ps[comp] = hb.sim_ps
                fill = hb.ring_fill
                if fill >= self.ring_alert_fill:
                    if not self._ring_alerted[comp]:
                        self._ring_alerted[comp] = True
                        self._alert(comp, "backpressure",
                                    f"input ring {fill:.0%} full")
                elif self._ring_alerted[comp]:
                    self._ring_alerted[comp] = False
            if self._beats_no_progress[comp] >= self.stall_intervals:
                if state != HEALTH_STALLED:
                    self._states[comp] = HEALTH_STALLED
                    self._alert(comp, "stalled",
                                f"no horizon progress for "
                                f"{self._beats_no_progress[comp]} beats "
                                f"at {fmt_time(hb.sim_ps)}")
            elif state != HEALTH_OK:
                if state in (HEALTH_STALLED, HEALTH_STALE):
                    self._alert(comp, "recovered",
                                f"progressing again at {fmt_time(hb.sim_ps)}")
                self._states[comp] = HEALTH_OK

    # -- rendering ---------------------------------------------------------

    def state(self, comp: str) -> str:
        """Current health state of one component."""
        return self._states[comp]

    def states(self) -> Dict[str, str]:
        """Current health state of every component."""
        return dict(self._states)

    @property
    def degraded(self) -> bool:
        """Any component currently stalled, stale, or failed."""
        return any(s in (HEALTH_STALLED, HEALTH_STALE, HEALTH_FAILED)
                   for s in self._states.values())

    def badge(self) -> str:
        """Status-line suffix naming unhealthy components ('' if healthy)."""
        bad = sorted(c for c, s in self._states.items()
                     if s in (HEALTH_STALLED, HEALTH_STALE, HEALTH_FAILED))
        if not bad:
            return ""
        kinds = {c: self._states[c] for c in bad}
        return "  [!] " + ", ".join(f"{c}:{kinds[c]}" for c in bad)

    def report(self) -> dict:
        """The ``health`` section of ``run_report.json`` (schema v2)."""
        return {
            "watchdog": {
                "hb_interval_s": self.hb_interval_s,
                "stall_intervals": self.stall_intervals,
                "stale_after_s": self.stale_after_s,
                "ring_alert_fill": self.ring_alert_fill,
            },
            "components": dict(self._states),
            "degraded": self.degraded,
            "alerts": list(self.alerts),
        }


def build_run_report(mode: str, until_ps: int, wall_seconds: float,
                     components: Dict[str, dict],
                     aggregator: Optional[TelemetryAggregator] = None,
                     health: Optional[dict] = None) -> dict:
    """Assemble the versioned ``run_report.json`` document.

    ``components`` maps each component to its entry (see the schema
    history); the artifact references (``trace``, ``timeline``, ``audit``)
    stay ``null`` until :func:`~repro.obs.rundir.write_run` saves them.
    """
    return {
        "schema": RUN_REPORT_SCHEMA,
        "mode": mode,
        "until_ps": until_ps,
        "wall_seconds": wall_seconds,
        "components": dict(sorted(components.items())),
        "heartbeats": list(aggregator.history) if aggregator is not None
        else [],
        "trace": None,
        "health": health,
        "timeline": None,
        "audit": None,
    }


def write_run_report(path: str, report: dict) -> None:
    """Write the report (pretty-printed, trailing newline)."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")
