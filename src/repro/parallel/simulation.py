"""Cooperative in-process execution of a SplitSim simulation.

The :class:`Simulation` object assembles component simulators and channels
and runs them to a simulated end time.  Two execution modes exist:

* ``"fast"`` (default): all components share one global event queue and
  channels deliver directly (with their latency) into the receiver's queue.
  Synchronization never blocks because the global queue already executes
  events in timestamp order.  This produces *identical simulated behaviour*
  to a synchronized run — conservative synchronization only ever adds
  waiting, never changes event order — at much lower interpreter overhead.

* ``"strict"``: every component keeps a private queue and the full
  SimBricks-style sync protocol runs — sync markers, input horizons,
  blocking.  Use this to exercise/validate the protocol and to collect
  wait counters for the profiler.

Real multi-process execution lives in :mod:`repro.parallel.procrunner`; the
virtual-time performance model in :mod:`repro.parallel.model`.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Tuple

from ..channels.channel import ChannelEnd, FifoQueue, connect
from ..kernel.component import Component
from ..kernel.events import EventQueue
from ..kernel.simtime import TIME_INFINITY, US
from ..record import Record

#: Modeled host cycles burned per blocked poll iteration in strict mode.
POLL_COST_CYCLES = 50.0


class DeadlockError(RuntimeError):
    """Raised when no component can make progress before the end time."""


class Observer:
    """Run observer: the one seam the runtimes offer to recorders.

    ``Simulation.observers`` is a plain list; the coordinator calls
    :meth:`start` once after wiring, :meth:`on_round` after every
    ``every``-th strict sync round and after the last one (``done`` is true
    exactly once, on the last) — never in fast mode, which has no rounds —
    and :meth:`finish` once after the run, last started first, so what
    observers install on the components unwinds like a stack.  Each
    observer owns its cadence; the runtime does not know which recorders
    exist (see :mod:`repro.obs.recorder`).
    """

    #: rounds between :meth:`on_round` calls (the coordinator does the
    #: modulo, so a sparse observer costs no call on the other rounds)
    every = 1

    def start(self, sim: "Simulation", until_ps: int) -> None:
        """The simulation is wired and about to run to ``until_ps``."""

    def on_round(self, rounds: int, done: bool) -> None:
        """Strict sync round number ``rounds`` just completed."""

    def finish(self) -> None:
        """The run is over (components sit at the end time)."""


class _DirectQueue:
    """Fast-mode transport: delivers straight into the peer's event queue.

    ``bind`` caches the receiver's ``queue.post_at`` and dispatch bound
    methods so the per-message ``push`` does no attribute traversal at all.
    """

    def __init__(self) -> None:
        self.peer_comp: Optional[Component] = None
        self.peer_end: Optional[ChannelEnd] = None
        self._schedule_at = None
        self._dispatch = None

    def bind(self, comp: Component, end: ChannelEnd) -> None:
        """Point this queue at the receiving component and end."""
        self.peer_comp = comp
        self.peer_end = end
        self._schedule_at = comp.queue.post_at
        self._dispatch = comp._dispatch_cached

    def push(self, msg) -> bool:
        """Deliver a message straight into the peer's event queue."""
        end = self.peer_end
        end.rx_msgs += 1
        self._schedule_at(self.peer_comp, msg.stamp, self._dispatch, end, msg)
        return True


class SimStats(Record):
    """Summary of one simulation run."""

    def __init__(self, sim_time_ps: int = 0, wall_seconds: float = 0.0,
                 events: int = 0, rounds: int = 0, mode: str = "fast",
                 per_component_events: Optional[Dict[str, int]] = None,
                 per_component_work: Optional[Dict[str, float]] = None,
                 peak_heap: int = 0, pool_reuse_rate: float = 0.0,
                 cancelled_ratio: float = 0.0, event_allocations: int = 0,
                 postponed: int = 0) -> None:
        self.sim_time_ps = sim_time_ps
        self.wall_seconds = wall_seconds
        self.events = events
        self.rounds = rounds
        self.mode = mode
        self.per_component_events = ({} if per_component_events is None
                                     else per_component_events)
        self.per_component_work = ({} if per_component_work is None
                                   else per_component_work)
        # -- event-queue/engine health (aggregated over all queues) --
        #: largest heap length observed (live + lazily-cancelled entries)
        self.peak_heap = peak_heap
        #: fraction of schedules that built no ``Event``: pool hits and,
        #: mostly, posts (``EventQueue.post_at``)
        self.pool_reuse_rate = pool_reuse_rate
        #: fraction of scheduled events cancelled before firing
        self.cancelled_ratio = cancelled_ratio
        #: fresh ``Event`` objects constructed across the run (posts build
        #: none)
        self.event_allocations = event_allocations
        #: pending events re-armed in place (``EventQueue.postpone``); these
        #: are not schedules and stay out of the two ratios above
        self.postponed = postponed

    @property
    def events_per_second(self) -> float:
        """Interpreter throughput of the run (events / wall second)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds


class Simulation:
    """Container wiring components and channels, and running them.

    Parameters
    ----------
    mode:
        ``"fast"`` or ``"strict"`` (see module docstring).
    """

    def __init__(self, mode: str = "fast") -> None:
        if mode not in ("fast", "strict"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.components: List[Component] = []
        #: component name -> position in ``components``
        self._index: Dict[str, int] = {}
        self.channels: List[Tuple[ChannelEnd, ChannelEnd]] = []
        #: run observers (:class:`Observer`), driven in list order
        self.observers: List[Observer] = []
        self._wired = False

    # -- assembly ----------------------------------------------------------

    def add(self, comp: Component) -> Component:
        """Register a component simulator."""
        if comp.name in self._index:
            raise ValueError(f"duplicate component name {comp.name!r}")
        self._index[comp.name] = len(self.components)
        self.components.append(comp)
        return comp

    def connect(self, end_a: ChannelEnd, end_b: ChannelEnd) -> None:
        """Create a channel between two attached channel ends."""
        if end_a.owner is None or end_b.owner is None:
            raise ValueError("attach ends to components before connecting")
        self.channels.append((end_a, end_b))

    def component(self, name: str) -> Component:
        """Look up a component by name."""
        return self.components[self._index[name]]

    # -- execution ---------------------------------------------------------

    def _wire(self) -> None:
        if self._wired:
            raise RuntimeError("simulation already ran; build a fresh one")
        self._wired = True
        if self.mode == "fast":
            shared = EventQueue()
            for c in self.components:
                # events scheduled before the run move over, handles and all
                shared.adopt(c.queue, c)
                c.bind_queue(shared)
            for end_a, end_b in self.channels:
                q_ab, q_ba = _DirectQueue(), _DirectQueue()
                q_ab.bind(end_b.owner, end_b)
                q_ba.bind(end_a.owner, end_a)
                end_a.wire(out_q=q_ab, in_q=q_ba, peer_name=end_b.name)
                end_b.wire(out_q=q_ba, in_q=q_ab, peer_name=end_a.name)
                end_a.peer_comp_name = end_b.owner.name
                end_b.peer_comp_name = end_a.owner.name
                end_a.synchronized = False
                end_b.synchronized = False
            self._shared_queue = shared
        else:
            for end_a, end_b in self.channels:
                connect(end_a, end_b, FifoQueue)
                end_a.peer_comp_name = end_b.owner.name
                end_b.peer_comp_name = end_a.owner.name

    def run(self, until_ps: int) -> SimStats:
        """Run the simulation to ``until_ps`` and return run statistics."""
        self._wire()
        t0 = _time.perf_counter()
        if self.mode == "fast":
            rounds = self._run_fast(until_ps)
        else:
            rounds = self._run_strict(until_ps)
        wall = _time.perf_counter() - t0
        stats = SimStats(
            sim_time_ps=until_ps,
            wall_seconds=wall,
            events=sum(c.events_processed for c in self.components),
            rounds=rounds,
            mode=self.mode,
            per_component_events={c.name: c.events_processed for c in self.components},
            per_component_work={c.name: c.work_cycles for c in self.components},
        )
        self._fill_queue_stats(stats)
        return stats

    def _fill_queue_stats(self, stats: SimStats) -> None:
        """Aggregate queue health counters (fast mode shares one queue)."""
        queues = {id(c.queue): c.queue for c in self.components}
        scheduled = cancelled = reused = allocs = postponed = 0
        for q in queues.values():
            qs = q.stats()
            stats.peak_heap = max(stats.peak_heap, qs["peak_heap"])
            allocs += qs["allocations"]
            reused += qs["pool_reuse"]
            cancelled += qs["cancelled_total"]
            postponed += qs["postponed_total"]
            # every schedule is a fresh allocation, a pool hit or a post
            scheduled += qs["allocations"] + qs["pool_reuse"]
        stats.event_allocations = allocs
        stats.postponed = postponed
        if scheduled:
            stats.pool_reuse_rate = reused / scheduled
            stats.cancelled_ratio = cancelled / scheduled

    def _run_fast(self, until_ps: int) -> int:
        queue = self._shared_queue
        observers = self.observers
        for o in observers:
            o.start(self, until_ps)
        for c in self.components:
            c._started = True
            c.start()
        # One fused drain: a single cancelled-scan per event, inlined
        # dispatch accounting, and free-list recycling (kernel/events.py).
        steps = queue.run_until(until_ps)
        for c in self.components:
            if c.now < until_ps:
                c.now = until_ps
        for o in reversed(observers):
            o.finish()
        return steps

    def _run_strict(self, until_ps: int) -> int:
        comps = self.components
        #: last commitment of each component, by position in ``comps``
        commits = [-1] * len(comps)
        rounds = 0
        observers = self.observers
        for o in observers:
            o.start(self, until_ps)
        while True:
            progressed = False
            done = True
            for i, c in enumerate(comps):
                before_events = c.events_processed
                # through the instance: callers may shadow ``advance`` on it
                commit = c.advance(until_ps)
                if commit > commits[i] or c.events_processed > before_events:
                    progressed = True
                commits[i] = commit
                if commit < until_ps:
                    done = False
                    # Attribute a poll's worth of waiting to the ends that
                    # limited this step (the list the step recorded).
                    for end in c._limiting:
                        end.wait_polls += 1
                        end.wait_cycles += POLL_COST_CYCLES
            rounds += 1
            for o in observers:
                if done or not rounds % o.every:
                    o.on_round(rounds, done)
            if done:
                for o in reversed(observers):
                    o.finish()
                return rounds
            if not progressed:
                detail = ", ".join(
                    f"{c.name}@{commit} hz={c.input_horizon()}"
                    for c, commit in zip(comps, commits))
                raise DeadlockError(f"no progress after round {rounds}: {detail}")
