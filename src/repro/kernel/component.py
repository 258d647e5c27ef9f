"""Component simulators: the unit of modular composition.

A :class:`Component` is one simulator instance in a SplitSim simulation —
a host simulator, a NIC model, one partition of the network simulator, one
core of a decomposed multi-core simulation, and so on.  Each component owns
a private event queue and clock, and talks to other components *only*
through its channel ends (:mod:`repro.channels`).

Components advance under the conservative synchronization protocol: a call
to :meth:`advance` polls inputs, executes local events strictly below the
input horizon, then publishes the new commitment via sync markers.  The
coordinator (:mod:`repro.parallel.simulation`) or the per-process runner
drives this loop.

Work accounting
---------------
For the virtual-time parallel execution model, every executed event accrues
*host cycles* — the modeled cost of executing it on the machine running the
simulation.  The default per-event cost is ``cycles_per_event``; handlers can
report additional work via :meth:`add_work` (e.g. a host simulator charges
cycles per simulated instruction).  Work is accumulated per simulated-time
window by a :class:`WorkRecorder` so the execution model can replay the
parallel schedule.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional

from .events import Event, EventQueue
from .simtime import TIME_INFINITY
from ..channels.channel import ChannelEnd
from ..channels.messages import Msg
from ..obs.flows import _ACTIVE as _FLOWS


class WorkRecorder:
    """Accumulates modeled host cycles per (component, sim-time window)."""

    def __init__(self, window_ps: int) -> None:
        if window_ps <= 0:
            raise ValueError("window must be positive")
        self.window_ps = window_ps
        #: component name -> {window index -> cycles}
        self.work: Dict[str, Dict[int, float]] = {}
        #: (src component, dst component) -> {window index -> messages}
        self.msgs: Dict[tuple, Dict[int, int]] = {}

    def note_work(self, comp: str, ts: int, cycles: float) -> None:
        """Account ``cycles`` of host work at simulated time ``ts``."""
        win = ts // self.window_ps
        buckets = self.work.setdefault(comp, {})
        buckets[win] = buckets.get(win, 0.0) + cycles

    def note_msg(self, src: str, dst: str, ts: int) -> None:
        """Account one cross-component message delivery."""
        win = ts // self.window_ps
        buckets = self.msgs.setdefault((src, dst), {})
        buckets[win] = buckets.get(win, 0) + 1

    def total_work(self, comp: str) -> float:
        """All recorded cycles of one component."""
        return sum(self.work.get(comp, {}).values())


#: Sort key for one poll round's deliveries: (stamp, send time, send order).
#: Keyed on the leading ints only — ends/messages are never compared.
_delivery_order = itemgetter(0, 1, 2)


class Component:
    """Base class for all simulator instances.

    Subclasses implement behaviour by scheduling events (:meth:`schedule`,
    :meth:`call_after`) and by registering per-end message handlers with
    :meth:`attach_end`.
    """

    #: Default modeled host cycles consumed per executed event.  Calibrated
    #: per simulator type in :mod:`repro.parallel.costmodel`.
    cycles_per_event: float = 1_000.0

    def __init__(self, name: str) -> None:
        self.name = name
        self.queue = EventQueue()
        self.now = 0
        self.ends: List[ChannelEnd] = []
        self._handlers: Dict[int, Callable[[Msg], None]] = {}
        self.events_processed = 0
        self.work_cycles = 0.0
        self.recorder: Optional[WorkRecorder] = None
        self._started = False
        #: input horizon and the ends limiting it, as of the last poll
        self._horizon = TIME_INFINITY
        self._limiting: List[ChannelEnd] = []
        #: last commitment published to the output ends
        self._synced_commit = -1
        #: bound-method caches: avoid re-creating bound method objects on
        #: every delivery/schedule.  ``_schedule_at`` must be refreshed if
        #: ``self.queue`` is ever replaced (the fast-mode coordinator does).
        self._dispatch_cached = self._dispatch
        self._schedule_at = self.queue.schedule_at

    # -- wiring -----------------------------------------------------------

    def attach_end(self, end: ChannelEnd,
                   handler: Optional[Callable[[Msg], None]] = None) -> ChannelEnd:
        """Register a channel end; ``handler`` receives its data messages.

        A :class:`~repro.channels.trunk.TrunkEnd` may be attached with its
        own :meth:`~repro.channels.trunk.TrunkEnd.dispatch` as the handler.
        """
        end.owner = self
        self.ends.append(end)
        if handler is not None:
            self._handlers[id(end)] = handler
        return end

    # -- scheduling API (used by subclasses) -------------------------------

    def schedule(self, ts: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``ts``."""
        if ts < self.now:
            raise ValueError(
                f"{self.name}: scheduling into the past ({ts} < now {self.now})"
            )
        return self._schedule_at(self, ts, fn, *args)

    def call_after(self, delay: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` picoseconds from now.

        Calls straight into the queue (bypassing :meth:`schedule`) — this is
        the hottest scheduling entry point in the simulator.
        """
        if delay < 0:
            raise ValueError(
                f"{self.name}: scheduling into the past (delay {delay})"
            )
        return self._schedule_at(self, self.now + delay, fn, *args)

    def cancel(self, ev: Event) -> None:
        """Cancel a previously scheduled event."""
        self.queue.cancel(ev)

    def postpone(self, ev: Event, delay: int) -> bool:
        """Re-arm a pending event for ``delay`` picoseconds from now, in
        place; ``False`` (nothing changed) if it is no longer pending or
        would have to move earlier (:meth:`EventQueue.postpone`)."""
        return self.queue.postpone(ev, self.now + delay)

    def add_work(self, cycles: float) -> None:
        """Report extra modeled host cycles for the current event."""
        self.work_cycles += cycles
        if self.recorder is not None:
            self.recorder.note_work(self.name, self.now, cycles)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Hook invoked once before the first advance; schedule initial events."""

    # -- advance loop -------------------------------------------------------

    def poll_inputs(self) -> None:
        """Drain all input queues, scheduling data messages as local events.

        Messages polled in one round are dispatched in ``(stamp, send time,
        send order)`` order, not channel attach order: two channels can carry
        equal delivery stamps, and the fast-mode oracle executes those
        deliveries in send order.  Send time is recovered as ``stamp -
        latency`` (per-channel latency is fixed), so only ``msg.seq`` travels
        on the wire.

        The same pass over the ends records the input horizon and the ends
        limiting it; :meth:`input_horizon` and :meth:`blocking_ends` report
        that record (horizons only move when an end is polled).
        """
        now = self.now
        batch = None
        horizon = TIME_INFINITY
        limiting = []
        for end in self.ends:
            msgs = end.poll()
            if msgs:
                if batch is None:
                    batch = []
                latency = end.latency
                for msg in msgs:
                    stamp = msg.stamp
                    if stamp < now:
                        raise AssertionError(
                            f"{self.name}: stale message stamp {stamp} < now {now}"
                        )
                    batch.append((stamp, stamp - latency, msg.seq, end, msg))
            hz = end.horizon()
            if hz < horizon:
                horizon = hz
                limiting = [end]
            elif hz == horizon and hz < TIME_INFINITY:
                limiting.append(end)
        self._horizon = horizon
        self._limiting = limiting
        if batch is not None:
            if len(batch) > 1:
                batch.sort(key=_delivery_order)
            schedule_at = self._schedule_at
            dispatch = self._dispatch_cached
            for stamp, _send_ts, _seq, end, msg in batch:
                schedule_at(self, stamp, dispatch, end, msg)

    def blocking_ends(self) -> List[ChannelEnd]:
        """Channel ends limiting this component's progress at its last poll."""
        return self._limiting

    def input_horizon(self) -> int:
        """Minimum horizon over all synchronized input channels, as of the
        last :meth:`poll_inputs`."""
        return self._horizon

    def advance(self, target: int) -> int:
        """Run all currently-permitted events and return the new commitment.

        Executes local events with timestamp ``<= target`` and strictly below
        the input horizon, then emits sync markers.  The returned commitment
        is the simulated time below which this component is guaranteed to
        send no further messages (given current inputs).
        """
        if not self._started:
            self._started = True
            self.start()
        self.poll_inputs()
        horizon = self._horizon
        # Events may run at ts <= target and strictly below the horizon; the
        # fused drain does the whole loop with one cancelled-scan per event
        # and leaves the heap alone when nothing is due.  Every event left
        # lies beyond the bound, so the commitment is the bound's own limit.
        # (Inputs arriving meanwhile only matter in multi-process mode, where
        # the runner re-polls between advance calls.)
        if target < horizon:
            commit = bound = target
        else:
            commit = horizon
            bound = horizon - 1
        self.queue.run_until(bound)
        if commit > self.now:
            self.now = commit
        # an unchanged commitment cannot grow any end's promise
        if commit > self._synced_commit:
            self._synced_commit = commit
            for end in self.ends:
                end.maybe_sync(commit)
        return commit

    def _dispatch(self, end: ChannelEnd, msg: Msg) -> None:
        rec = _FLOWS[0]
        if rec is not None:
            f = msg.flow
            if f:
                rec.seed_hop(f, msg.hop + 1)
                rec.hop(f, "chdeliver", self.name, self.now, at=end.name,
                        hop=msg.hop, w=end.wait_cycles)
        handler = self._handlers.get(id(end))
        if handler is None:
            self.handle_message(end, msg)
        else:
            handler(msg)
        if self.recorder is not None and end.peer_comp_name:
            self.recorder.note_msg(end.peer_comp_name, self.name, self.now)

    def handle_message(self, end: ChannelEnd, msg: Msg) -> None:
        """Fallback message handler; override or register per-end handlers."""
        raise NotImplementedError(
            f"{self.name}: no handler for {type(msg).__name__} on end {end.name}"
        )

    # -- introspection ------------------------------------------------------

    def pending_events(self) -> int:
        """Number of live events in this component's queue."""
        return len(self.queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} now={self.now}>"
