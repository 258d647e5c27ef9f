"""Component simulators: the unit of modular composition.

A :class:`Component` is one simulator instance in a SplitSim simulation —
a host simulator, a NIC model, one partition of the network simulator, one
core of a decomposed multi-core simulation, and so on.  Each component owns
a private event queue and clock, and talks to other components *only*
through its channel ends (:mod:`repro.channels`).

Components advance under the conservative synchronization protocol: a call
to :meth:`advance` is one sync step, in one Python frame — it receives
inputs, executes local events strictly below the input horizon, then
publishes the new commitment as sync promises.  The coordinator
(:mod:`repro.parallel.simulation`) and the per-process runner drive this
same step.

Work accounting
---------------
For the virtual-time parallel execution model, every executed event accrues
*host cycles* — the modeled cost of executing it on the machine running the
simulation.  The default per-event cost is ``cycles_per_event``; handlers can
report additional work via :meth:`add_work` (e.g. a host simulator charges
cycles per simulated instruction).  The event drain keeps no work at all:
:attr:`Component.work_cycles` is derived, ``events_processed *
cycles_per_event`` plus the :meth:`add_work` total — equal to a running sum
bit for bit, since every cost constant is an integer-valued float.  The
execution model's per-window work is recorded by a probe
(:mod:`repro.parallel.model`) that shadows :meth:`add_work` and the end
handlers on the instance for one run: a component knows no recorder.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional

from .events import Event, EventQueue
from .simtime import TIME_INFINITY
from ..channels.channel import NO_INPUT, ChannelEnd
from ..channels.messages import Msg
from ..obs.flows import _ACTIVE as _FLOWS


#: Sort key for one step's deliveries: (stamp, send time, send order).
#: Keyed on the leading ints only — ends/messages are never compared.
_delivery_order = itemgetter(0, 1, 2)


class Component:
    """Base class for all simulator instances.

    Subclasses implement behaviour by scheduling events (:meth:`call_after`,
    and :meth:`schedule` / :meth:`timer` for a handle) and by registering
    per-end message handlers with :meth:`attach_end`.
    """

    #: Default modeled host cycles consumed per executed event.  Calibrated
    #: per simulator type in :mod:`repro.parallel.costmodel`.
    cycles_per_event: float = 1_000.0

    def __init__(self, name: str) -> None:
        self.name = name
        self.now = 0
        self.ends: List[ChannelEnd] = []
        self._handlers: Dict[int, Callable[[Msg], None]] = {}
        self.events_processed = 0
        #: :meth:`add_work` total (the per-event part of the work is derived)
        self._extra_work = 0.0
        self._started = False
        #: input horizon and the ends limiting it, as of the last step
        self._horizon = TIME_INFINITY
        self._limiting: List[ChannelEnd] = []
        #: last commitment published to the output ends
        self._synced_commit = -1
        #: bound-method cache: avoids re-creating a bound method object on
        #: every delivery
        self._dispatch_cached = self._dispatch
        self.bind_queue(EventQueue())

    def bind_queue(self, queue: EventQueue) -> None:
        """Make ``queue`` this component's event queue.

        Besides ``self.queue`` this refreshes the callables bound to the
        queue: the posts (no handle, for events nobody cancels)
        ``_schedule_at`` (``queue.post_at``) and the per-instance
        :meth:`call_after` (``partial(queue.post_after, self)``), and the
        per-instance :meth:`timer` (``partial(queue.schedule_after,
        self)``).  Whoever replaces a component's queue (the fast-mode
        coordinator does) must come through here.
        """
        self.queue = queue
        self._schedule_at = queue.post_at
        self.call_after = partial(queue.post_after, self)
        self.timer = partial(queue.schedule_after, self)

    @property
    def work_cycles(self) -> float:
        """Modeled host cycles so far: ``cycles_per_event`` per executed
        event plus everything reported via :meth:`add_work`."""
        return self.events_processed * self.cycles_per_event + self._extra_work

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
        """Schedule ``fn(*args)`` at absolute time ``ts``; return its handle
        (``_schedule_at``, with the same arguments, posts without one)."""
        if ts < self.now:
            raise ValueError(
                f"{self.name}: scheduling into the past ({ts} < now {self.now})"
            )
        return self.queue.schedule_at(self, ts, fn, *args)

    def call_after(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Post ``fn(*args)`` ``delay`` picoseconds from now; no handle.

        The hottest scheduling entry point in the simulator, so every
        instance shadows this method with ``partial(queue.post_after,
        self)`` (:meth:`bind_queue`): a call runs one Python frame, the
        queue's, and builds no :class:`Event`.  This body is the same call,
        for calls through the class.  A timer that may be cancelled or
        re-armed is a :meth:`timer`.
        """
        self.queue.post_after(self, delay, fn, *args)

    def timer(self, delay: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` picoseconds from now and return
        its handle, for :meth:`cancel` and :meth:`postpone`.  It draws the
        ``(ts, seq)`` :meth:`call_after` would.  Every instance shadows
        this method with ``partial(queue.schedule_after, self)``
        (:meth:`bind_queue`), as it does :meth:`call_after`."""
        return self.queue.schedule_after(self, delay, fn, *args)

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
        self._extra_work += cycles

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Hook invoked once before the first advance; schedule initial events."""

    # -- advance loop -------------------------------------------------------

    def blocking_ends(self) -> List[ChannelEnd]:
        """Channel ends limiting this component's progress at its last step."""
        return self._limiting

    def input_horizon(self) -> int:
        """Minimum horizon over all synchronized input channels, as of the
        last :meth:`advance`."""
        return self._horizon

    def advance(self, target: int) -> int:
        """One sync step: receive, drain, publish; returns the new commitment.

        Executes local events with timestamp ``<= target`` and strictly below
        the input horizon, then publishes sync promises.  The returned
        commitment is the simulated time below which this component is
        guaranteed to send no further messages (given current inputs).

        The step is one Python frame, and the protocol's only copy; every
        end presents the same :attr:`~ChannelEnd.inbox` and
        :attr:`~ChannelEnd.outbox` whatever its transport:

        * *receive* — one pass over the ends.  An end's inbox deque is read
          only when it holds data, and its ``syncs`` and ``promise`` after
          the data: a promise becomes visible at a step, never between two.
          An unsynchronized end reads :data:`~repro.channels.channel.NO_INPUT`.
          The pass records the input horizon and the ends limiting it
          (:meth:`input_horizon`, :meth:`blocking_ends`).  The step's
          messages are dispatched in ``(stamp, send time, send order)``
          order, not channel attach order: two channels can carry equal
          delivery stamps, and the fast-mode oracle executes those
          deliveries in send order.  Send time is ``stamp - latency``
          (per-channel latency is fixed), so only ``msg.seq`` travels on
          the wire.
        * *drain* — ``EventQueue.run_until`` is entered only when something
          may be due: a post or live handle at the heap head beyond the
          bound means nothing is, while a dead or postponed head is left to
          ``run_until`` to settle.
        * *publish* — each synchronized end's new promise is recorded in its
          outbox and nothing more: an in-process queue shows it to the peer
          at once, a ring end's :meth:`~ChannelEnd.flush` decides what to
          send.
        """
        if not self._started:
            self._started = True
            self.start()
        ends = self.ends
        inf = TIME_INFINITY
        horizon = inf
        limiting = []
        batch = None
        for end in ends:
            inbox = end.inbox if end.synchronized else NO_INPUT
            msgs = inbox._q
            if msgs:
                if batch is None:
                    batch = []
                now = self.now
                latency = end.latency
                for msg in msgs:
                    stamp = msg.stamp
                    if stamp < now:
                        raise AssertionError(
                            f"{self.name}: stale message stamp {stamp} < now {now}"
                        )
                    batch.append((stamp, stamp - latency, msg.seq, end, msg))
                end.rx_msgs += len(msgs)
                msgs.clear()
                # the newest stamp is never below what its sender sent or
                # promised before it, but a promise made since may be above
                if stamp > inbox.promise:
                    inbox.promise = stamp
            end.rx_syncs = inbox.syncs
            hz = inbox.promise
            if hz < horizon:
                horizon = hz
                limiting = [end]
            elif hz == horizon and hz < inf:
                limiting.append(end)
        self._horizon = horizon
        self._limiting = limiting
        if batch is not None:
            if len(batch) > 1:
                batch.sort(key=_delivery_order)
            post_at = self._schedule_at
            dispatch = self._dispatch_cached
            for stamp, _send_ts, _seq, end, msg in batch:
                post_at(self, stamp, dispatch, end, msg)
        # Events may run at ts <= target and strictly below the horizon.
        # Every event left lies beyond the bound, so the commitment is the
        # bound's own limit.  (Inputs arriving meanwhile only matter in
        # multi-process mode, where the runner drains the rings before each
        # step.)
        if target < horizon:
            commit = bound = target
        else:
            commit = horizon
            bound = horizon - 1
        queue = self.queue
        heap = queue._heap
        if heap:
            head = heap[0]
            if head[0] <= bound or (head[4] is None and head[3].cancelled):
                queue.run_until(bound)
        if commit > self.now:
            self.now = commit
        # an unchanged commitment cannot grow any end's promise
        if commit > self._synced_commit:
            self._synced_commit = commit
            for end in ends:
                if end.synchronized:
                    stamp = commit + end.latency
                    if stamp > end._out_last_stamp:
                        end._out_last_stamp = stamp
                        outbox = end.outbox
                        outbox.promise = stamp
                        outbox.syncs += 1
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

    def handle_message(self, end: ChannelEnd, msg: Msg) -> None:
        """Fallback message handler; override or register per-end handlers."""
        raise NotImplementedError(
            f"{self.name}: no handler for {type(msg).__name__} on end {end.name}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} now={self.now}>"
