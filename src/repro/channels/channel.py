"""SplitSim channels: synchronized, latency-modeled message links.

A channel connects two component simulators with a pair of directed queues.
The synchronization protocol is SimBricks-style conservative lookahead:

* Every message is stamped with its *delivery* time (sender time + channel
  latency).  Stamps on a directed queue are non-decreasing.
* A receiver may only advance its local clock strictly below its **input
  horizon**: the largest stamp it has seen on each input queue (minimum
  across queues).
* A sender that advances its clock without sending data must periodically
  publish a sync promise so its peer's horizon keeps growing.  Positive
  latency on every channel guarantees deadlock freedom: each sync round
  grows horizons by at least the channel latency.

The protocol is written once, in the owner's step
(``Component.advance``): it reads every end's :attr:`ChannelEnd.inbox`
and records every new promise in its :attr:`ChannelEnd.outbox`, both
with :class:`FifoQueue`'s shape.  The transports only move them:

* :class:`FifoQueue` — an in-process deque, used by the cooperative
  coordinator's strict mode.  It is the receiver's inbox and the sender's
  outbox at once, so a promise travels as an integer field of the queue,
  visible at the receiver's next step; no message object is built for it.
* the shared-memory ring in :mod:`repro.parallel.shm_ring` — used when each
  component runs as a real OS process.  :meth:`ChannelEnd.receive` drains
  the ring into a private inbox.  Sends collect in a batch that
  :meth:`ChannelEnd.flush` publishes with one cursor store; the promise
  rides the batch's last frame, and an idle sender emits pooled
  :class:`~repro.channels.messages.SyncMsg` marker frames.

Channel ends also maintain the profiler's raw counters (messages and syncs
sent and received, bytes sent, and cycles spent waiting); see
:mod:`repro.profiler`.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Callable, Optional, TYPE_CHECKING

from .messages import Msg, SyncMsg, wire_size_of
from ..kernel.simtime import TIME_INFINITY
from ..obs.flows import _ACTIVE as _FLOWS

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.component import Component

#: Process-global send order for data messages on synchronized ends.  A
#: receiver with several input channels can see equal delivery stamps from
#: different channels in one step; ``Msg.seq`` lets it dispatch them in
#: send order — the order the fast-mode shared queue would have used — instead
#: of channel attach order.
_send_seq = count(1)

class FifoQueue:
    """In-process directed message queue (single producer, single consumer),
    and the shape of every end's inbox and outbox.

    Besides data messages it carries ``promise``, the largest stamp its
    receiver may rely on (the sender's latest sync promise or, once the
    receiver has read it, a later data stamp), and ``syncs``, how many
    promises have been published on it: the in-process mirror of the shm
    ring's frame header and marker frames.  The receiver folds both in at
    its owner's step (``Component.advance``).
    """

    __slots__ = ("_q", "promise", "syncs")

    def __init__(self, promise: int = 0) -> None:
        self._q: deque[Msg] = deque()
        self.promise = promise
        self.syncs = 0

    def push(self, msg: Msg) -> bool:
        """Append a message (always succeeds in-process)."""
        self._q.append(msg)
        return True


#: The inbox an unwired or unsynchronized end reads: empty, promising
#: everything.  Never written: a step writes only an inbox that held data.
NO_INPUT = FifoQueue(TIME_INFINITY)


class ChannelEnd:
    """One endpoint of a SplitSim channel, owned by a component simulator.

    The owning component calls :meth:`send` from its event handlers; its
    step (``Component.advance``) reads :attr:`inbox` and records promises
    in :attr:`outbox`, whatever the transport.  Over a shared-memory ring
    the runner calls :meth:`receive` just before the step and
    :meth:`flush` just after it.
    """

    def __init__(self, name: str, latency: int, sync_interval: Optional[int] = None) -> None:
        if latency <= 0:
            raise ValueError("channel latency must be positive (deadlock freedom)")
        self.name = name
        self.latency = latency
        #: How stale the outgoing promise may become before a sync is due.
        self.sync_interval = sync_interval if sync_interval is not None else latency
        if self.sync_interval <= 0:
            raise ValueError("sync interval must be positive")

        self.owner: Optional["Component"] = None
        self.peer_name: str = ""
        #: peer *component* name (set when channels are wired; used for
        #: work-recorder message attribution and profiler edges)
        self.peer_comp_name: str = ""
        self.out_q = None  # type: ignore[assignment]
        self.in_q = None  # type: ignore[assignment]

        #: Whether the sync protocol is active on this end.  The coordinator's
        #: fast mode disables it (components never block) while preserving
        #: message latency semantics.
        self.synchronized = True

        #: what the owner's step reads: the peer's queue in process, a
        #: private queue :meth:`receive` fills over a ring, :data:`NO_INPUT`
        #: while unwired
        self.inbox = NO_INPUT
        #: where the step records each new promise: the queue to the peer in
        #: process, else a private record (a ring's :meth:`flush` works from
        #: ``_out_last_stamp``)
        self.outbox = FifoQueue()
        #: largest stamp sent or promised
        self._out_last_stamp = -1

        # Ring-transport state (active only over the shm rings, the one
        # transport with ``send_batch``; see :meth:`wire`).
        #: frames awaiting the next :meth:`flush` (``None`` in process); one
        #: list for as long as the end stays wired, so the runner can see
        #: that an end has nothing pending without a call
        self.out_batch: Optional[list] = None
        #: largest promise the peer has definitely received
        self._promise_published = -1
        #: marker frames sent (a ring's ``tx_syncs``)
        self._markers = 0
        #: pooled SyncMsg reused for every emitted marker on ring ends
        #: (the ring encodes at flush time, so mutating it later is safe)
        self._pool_sync: Optional[SyncMsg] = None

        # Profiler raw counters (monotonic totals).
        self.tx_msgs = 0
        self.rx_msgs = 0
        self.rx_syncs = 0
        self.tx_bytes = 0
        self.wait_polls = 0  # polls made while blocked on this end
        self.wait_cycles = 0  # host cycles (real or modeled) blocked

    @property
    def tx_syncs(self) -> int:
        """Sync promises sent: in process every one the step stored on the
        peer's queue, over a ring every marker frame."""
        box = self.outbox
        return box.syncs if box is self.out_q else self._markers

    # -- wiring -----------------------------------------------------------

    def wire(self, out_q, in_q, peer_name: str) -> None:
        """Attach transport queues; called by :func:`connect` or the runner."""
        self.out_q = out_q
        self.in_q = in_q
        self.peer_name = peer_name
        self.inbox = in_q if isinstance(in_q, FifoQueue) else FifoQueue()
        self.outbox = out_q if isinstance(out_q, FifoQueue) else FifoQueue()
        self.out_batch = [] if hasattr(out_q, "send_batch") else None

    # -- sending ----------------------------------------------------------

    def send(self, msg: Msg, now: int) -> None:
        """Send a data message; it is delivered ``latency`` later at the peer."""
        stamp = now + self.latency
        if stamp < self._out_last_stamp:
            raise AssertionError(
                f"{self.name}: non-monotonic stamp {stamp} after {self._out_last_stamp}"
            )
        if self.out_q is None:
            raise RuntimeError(f"channel end {self.name} is not wired")
        msg.stamp = stamp
        if self.synchronized:
            # fast mode (synchronized=False) orders deliveries by its shared
            # queue and skips the counter bump on its per-message hot path
            msg.seq = next(_send_seq)
        self._out_last_stamp = stamp
        rec = _FLOWS[0]
        if rec is not None and msg.flow:
            msg.hop = rec.next_hop(msg.flow)
            owner = self.owner
            rec.hop(msg.flow, "chsend",
                    owner.name if owner is not None else "?", now,
                    at=self.name, hop=msg.hop)
        self.tx_msgs += 1
        self.tx_bytes += wire_size_of(msg)
        batch = self.out_batch
        if batch is None:
            self.out_q.push(msg)
        else:
            batch.append(msg)

    def flush(self, blocked: bool = False) -> bool:
        """Publish batched frames and the step's promise to the ring; return
        whether a full ring kept some.

        The ring's publish rule.  The promise (the largest stamp sent or
        promised) rides the batch's last frame.  An idle end defers it
        until it is a full ``sync_interval`` past the published one, then
        sends a marker frame; ``blocked=True`` means the owner is about to
        block (or has finished), and any deferred promise goes out at once
        so the peer can keep advancing — this is what keeps the
        conservative protocol deadlock-free under sync coalescing.  A
        no-op in process, where the step stored the promise on the queue.
        One ``send_batch`` attempt: the unsent tail stays in
        :attr:`out_batch` for the next flush, which sends the promise.
        """
        batch = self.out_batch
        if batch is None:
            return False
        promise = self._out_last_stamp
        if not batch:
            ahead = promise - self._promise_published
            if ahead < self.sync_interval and not (blocked and ahead > 0):
                return False
            self._markers += 1
            msg = self._pool_sync
            if msg is None:
                msg = self._pool_sync = SyncMsg()
            msg.stamp = promise
            batch.append(msg)
        sent = self.out_q.send_batch(batch, promise)
        if sent < len(batch):
            del batch[:sent]  # ring full: the tail waits for the next flush
            return True
        self._promise_published = promise
        batch.clear()
        return False

    # -- receiving --------------------------------------------------------

    def receive(self) -> None:
        """Drain the ring into :attr:`inbox` (ring ends only): data onto
        its deque, one ``syncs`` per marker frame, and every stamp and
        piggybacked promise raises its ``promise``.  One cursor read/store
        covers the whole drain."""
        box = self.inbox
        hz = box.promise
        for msg, promise in self.in_q.recv_batch():
            if msg.stamp > hz:
                hz = msg.stamp
            if promise > hz:
                hz = promise
            if isinstance(msg, SyncMsg):
                box.syncs += 1
            else:
                box._q.append(msg)
        box.promise = hz

    # -- profiler ---------------------------------------------------------

    def note_wait(self, cycles: int) -> None:
        """Record host cycles spent blocked waiting on this end."""
        self.wait_polls += 1
        self.wait_cycles += cycles

    def counters(self) -> dict:
        """Snapshot of the raw profiler counters."""
        return {
            "tx_msgs": self.tx_msgs,
            "rx_msgs": self.rx_msgs,
            "tx_syncs": self.tx_syncs,
            "rx_syncs": self.rx_syncs,
            "tx_bytes": self.tx_bytes,
            "wait_polls": self.wait_polls,
            "wait_cycles": self.wait_cycles,
        }


def connect(end_a: ChannelEnd, end_b: ChannelEnd,
            queue_factory: Callable[[], object] = FifoQueue) -> None:
    """Wire two channel ends together with a fresh pair of directed queues."""
    q_ab = queue_factory()
    q_ba = queue_factory()
    end_a.wire(out_q=q_ab, in_q=q_ba, peer_name=end_b.name)
    end_b.wire(out_q=q_ba, in_q=q_ab, peer_name=end_a.name)
