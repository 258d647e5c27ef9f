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

Two transports implement the directed queues:

* :class:`FifoQueue` — an in-process deque, used by the cooperative
  coordinator's strict mode.  The promise travels as an integer field of
  the queue; no message object is built for it.
* the shared-memory ring in :mod:`repro.parallel.shm_ring` — used when each
  component runs as a real OS process.  Sends collect in a batch that
  :meth:`ChannelEnd.flush` publishes with one cursor store; the promise
  rides every frame header, and an idle sender emits pooled
  :class:`~repro.channels.messages.SyncMsg` marker frames.

Channel ends also maintain the profiler's raw counters (messages and cycles
spent waiting / sending / receiving); see :mod:`repro.profiler`.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Callable, Iterable, Optional, TYPE_CHECKING

from .messages import Msg, SyncMsg, wire_size_of
from ..kernel.simtime import TIME_INFINITY
from ..obs.flows import _ACTIVE as _FLOWS

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.component import Component

#: Process-global send order for data messages on synchronized ends.  A
#: receiver with several input channels can see equal delivery stamps from
#: different channels in one poll round; ``Msg.seq`` lets it dispatch them in
#: send order — the order the fast-mode shared queue would have used — instead
#: of channel attach order.
_send_seq = count(1)

class FifoQueue:
    """In-process directed message queue (single producer, single consumer).

    Besides data messages it carries the sender's latest sync ``promise``
    and the number of promises published since the receiver last polled
    (``syncs``) — the in-process mirror of the promise field in the shm
    ring's frame header.  The receiver folds both in at its next poll:
    its owner's step (``Component.advance``), which reads and writes these
    fields inline, or :meth:`ChannelEnd.poll`.
    """

    __slots__ = ("_q", "promise", "syncs")

    def __init__(self) -> None:
        self._q: deque[Msg] = deque()
        self.promise = 0
        self.syncs = 0

    def push(self, msg: Msg) -> bool:
        """Append a message (always succeeds in-process)."""
        self._q.append(msg)
        return True


class ChannelEnd:
    """One endpoint of a SplitSim channel, owned by a component simulator.

    The owning component calls :meth:`send` from its event handlers,
    :meth:`poll` to drain incoming messages, :meth:`horizon` to bound how far
    it may advance, and :meth:`maybe_sync` after advancing to keep its peer
    unblocked.  For a synchronized end wired to a :class:`FifoQueue` the
    owner's step (``Component.advance``) does the in-process branches of
    :meth:`poll` and :meth:`maybe_sync` inline, without the calls; ring and
    unwired ends go through the methods.  ``tests/test_sync_step.py`` and
    ``tests/test_properties_sync.py`` hold the inline copy equal to them.
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

        # Sync state.
        self._out_last_stamp = -1
        self._in_horizon = 0

        #: the in-process transport queues, ``None`` over any other transport
        self._out_fifo: Optional[FifoQueue] = None
        self._in_fifo: Optional[FifoQueue] = None

        # Ring-transport state (active only over the shm rings, the one
        # transport with ``send_batch``; see :meth:`wire`).
        #: frames awaiting the next :meth:`flush` (``None`` in process); one
        #: list for as long as the end stays wired, so the runner can see
        #: that an end has nothing pending without a call
        self.out_batch: Optional[list] = None
        #: promise to piggyback on the next flushed data frame
        self._flush_promise = 0
        #: largest promise the peer has definitely received
        self._promise_published = -1
        #: pooled SyncMsg reused for every emitted marker on ring ends
        #: (the ring encodes at flush time, so mutating it later is safe)
        self._pool_sync: Optional[SyncMsg] = None

        # Profiler raw counters (monotonic totals).
        self.tx_msgs = 0
        self.rx_msgs = 0
        self.tx_syncs = 0
        self.rx_syncs = 0
        self.tx_bytes = 0
        self.wait_polls = 0  # polls made while blocked on this end
        self.wait_cycles = 0  # host cycles (real or modeled) blocked

    # -- wiring -----------------------------------------------------------

    def wire(self, out_q, in_q, peer_name: str) -> None:
        """Attach transport queues; called by :func:`connect` or the runner."""
        self.out_q = out_q
        self.in_q = in_q
        self.peer_name = peer_name
        self._out_fifo = out_q if isinstance(out_q, FifoQueue) else None
        self._in_fifo = in_q if isinstance(in_q, FifoQueue) else None
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

    def maybe_sync(self, commit: int) -> None:
        """Publish a sync promise if the outgoing one has gone stale.

        ``commit`` is the sender's guaranteed lower bound on any future send
        time; the promise covers delivery stamps ``>= commit + latency``.
        In process the stamp is stored on the queue, visible to the peer at
        its next poll.  Over a ring the promise piggybacks on pending data
        frames when there are any; when the sender is idle, the promise is
        deferred until it is a full ``sync_interval`` ahead of the published
        one or the owner is about to block (:meth:`flush` with
        ``blocked=True``).
        """
        if not self.synchronized or self.out_q is None:
            return
        stamp = commit + self.latency
        if stamp <= self._out_last_stamp:
            return
        self._out_last_stamp = stamp
        fifo = self._out_fifo
        if fifo is not None:
            self.tx_syncs += 1
            fifo.promise = stamp
            fifo.syncs += 1
            return
        if self.out_batch:
            self._flush_promise = stamp  # rides the data frames for free
            return
        if stamp - self._promise_published < self.sync_interval:
            return  # deferred; _out_last_stamp remembers the pending promise
        self._emit_sync(stamp)

    def _emit_sync(self, stamp: int) -> None:
        """Queue a pooled sync marker."""
        self.tx_syncs += 1
        msg = self._pool_sync
        if msg is None:
            msg = self._pool_sync = SyncMsg()
        msg.stamp = stamp
        msg.seq = 0
        self.out_batch.append(msg)

    def flush(self, blocked: bool = False) -> bool:
        """Publish batched frames (and any deferred promise) to the ring;
        return whether a full ring kept some.

        A no-op in process, where :meth:`send` and :meth:`maybe_sync` act
        on the queue directly.  ``blocked=True`` means the owner is about to
        block (or has finished): any deferred promise is force-published so
        the peer can keep advancing — this is what keeps the conservative
        protocol deadlock-free under sync coalescing.  One ``send_batch``
        attempt: the unsent tail stays in :attr:`out_batch`, with the
        promise it carries, for the next flush.
        """
        batch = self.out_batch
        if batch is None:
            return False
        if not batch:
            if blocked and self._out_last_stamp > self._promise_published:
                self._emit_sync(self._out_last_stamp)
            else:
                return False
        promise = self._flush_promise
        sent = self.out_q.send_batch(batch, promise)
        if sent < len(batch):
            del batch[:sent]  # ring full: the tail waits for the next flush
            return True
        published = batch[-1].stamp
        if promise > published:
            published = promise
        if published > self._promise_published:
            self._promise_published = published
        batch.clear()
        self._flush_promise = 0
        return False

    # -- receiving --------------------------------------------------------

    def poll(self) -> Iterable[Msg]:
        """Drain the input queue, returning data messages in stamp order.

        Sync markers and promises only raise the input horizon and are
        consumed here.
        """
        fifo = self._in_fifo
        if fifo is not None:
            out = ()
            if fifo._q:
                out = list(fifo._q)
                fifo._q.clear()
                self.rx_msgs += len(out)
                if out[-1].stamp > self._in_horizon:
                    self._in_horizon = out[-1].stamp
            # after the data: a promise becomes visible at this poll, never
            # between two polls
            if fifo.syncs:
                self.rx_syncs += fifo.syncs
                fifo.syncs = 0
                if fifo.promise > self._in_horizon:
                    self._in_horizon = fifo.promise
            return out
        if self.in_q is None:
            return ()  # not wired (yet): no input
        # one cursor read/store covers the whole drain; piggybacked promises
        # raise the horizon exactly like sync markers do
        out = []
        hz = self._in_horizon
        for msg, promise in self.in_q.recv_batch():
            if msg.stamp > hz:
                hz = msg.stamp
            if promise > hz:
                hz = promise
            if isinstance(msg, SyncMsg):
                self.rx_syncs += 1
            else:
                self.rx_msgs += 1
                out.append(msg)
        self._in_horizon = hz
        return out

    def horizon(self) -> int:
        """Largest simulated time this end permits its owner to advance *to*.

        The owner may execute events strictly before this value.
        """
        if not self.synchronized or self.in_q is None:
            return TIME_INFINITY
        return self._in_horizon

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
