"""Egress queue disciplines for links and switch ports.

The default is a byte-capacity drop-tail FIFO with optional DCTCP-style ECN
marking: when the instantaneous queue occupancy at enqueue time is at or
above the marking threshold ``ecn_threshold_pkts``, the CE codepoint is set
on ECN-capable packets.  This is the knob swept in the congestion-control
case study (Fig. 6).  A classic RED variant (probabilistic marking/dropping
on the EWMA queue length) is also provided, as in ns-3.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Optional

from ..record import Record
from .packet import Packet


class QueueStats(Record):
    """Counters every queue keeps; read by tests and experiments."""

    def __init__(self, enqueued: int = 0, dequeued: int = 0,
                 dropped: int = 0, ecn_marked: int = 0,
                 max_depth_pkts: int = 0, max_depth_bytes: int = 0) -> None:
        self.enqueued = enqueued
        self.dequeued = dequeued
        self.dropped = dropped
        self.ecn_marked = ecn_marked
        self.max_depth_pkts = max_depth_pkts
        self.max_depth_bytes = max_depth_bytes


class DropTailQueue:
    """Byte-bounded FIFO with optional ECN marking at enqueue.

    Parameters
    ----------
    capacity_bytes:
        Maximum total queued bytes; further packets are dropped.
    ecn_threshold_pkts:
        DCTCP marking threshold K in packets, or ``None`` to disable
        marking.  Marking is applied at enqueue time against the
        instantaneous queue depth, matching DCTCP's specification.
    """

    def __init__(self, capacity_bytes: int = 512 * 1024,
                 ecn_threshold_pkts: Optional[int] = None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_pkts = ecn_threshold_pkts
        self._q: deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._q)

    @property
    def bytes_queued(self) -> int:
        """Current total queued bytes."""
        return self._bytes

    def enqueue(self, pkt: Packet) -> bool:
        """Add a packet; returns ``False`` (and counts a drop) when full."""
        stats = self.stats
        nbytes = self._bytes + pkt.size_bytes
        if nbytes > self.capacity_bytes:
            stats.dropped += 1
            return False
        q = self._q
        depth = len(q)
        if (self.ecn_threshold_pkts is not None and pkt.ect
                and depth >= self.ecn_threshold_pkts):
            pkt.ce = True
            stats.ecn_marked += 1
        q.append(pkt)
        self._bytes = nbytes
        stats.enqueued += 1
        depth += 1
        if depth > stats.max_depth_pkts:
            stats.max_depth_pkts = depth
        if nbytes > stats.max_depth_bytes:
            stats.max_depth_bytes = nbytes
        return True

    def pass_through(self, pkt: Packet) -> bool:
        """:meth:`enqueue` then :meth:`dequeue` of ``pkt`` on an *empty*
        queue, in one call: the packet of an idle line.

        Same verdict and same :class:`QueueStats` as the pair: a drop when
        the packet alone exceeds the capacity, ECN marking against depth 0,
        one enqueued and one dequeued, max depths of at least one packet
        and its bytes.  A subclass whose :meth:`enqueue` does more
        overrides this with the pair (as :class:`RedQueue` does).
        """
        stats = self.stats
        nbytes = pkt.size_bytes
        if nbytes > self.capacity_bytes:
            stats.dropped += 1
            return False
        threshold = self.ecn_threshold_pkts
        if threshold is not None and threshold <= 0 and pkt.ect:
            pkt.ce = True
            stats.ecn_marked += 1
        stats.enqueued += 1
        stats.dequeued += 1
        if not stats.max_depth_pkts:
            stats.max_depth_pkts = 1
        if nbytes > stats.max_depth_bytes:
            stats.max_depth_bytes = nbytes
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head packet, or ``None`` if empty."""
        if not self._q:
            return None
        pkt = self._q.popleft()
        self._bytes -= pkt.size_bytes
        self.stats.dequeued += 1
        return pkt

    def peek(self) -> Optional[Packet]:
        """The head packet without removing it."""
        return self._q[0] if self._q else None


class RedQueue(DropTailQueue):
    """Random Early Detection on the EWMA queue depth (Floyd/Jacobson).

    Between ``min_th`` and ``max_th`` average packets, arriving packets are
    marked (ECN-capable) or dropped with probability rising linearly to
    ``max_p``; above ``max_th`` every packet is marked/dropped.  The EWMA
    weight follows ns-3's default (1/512 per packet arrival).
    """

    def __init__(self, capacity_bytes: int = 512 * 1024,
                 min_th: float = 5.0, max_th: float = 15.0,
                 max_p: float = 0.1, weight: float = 1.0 / 512.0,
                 ecn: bool = True, rng: Optional[random.Random] = None) -> None:
        super().__init__(capacity_bytes=capacity_bytes,
                         ecn_threshold_pkts=None)
        if not 0 < min_th < max_th:
            raise ValueError("need 0 < min_th < max_th")
        self.min_th = min_th
        self.max_th = max_th
        self.max_p = max_p
        self.weight = weight
        self.ecn = ecn
        self._rng = rng or random.Random(0)
        self.avg = 0.0
        self.red_marked = 0
        self.red_dropped = 0

    def enqueue(self, pkt: Packet) -> bool:
        """RED admission: mark/drop probabilistically on the EWMA depth."""
        self.avg += self.weight * (len(self) - self.avg)
        if self.avg >= self.max_th:
            action = True
        elif self.avg <= self.min_th:
            action = False
        else:
            p = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th)
            action = self._rng.random() < p
        if action:
            if self.ecn and pkt.ect:
                pkt.ce = True
                self.red_marked += 1
                self.stats.ecn_marked += 1
            else:
                self.red_dropped += 1
                self.stats.dropped += 1
                return False
        return super().enqueue(pkt)

    def pass_through(self, pkt: Packet) -> bool:
        """The generic pair: every arrival moves the EWMA and may draw."""
        if not self.enqueue(pkt):
            return False
        self.dequeue()
        return True
