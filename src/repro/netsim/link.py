"""Ports and links: serialization, propagation, and egress queueing.

A :class:`Link` joins two ports with a pair of independent
:class:`LinkDirection` objects.  Each direction owns its egress queue
(:mod:`repro.netsim.queues`) and models store-and-forward transmission:
serialization at the configured bandwidth followed by propagation latency.
Per packet that is one event at serialization end (``_tx_done``), which
schedules the receiving node's ``receive(pkt, rx_port)`` itself as the
delivery event, then starts the next queued packet or marks the line idle.
A packet that finds its line idle never waits in the queue:
:meth:`LinkDirection.transmit` does the empty queue's enqueue + dequeue
accounting in one :meth:`~repro.netsim.queues.DropTailQueue.pass_through`
call and starts serialization at once.  Only a packet that finds the line
busy is queued, to be started by ``_tx_next`` when the line frees.

External links (:class:`ExternalLink`) carry packets out of this network
partition — to another partition or to a detailed NIC simulator — via a
SplitSim channel.  They model serialization locally and leave propagation to
the channel latency, so a partitioned topology has exactly the same timing
as the unpartitioned one.

**Batched fast path** (:meth:`LinkDirection.enable_batching`): the
per-packet path costs three kernel events per switch-bound crossing
(serialization done, delivery, switch process).  The batched path instead
computes each packet's serialization slot *at enqueue time* — the line
keeps a busy horizon that every accepted packet extends — and schedules
only the delivery event, fused with the switch lookup when the receiver is
a plain store-and-forward switch (the way FireSim's switch turns a run of
back-to-back flits into single units of work).  Idleness is detected by
comparing ``now`` against the busy horizon, so there is no per-packet or
per-run completion event at all.  Packets stay accounted in the egress
queue until their serialization start has passed
(:meth:`LinkDirection._settle`), so concurrent enqueues observe the same
instantaneous occupancy — ECN marks and capacity drops are preserved
bit-for-bit against the per-packet path.  Likewise a packet enters
``tx_packets`` / ``tx_bytes`` only once its serialization has ended, as on
the per-packet path, not when its slot is assigned
(:meth:`LinkDirection.count_sent`).  Off by default; enabled per
direction via :class:`~repro.netsim.fidelity.FidelityConfig`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, TYPE_CHECKING

from ..kernel.simtime import SEC
from ..obs.flows import _ACTIVE as _FLOWS
from ..parallel.costmodel import BATCH_PKT_CYCLES
from .packet import Packet
from .queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover
    from .network import NetworkSim
    from .node import Node


class Port:
    """An attachment point on a node; sends via its bound egress direction."""

    def __init__(self, node: "Node", index: int) -> None:
        self.node = node
        self.index = index
        self.egress: Optional[LinkDirection] = None
        self.peer: Optional[Port] = None  # None for external links

    def send(self, pkt: Packet) -> None:
        """Transmit out this port via its bound egress direction."""
        if self.egress is None:
            raise RuntimeError(f"{self.node.name} port {self.index}: not linked")
        self.egress.transmit(pkt)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Port {self.node.name}[{self.index}]>"


class LinkDirection:
    """One direction of a link: egress queue -> serialization -> propagation."""

    def __init__(self, net: "NetworkSim", bandwidth_bps: float, latency_ps: int,
                 queue: DropTailQueue, rx_port: Optional[Port] = None,
                 send_fn: Optional[Callable[[Packet], None]] = None,
                 label: str = "") -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.net = net
        self.bandwidth_bps = bandwidth_bps
        self.latency_ps = latency_ps
        self.queue = queue
        #: receiving port; ``None`` on an external direction, which hands
        #: each packet to ``send_fn`` when its serialization ends
        self.rx_port = rx_port
        self.send_fn = send_fn
        self.busy = False
        # hot-path cache: integer bandwidth for the inline ceil-division
        # (identical math to simtime.bits_time)
        self._bw_int = int(bandwidth_bps)
        #: Optional hook invoked when a packet starts serialization
        #: (used by PTP transparent clocks to record residence time).
        self.on_tx_start: Optional[Callable[[Packet, int], None]] = None
        self.tx_packets = 0
        self.tx_bytes = 0
        #: direction label for observability tracks ("src->dst")
        self.label = label
        #: ``None`` (tracing off; one pointer test per packet) or a
        #: ``(Tracer, tid)`` pair — emits busy-period spans and sampled
        #: queue-depth counter tracks.
        self.obs: Optional[tuple] = None
        self._busy_since = 0
        self._busy_pkts = 0
        #: Batched fast path (off by default; see module docstring).
        self.batched = False
        #: Pending ``(ser_start_ps, pkt)`` entries: packets already assigned
        #: a serialization slot (delivery scheduled) but still accounted in
        #: the egress queue until their serialization start passes.
        self._run: deque = deque()
        #: ``(ser_end_ps, nbytes)`` of assigned packets not yet counted in
        #: ``tx_packets`` / ``tx_bytes``: like the per-packet path, a packet
        #: counts once its serialization has ended (:meth:`count_sent`).
        self._sending: deque = deque()
        #: picosecond at which the line goes idle (end of the last assigned
        #: packet's serialization); the batched path's busy test.
        self._run_end = 0
        #: ``(switch, rx_port, proc_delay_ps)`` when the receive side is a
        #: plain store-and-forward switch whose rx+process events can be
        #: fused into the delivery event; ``None`` otherwise.
        self._fused: Optional[tuple] = None
        #: receiving :class:`~.node.NetHost` with zero rx processing delay —
        #: its stack entry can be invoked straight from the delivery event
        self._rx_host = None
        #: precomputed delivery offsets from serialization end
        self._lat = latency_ps
        self._lat_fused = latency_ps
        self._period_pkts = 0
        #: busy periods / packets assigned / longest busy period, in packets
        self.batch_runs = 0
        self.batch_pkts = 0
        self.batch_max_run = 0

    def enable_batching(self) -> None:
        """Switch this direction onto the batched drain fast path.

        When the receiving node is a non-pipelined :class:`~.switch.Switch`
        with a positive processing delay, the rx + process events are fused
        into the delivery event as well (one event per packet end to end).
        """
        from .node import NetHost  # runtime import: node.py imports link
        from .switch import Switch  # runtime import: switch.py imports link

        self.batched = True
        rx_port = self.rx_port
        node = rx_port.node if rx_port is not None else None
        self._fused = None
        self._rx_host = None
        if (isinstance(node, Switch) and node.pipeline is None
                and node.proc_delay_ps > 0):
            self._fused = (node, rx_port, node.proc_delay_ps)
            self._lat_fused = self.latency_ps + node.proc_delay_ps
        elif isinstance(node, NetHost) and node.rx_proc_delay_ps == 0:
            self._rx_host = node

    def transmit(self, pkt: Packet) -> None:
        """Entry point: start the packet on an idle line, or queue it."""
        if self._run:
            self._settle(self.net.now)
        batched = self.batched and self.on_tx_start is None
        if not (self.busy or batched):
            # idle line: straight onto the wire.  One queue call does the
            # empty queue's enqueue + dequeue accounting; what follows is
            # ``_tx_next`` for a head that never waited.
            if not self.queue.pass_through(pkt):
                self._drop(pkt)
                return
            net = self.net
            now = net.now
            self.busy = True
            if self.obs is not None:
                self._busy_since = now
                self._busy_pkts = self.tx_packets
            rec = _FLOWS[0]
            if rec is not None and pkt.flow:
                rec.hop(pkt.flow, "enq", net.name, now, at=self.label)
                rec.hop(pkt.flow, "deq", net.name, now, at=self.label)
            if self.on_tx_start is not None:
                self.on_tx_start(pkt, now)
            net._schedule_at(net, now + -(-pkt.size_bits * SEC // self._bw_int),
                             self._tx_done, pkt)
            return
        if not self.queue.enqueue(pkt):
            self._drop(pkt)
            return
        rec = _FLOWS[0]
        if rec is not None and pkt.flow:
            rec.hop(pkt.flow, "enq", self.net.name, self.net.now,
                    at=self.label)
        if batched:
            self._assign(pkt, rec)

    def _drop(self, pkt: Packet) -> None:
        """Record a packet the egress queue refused (it counted the drop)."""
        obs = self.obs
        if obs is not None:
            tracer, tid = obs
            tracer.instant(tid, "netsim", f"drop|{self.label}",
                           self.net.now / 1_000_000,
                           {"dropped": self.queue.stats.dropped})
        rec = _FLOWS[0]
        if rec is not None and pkt.flow:
            rec.hop(pkt.flow, "drop", self.net.name, self.net.now,
                    at=self.label)

    def _tx_next(self) -> None:
        """Start serializing the head of the (non-empty) egress queue."""
        pkt = self.queue.dequeue()
        self.busy = True
        net = self.net
        rec = _FLOWS[0]
        if rec is not None and pkt.flow:
            rec.hop(pkt.flow, "deq", net.name, net.now, at=self.label)
        if self.on_tx_start is not None:
            self.on_tx_start(pkt, net.now)
        serialization = -(-pkt.size_bits * SEC // self._bw_int)
        # direct queue insert (delays are non-negative by construction);
        # _schedule_at is read through ``net`` so a queue swap stays visible
        net._schedule_at(net, net.now + serialization, self._tx_done, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        self.tx_packets += 1
        self.tx_bytes += pkt.size_bytes
        pkt.hops += 1
        obs = self.obs
        if obs is not None and not self.tx_packets & 63:
            # periodic in-busy-period depth sample (every 64th packet)
            tracer, tid = obs
            queue = self.queue
            tracer.counter(tid, "netsim", f"q|{self.label}",
                           self.net.now / 1_000_000,
                           {"depth_pkts": len(queue),
                            "depth_bytes": queue.bytes_queued,
                            "dropped": queue.stats.dropped,
                            "ecn_marked": queue.stats.ecn_marked})
        rec = _FLOWS[0]
        if rec is not None and pkt.flow:
            rec.hop(pkt.flow, "txdone", self.net.name, self.net.now,
                    at=self.label)
        rx = self.rx_port
        if rx is None:
            self.send_fn(pkt)
        elif self.latency_ps > 0:
            net = self.net
            net._schedule_at(net, net.now + self.latency_ps, rx.node.receive,
                             pkt, rx)
        else:
            rx.node.receive(pkt, rx)
        queue = self.queue
        if queue._q:  # the deque itself: ``len(queue)`` would add a frame
            self._tx_next()
            return
        self.busy = False
        if obs is not None:
            tracer, tid = obs
            now = self.net.now
            start_us = self._busy_since / 1_000_000
            tracer.span(tid, "netsim", f"busy|{self.label}", start_us,
                        now / 1_000_000 - start_us,
                        {"pkts": self.tx_packets - self._busy_pkts})
            tracer.counter(tid, "netsim", f"q|{self.label}", now / 1_000_000,
                           {"depth_pkts": len(queue),
                            "depth_bytes": queue.bytes_queued,
                            "dropped": queue.stats.dropped,
                            "ecn_marked": queue.stats.ecn_marked})

    # ------------------------------------------------------------------
    # batched fast path
    # ------------------------------------------------------------------

    def _settle(self, now: int) -> None:
        """Dequeue assigned entries whose serialization has started by ``now``.

        Keeps the egress queue's instantaneous occupancy identical to the
        per-packet path, where the head is dequeued the moment it starts
        serializing.  Also detects the idle transition (busy horizon
        passed), closing the busy period for observability/cost accounting
        and resuming the per-packet chain for any packets that were
        enqueued outside the batched path (e.g. after a PTP transparent
        clock installed its tx-start hook on this direction).
        """
        run = self._run
        queue = self.queue
        while run and run[0][0] <= now:
            run.popleft()
            queue.dequeue()
        if self._sending:
            self.count_sent(now)
        if not run and self.busy and now >= self._run_end:
            self._close_period()
            if len(queue):
                # unassigned packets (per-packet path took over mid-period)
                self._tx_next()

    def count_sent(self, now: int) -> None:
        """Batched path: count the packets whose serialization has ended by
        ``now`` into ``tx_packets`` / ``tx_bytes``.

        Delivery events settle this as they go; readers of the counters
        (:meth:`NetworkSim.total_tx_packets`, the metrics registry) call it
        for the packets still on the wire at the end of a run.
        """
        sending = self._sending
        while sending and sending[0][0] <= now:
            self.tx_bytes += sending.popleft()[1]
            self.tx_packets += 1

    def _close_period(self) -> None:
        """Flush one finished busy period (cost model + counters + obs).

        Per-period batch counters are folded in here rather than per packet,
        so the assignment hot path stays minimal;
        :meth:`NetworkSim.batch_stats` accounts for the open period.
        """
        self.busy = False
        pkts = self._period_pkts
        self.batch_pkts += pkts
        if pkts > self.batch_max_run:
            self.batch_max_run = pkts
        self.net.add_work(BATCH_PKT_CYCLES * pkts)
        obs = self.obs
        if obs is not None:
            tracer, tid = obs
            queue = self.queue
            start_us = self._busy_since / 1_000_000
            tracer.span(tid, "netsim", f"busy|{self.label}", start_us,
                        self._run_end / 1_000_000 - start_us,
                        {"pkts": self._period_pkts})
            if not self.batch_runs & 63:
                tracer.counter(tid, "netsim", f"batch|{self.label}",
                               self.net.now / 1_000_000,
                               {"runs": self.batch_runs,
                                "packets": self.batch_pkts,
                                "depth_pkts": len(queue),
                                "dropped": queue.stats.dropped,
                                "ecn_marked": queue.stats.ecn_marked})

    def _assign(self, pkt: Packet, rec=None) -> None:
        """Give an accepted packet its serialization slot and delivery event.

        The slot starts at the busy horizon (or now, when idle) — exactly
        where the per-packet ``_tx_next`` chain would have started it — and
        the only kernel event the packet costs on this hop is its delivery,
        scheduled here at the exact per-packet timestamp.
        """
        net = self.net
        now = net.now
        start = self._run_end
        if start > now:
            # line busy into the future: the packet waits in the queue
            self._run.append((start, pkt))
        elif self.busy and start == now:
            # exact back-to-back arrival: the line never went idle, so the
            # busy period continues and serialization starts immediately
            # (the per-packet path dequeues the head inline at tx start)
            self.queue.dequeue()
        else:
            if self.busy:
                # previous period ended between its last delivery and now
                self._close_period()
            # idle line: serialization starts immediately
            start = now
            self.queue.dequeue()
            self.busy = True
            self._busy_since = now
            self.batch_runs += 1
            self._period_pkts = 0
        end = start + -(-pkt.size_bits * SEC // self._bw_int)
        self._run_end = end
        self._sending.append((end, pkt.size_bytes))
        self._period_pkts += 1
        pkt.hops += 1
        if rec is not None and pkt.flow:
            rec.hop(pkt.flow, "deq", net.name, start, at=self.label)
            rec.hop(pkt.flow, "txdone", net.name, end, at=self.label)
        if self._fused is not None:
            net._schedule_at(net, end + self._lat_fused,
                             self._deliver_fused, pkt, end + self._lat)
        elif self._rx_host is not None:
            net._schedule_at(net, end + self._lat, self._deliver_host, pkt)
        else:
            net._schedule_at(net, end + self._lat, self._deliver_one, pkt)

    def _deliver_one(self, pkt: Packet) -> None:
        """Delivery event for a batched packet (non-fused receive side)."""
        self._settle(self.net.now)
        rx = self.rx_port
        if rx is None:
            self.send_fn(pkt)
        else:
            rx.node.receive(pkt, rx)

    def _deliver_host(self, pkt: Packet) -> None:
        """Delivery event fused with a zero-rx-delay protocol host's stack.

        Skips ``NetHost.receive``; ``_handle_packet`` is read at fire time
        so per-delivery instrumentation (the packet-digest tap) intercepts.
        """
        self._settle(self.net.now)
        self._rx_host._handle_packet(pkt)

    def _deliver_fused(self, pkt: Packet, arrival_ts: int) -> None:
        """Fused rx + switch-process event for a batched packet.

        Replaces the unbatched chain of a delivery event into
        ``Switch.receive`` plus a ``_process`` event ``proc_delay_ps``
        later: this single event fires at the process time and performs
        both, with ``arrival_ts`` carrying the true wire arrival.
        """
        self._settle(self.net.now)
        switch = self._fused[0]
        switch.rx_packets += 1
        pkt.arrival_ts = arrival_ts
        switch.forward(pkt)


class Link:
    """A bidirectional link between two ports."""

    def __init__(self, net: "NetworkSim", port_a: Port, port_b: Port,
                 bandwidth_bps: float, latency_ps: int,
                 queue_a: DropTailQueue, queue_b: DropTailQueue) -> None:
        self.port_a = port_a
        self.port_b = port_b
        self.dir_ab = LinkDirection(
            net, bandwidth_bps, latency_ps, queue_a, port_b,
            label=f"{port_a.node.name}->{port_b.node.name}")
        self.dir_ba = LinkDirection(
            net, bandwidth_bps, latency_ps, queue_b, port_a,
            label=f"{port_b.node.name}->{port_a.node.name}")
        port_a.egress = self.dir_ab
        port_b.egress = self.dir_ba
        port_a.peer = port_b
        port_b.peer = port_a


class ExternalLink:
    """Egress direction leaving this partition over a SplitSim channel.

    ``send_fn(pkt)`` is invoked once serialization completes; channel latency
    supplies the propagation delay.  The reverse direction is handled by
    :meth:`NetworkSim.inject`.
    """

    def __init__(self, net: "NetworkSim", port: Port, bandwidth_bps: float,
                 queue: DropTailQueue, send_fn: Callable[[Packet], None]) -> None:
        self.direction = LinkDirection(net, bandwidth_bps, 0, queue,
                                       send_fn=send_fn,
                                       label=f"{port.node.name}->ext")
        port.egress = self.direction
        port.peer = None
        self.port = port
