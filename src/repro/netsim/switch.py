"""Output-queued switches with pluggable in-network processing pipelines.

The forwarding table maps destination address to one or more output ports
(multiple ports = ECMP; the flow 5-tuple hash picks one deterministically).
A pipeline hook sees every packet before forwarding and may consume it,
rewrite it, or emit replies — this is how NetCache, Pegasus, and the PTP
transparent clock are implemented (:mod:`repro.netsim.inp`,
:mod:`repro.netsim.ptp_tc`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Protocol, TYPE_CHECKING

from ..kernel.simtime import NS
from .link import LinkDirection, Port
from .node import Node
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .network import NetworkSim

#: Default switch forwarding latency (lookup + crossbar).
DEFAULT_PROC_DELAY_PS = 300 * NS


class Pipeline(Protocol):
    """In-network processing hook."""

    def process(self, switch: "Switch", pkt: Packet,
                in_port: Optional[Port]) -> Optional[Iterable[Packet]]:
        """Handle a packet; return packets to forward (or ``None`` if consumed).

        Returning ``[pkt]`` unchanged forwards normally.
        """


class Switch(Node):
    """An output-queued L2/L3 switch.

    Per packet, :meth:`receive` schedules one event ``proc_delay_ps`` after
    arrival: :meth:`forward` itself, or ``_process`` when a pipeline is
    attached (read per packet: topologies attach it after construction).
    ``forward`` hands the packet to the egress direction ``_route_cache``
    holds for its destination, filled from single-port FIB entries only.
    """

    def __init__(self, net: "NetworkSim", name: str,
                 proc_delay_ps: int = DEFAULT_PROC_DELAY_PS,
                 pipeline: Optional[Pipeline] = None) -> None:
        super().__init__(net, name)
        self.proc_delay_ps = proc_delay_ps
        self.pipeline = pipeline
        #: destination address -> candidate output ports (ECMP set)
        self.fib: Dict[int, List[Port]] = {}
        #: ``dst -> egress`` for single-port FIB entries (ECMP destinations
        #: never: the per-packet flow hash must run); flushed by
        #: :meth:`add_route` / :meth:`invalidate_routes`
        self._route_cache: Dict[int, LinkDirection] = {}
        self.rx_packets = 0
        self.tx_packets = 0
        self.no_route_drops = 0

    # -- configuration -------------------------------------------------------

    def add_route(self, dst_addr: int, port: Port) -> None:
        """Add a (possibly ECMP) next-hop port for a destination."""
        self.fib.setdefault(dst_addr, [])
        if port not in self.fib[dst_addr]:
            self.fib[dst_addr].append(port)
        self._route_cache.pop(dst_addr, None)

    def invalidate_routes(self) -> None:
        """Drop all cached route decisions (topology changed)."""
        self._route_cache.clear()

    # -- datapath --------------------------------------------------------------

    def receive(self, pkt: Packet, port: Optional[Port]) -> None:
        """Ingress: note arrival, run the pipeline after the lookup delay."""
        self.rx_packets += 1
        net = self.net
        pkt.arrival_ts = now = net.now
        delay = self.proc_delay_ps
        if delay > 0:
            # direct queue insert; _schedule_at is read through ``net`` so
            # the fast-mode queue swap stays visible
            if self.pipeline is None:
                net._schedule_at(net, now + delay, self.forward, pkt)
            else:
                net._schedule_at(net, now + delay, self._process, pkt, port)
        else:
            self._process(pkt, port)

    def _process(self, pkt: Packet, in_port: Optional[Port]) -> None:
        if self.pipeline is not None:
            out = self.pipeline.process(self, pkt, in_port)
            if out is None:
                return
            for p in out:
                self.forward(p)
        else:
            self.forward(pkt)

    def forward(self, pkt: Packet) -> None:
        """Send a packet out the FIB-selected port for its destination."""
        egress = self._route_cache.get(pkt.dst)
        if egress is None:
            ports = self.fib.get(pkt.dst)
            if not ports:
                self.no_route_drops += 1
                return
            n = len(ports)
            # ECMP: the per-packet flow hash must run, so only a single
            # next hop is cached
            port = ports[hash(pkt.flow_key()) % n] if n > 1 else ports[0]
            egress = port.egress
            if egress is None:
                port.send(pkt)  # raises: not linked
            if n == 1:
                self._route_cache[pkt.dst] = egress
        self.tx_packets += 1
        egress.transmit(pkt)

    def send_from_switch(self, pkt: Packet) -> None:
        """Emit a switch-originated packet (e.g. a NetCache cache hit reply)."""
        pkt.arrival_ts = self.net.now
        self.forward(pkt)
