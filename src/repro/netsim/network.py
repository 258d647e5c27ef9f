"""The network simulator component: one partition of packet-level network.

A :class:`NetworkSim` owns a set of nodes and links and executes their
events.  An unpartitioned simulation has exactly one ``NetworkSim``; a
partitioned one has several, bridged by trunk channels
(:mod:`repro.netsim.partition`).

Each event is modeled at ns-3's per-event host cost; the Fig. 8
comparison models OMNeT++'s heavier per-event cost by scaling the
recorded work (:func:`repro.parallel.model.scale_recorder`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..channels.messages import EthMsg
from ..kernel.component import Component
from ..kernel.rng import make_rng
from ..parallel.costmodel import NS3_EVENT_CYCLES
from .link import ExternalLink, Link, Port
from .node import NetHost, Node
from .packet import Packet
from .queues import DropTailQueue
from .switch import Switch


class ExternalAttachment:
    """Bridges one switch port to a SplitSim channel (or any callback).

    Outbound packets (network -> outside) are serialized on an
    :class:`~repro.netsim.link.ExternalLink` and then passed to ``send_fn``.
    Inbound packets are injected with :meth:`inject`.
    """

    def __init__(self, net: "NetworkSim", label: str, port: Port,
                 bandwidth_bps: float, queue: DropTailQueue) -> None:
        self.net = net
        self.label = label
        self.port = port
        self.send_fn: Optional[Callable[[Packet], None]] = None
        self.ext = ExternalLink(net, port, bandwidth_bps, queue, self._send)
        self.tx_packets = 0
        self.rx_packets = 0

    def _send(self, pkt: Packet) -> None:
        if self.send_fn is None:
            raise RuntimeError(f"external attachment {self.label}: no send_fn bound")
        self.tx_packets += 1
        self.send_fn(pkt)

    def bind_send(self, send_fn: Callable[[Packet], None]) -> None:
        """Set the callback that carries outbound packets off-partition."""
        self.send_fn = send_fn

    def inject(self, pkt: Packet) -> None:
        """Deliver a packet arriving from outside into the attached node."""
        self.rx_packets += 1
        self.port.node.receive(pkt, self.port)


class NetworkSim(Component):
    """A packet-level network simulator instance (one process/partition)."""

    cycles_per_event = NS3_EVENT_CYCLES

    def __init__(self, name: str, seed: int = 0) -> None:
        super().__init__(name)
        #: Root seed: per-host RNG streams derive from it by host name, so
        #: results do not depend on how the network is partitioned.
        self.seed_root = seed
        self.rng = make_rng(seed, name)
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self.externals: Dict[str, ExternalAttachment] = {}
        self.hosts_by_addr: Dict[int, NetHost] = {}
        #: :class:`~repro.netsim.fluid.FluidDomain` once the fluid fidelity
        #: tier is installed on this partition (``None`` = pure packet).
        self.fluid = None

    # -- topology assembly ----------------------------------------------------

    def add_host(self, name: str, addr: int, rx_proc_delay_ps: int = 0) -> NetHost:
        """Create a protocol-level host in this partition."""
        host = NetHost(self, name, addr, rx_proc_delay_ps)
        self._register(host)
        self.hosts_by_addr[addr] = host
        return host

    def add_switch(self, name: str, proc_delay_ps: Optional[int] = None,
                   pipeline=None) -> Switch:
        """Create a switch in this partition."""
        kwargs = {}
        if proc_delay_ps is not None:
            kwargs["proc_delay_ps"] = proc_delay_ps
        switch = Switch(self, name, pipeline=pipeline, **kwargs)
        self._register(switch)
        return switch

    def _register(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node

    def add_link(self, node_a: Node, node_b: Node, bandwidth_bps: float,
                 latency_ps: int, queue_capacity_bytes: int = 512 * 1024,
                 ecn_threshold_pkts: Optional[int] = None) -> Link:
        """Create a bidirectional link with per-direction egress queues."""
        port_a, port_b = node_a.new_port(), node_b.new_port()
        link = Link(
            self, port_a, port_b, bandwidth_bps, latency_ps,
            DropTailQueue(queue_capacity_bytes, ecn_threshold_pkts),
            DropTailQueue(queue_capacity_bytes, ecn_threshold_pkts),
        )
        self.links.append(link)
        node_a.invalidate_routes()
        node_b.invalidate_routes()
        return link

    def add_external(self, label: str, node: Node, bandwidth_bps: float,
                     queue_capacity_bytes: int = 512 * 1024,
                     ecn_threshold_pkts: Optional[int] = None) -> ExternalAttachment:
        """Attach an external endpoint (detailed host NIC, other partition)."""
        port = node.new_port()
        att = ExternalAttachment(
            self, label, port, bandwidth_bps,
            DropTailQueue(queue_capacity_bytes, ecn_threshold_pkts),
        )
        if label in self.externals:
            raise ValueError(f"duplicate external label {label!r}")
        self.externals[label] = att
        node.invalidate_routes()
        return att

    # -- channel plumbing -------------------------------------------------------

    def bind_external_to_end(self, label: str, end) -> None:
        """Bind an external attachment to a SplitSim Ethernet channel end."""
        att = self.externals[label]
        att.bind_send(lambda pkt: end.send(
            EthMsg(packet=pkt, flow=pkt.flow), self.now))
        self.attach_end(end, lambda msg: att.inject(msg.packet))

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Start every application on every protocol-level host."""
        for node in self.nodes.values():
            if isinstance(node, NetHost):
                for app in node.apps:
                    app.start()

    # -- fidelity ---------------------------------------------------------------

    def _all_directions(self):
        """Yield every ``(LinkDirection, rx_port_or_None)`` in this partition."""
        for link in self.links:
            yield link.dir_ab, link.port_b
            yield link.dir_ba, link.port_a
        for att in self.externals.values():
            yield att.ext.direction, None

    def enable_batching(self) -> int:
        """Switch every link direction onto the batched drain fast path;
        returns the number of directions batched."""
        n = 0
        for direction, _ in self._all_directions():
            direction.enable_batching()
            n += 1
        return n

    def batch_stats(self) -> dict:
        """Aggregate batched-path counters across all link directions.

        Per-period counters are folded in when a busy period closes, so the
        still-open period (if any) is added from its live packet count.
        """
        runs = pkts = max_run = 0
        for direction, _ in self._all_directions():
            runs += direction.batch_runs
            pkts += direction.batch_pkts
            peak = direction.batch_max_run
            if direction.batched and direction.busy:
                pkts += direction._period_pkts
                peak = max(peak, direction._period_pkts)
            if peak > max_run:
                max_run = peak
        return {"runs": runs, "packets": pkts, "max_run": max_run,
                "pkts_per_run": pkts / runs if runs else 0.0}

    # -- statistics ---------------------------------------------------------------

    def collect_outputs(self) -> dict:
        """Per-app summary (used by the multi-process runner)."""
        out = {}
        for node in self.nodes.values():
            if isinstance(node, NetHost):
                for i, app in enumerate(node.apps):
                    key = f"{node.name}.app{i}"
                    stats = getattr(app, "stats", None)
                    if stats is not None and hasattr(stats, "completed"):
                        out[key] = {"completed": stats.completed,
                                    "sent": stats.sent}
                    delivered = getattr(app, "delivered", None)
                    if delivered is not None:
                        out[key] = {"delivered": delivered}
        return out

    def total_tx_packets(self) -> int:
        """Packets transmitted across all links and external attachments."""
        total = 0
        for d, _ in self._all_directions():
            d.count_sent(self.now)
            total += d.tx_packets
        return total
