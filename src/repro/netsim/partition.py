"""Decomposing a network topology into parallel simulator partitions.

This is SplitSim's "parallelization through decomposition" applied to the
network simulator (paper §3.2): the topology is split at link boundaries
into several :class:`~repro.netsim.network.NetworkSim` components, and every
cut link is carried over a SplitSim channel.  When several links cross the
same partition pair, they share a single synchronized **trunk** channel
(:mod:`repro.channels.trunk`) instead of paying sync cost per link.

Timing is preserved exactly: a cut link's serialization happens in the
sending partition (at the link's bandwidth), the trunk channel's latency is
the *minimum* propagation latency of its bundled links, and any remainder is
re-added at injection time.  Routing is computed globally before splitting,
so a partitioned simulation delivers packets along identical paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..channels.channel import ChannelEnd
from ..channels.trunk import TrunkEnd
from ..kernel.simtime import US
from .network import ExternalAttachment, NetworkSim
from .topology import LinkSpec, TopoSpec, _install_fib


@dataclass
class PartitionedBuild:
    """Result of a partitioned instantiation."""

    parts: Dict[str, NetworkSim]
    spec: TopoSpec
    assignment: Dict[str, str]
    #: external (detailed) host name -> its attachment (in some partition)
    attachments: Dict[str, ExternalAttachment]
    #: channel end pairs to pass to ``Simulation.connect``
    channels: List[Tuple[ChannelEnd, ChannelEnd]]

    def host(self, name: str):
        """Look up an instantiated host across all partitions."""
        part = self.assignment[name]
        return self.parts[part].nodes[name]

    def all_components(self) -> List[NetworkSim]:
        """Every network-simulator partition, for Simulation.add."""
        return list(self.parts.values())

    def net_switches(self) -> Dict[str, List[str]]:
        """Which topology switches each partition carries."""
        return {net.name: [sw for sw in self.spec.switches
                           if self.assignment.get(sw) == label]
                for label, net in self.parts.items()}


def instantiate_partitioned(spec: TopoSpec, assignment: Dict[str, str],
                            flavor: str = "ns3", seed: int = 0,
                            name_prefix: str = "net",
                            use_trunk: bool = True) -> PartitionedBuild:
    """Build ``spec`` as several NetworkSims according to ``assignment``.

    ``assignment`` maps every non-external node name to a partition label.
    ``use_trunk=False`` gives each cut link its own synchronized channel
    (the configuration the trunk-adapter ablation compares against).
    """
    internal = {n for n in list(spec.switches) +
                [h.name for h in spec.hosts.values() if not h.external]}
    missing = internal - set(assignment)
    if missing:
        raise ValueError(f"unassigned nodes: {sorted(missing)[:5]} ...")

    part_names = sorted(set(assignment[n] for n in internal))
    parts: Dict[str, NetworkSim] = {
        p: NetworkSim(f"{name_prefix}.{p}", flavor=flavor, seed=seed)
        for p in part_names
    }

    for sw in spec.switches.values():
        net = parts[assignment[sw.name]]
        switch = net.add_switch(sw.name, sw.proc_delay_ps)
        if sw.pipeline_factory is not None:
            switch.pipeline = sw.pipeline_factory(switch)
    for hs in spec.hosts.values():
        if not hs.external:
            parts[assignment[hs.name]].add_host(hs.name, hs.addr,
                                                hs.rx_proc_delay_ps)

    attachments: Dict[str, ExternalAttachment] = {}
    port_map: Dict[Tuple[str, str], object] = {}
    #: (part_a, part_b) -> list of cut links, a-side in part_a
    cuts: Dict[Tuple[str, str], List[LinkSpec]] = {}

    for ls in spec.links:
        ext_a = ls.a in spec.hosts and spec.hosts[ls.a].external
        ext_b = ls.b in spec.hosts and spec.hosts[ls.b].external
        if ext_a or ext_b:
            inside, outside = (ls.b, ls.a) if ext_a else (ls.a, ls.b)
            net = parts[assignment[inside]]
            att = net.add_external(outside, net.nodes[inside], ls.bandwidth_bps,
                                   ls.queue_capacity_bytes, ls.ecn_threshold_pkts)
            attachments[outside] = att
            port_map[(inside, outside)] = att.port
            continue
        pa, pb = assignment[ls.a], assignment[ls.b]
        if pa == pb:
            net = parts[pa]
            link = net.add_link(net.nodes[ls.a], net.nodes[ls.b],
                                ls.bandwidth_bps, ls.latency_ps,
                                ls.queue_capacity_bytes, ls.ecn_threshold_pkts)
            if ls.a in spec.hosts:
                link.dir_ab.queue.ecn_threshold_pkts = None
            if ls.b in spec.hosts:
                link.dir_ba.queue.ecn_threshold_pkts = None
            port_map[(ls.a, ls.b)] = link.port_a
            port_map[(ls.b, ls.a)] = link.port_b
        else:
            key = (pa, pb) if pa < pb else (pb, pa)
            cuts.setdefault(key, []).append(ls)

    channels: List[Tuple[ChannelEnd, ChannelEnd]] = []

    for (pa, pb), links in sorted(cuts.items()):
        links = sorted(links, key=lambda l: (l.a, l.b))
        base_latency = min(l.latency_ps for l in links)
        if use_trunk:
            trunk_a = TrunkEnd(f"{parts[pa].name}->{pb}", latency=base_latency)
            trunk_b = TrunkEnd(f"{parts[pb].name}->{pa}", latency=base_latency)
            parts[pa].attach_end(trunk_a, trunk_a.dispatch)
            parts[pb].attach_end(trunk_b, trunk_b.dispatch)
            channels.append((trunk_a, trunk_b))
            for sub_id, ls in enumerate(links):
                _bind_cut_link(spec, parts, assignment, port_map, ls, pa,
                               trunk_a.port(sub_id), trunk_b.port(sub_id),
                               base_latency, attachments)
        else:
            for ls in links:
                end_a = ChannelEnd(f"{parts[pa].name}:{ls.a}-{ls.b}",
                                   latency=ls.latency_ps)
                end_b = ChannelEnd(f"{parts[pb].name}:{ls.b}-{ls.a}",
                                   latency=ls.latency_ps)
                channels.append((end_a, end_b))
                _bind_cut_link_plain(spec, parts, assignment, port_map, ls,
                                     pa, end_a, end_b)

    switch_net = {sw: parts[assignment[sw]] for sw in spec.switches}
    _install_fib(spec, switch_net, port_map)

    for hs in spec.hosts.values():
        if not hs.external:
            host = parts[assignment[hs.name]].nodes[hs.name]
            for factory in hs.app_factories:
                host.add_app(factory(host))

    return PartitionedBuild(parts=parts, spec=spec, assignment=assignment,
                            attachments=attachments, channels=channels)


def _bind_cut_link(spec, parts, assignment, port_map, ls: LinkSpec, part_a,
                   port_a, port_b, base_latency: int, attachments) -> None:
    """Wire one cut link over a pair of trunk ports.

    ``port_a`` belongs to partition ``part_a``; each endpoint picks the
    trunk port of *its own* partition (the link's endpoint order is
    unrelated to partition-label order).
    """
    extra = ls.latency_ps - base_latency
    for inside, other in ((ls.a, ls.b), (ls.b, ls.a)):
        tport = port_a if assignment[inside] == part_a else port_b
        net = parts[assignment[inside]]
        att = net.add_external(f"cut:{inside}:{other}", net.nodes[inside],
                               ls.bandwidth_bps, ls.queue_capacity_bytes,
                               ls.ecn_threshold_pkts)
        if inside in spec.hosts:
            att.ext.direction.queue.ecn_threshold_pkts = None
        port_map[(inside, other)] = att.port
        _bind_attachment_to_port(net, att, tport, extra)


def _bind_cut_link_plain(spec, parts, assignment, port_map, ls: LinkSpec,
                         part_a, end_a: ChannelEnd, end_b: ChannelEnd) -> None:
    """Wire one cut link over its own dedicated channel."""
    from ..channels.messages import EthMsg
    for inside, other in ((ls.a, ls.b), (ls.b, ls.a)):
        end = end_a if assignment[inside] == part_a else end_b
        net = parts[assignment[inside]]
        att = net.add_external(f"cut:{inside}:{other}", net.nodes[inside],
                               ls.bandwidth_bps, ls.queue_capacity_bytes,
                               ls.ecn_threshold_pkts)
        if inside in spec.hosts:
            att.ext.direction.queue.ecn_threshold_pkts = None
        port_map[(inside, other)] = att.port
        net.bind_external_to_end(att.label, end)


def _bind_attachment_to_port(net: NetworkSim, att: ExternalAttachment,
                             tport, extra_latency_ps: int) -> None:
    from ..channels.messages import EthMsg
    att.bind_send(lambda pkt: tport.send(
        EthMsg(packet=pkt, flow=pkt.flow), net.now))
    if extra_latency_ps > 0:
        tport.on_receive(
            lambda msg: net.call_after(extra_latency_ps, att.inject, msg.packet))
    else:
        tport.on_receive(lambda msg: att.inject(msg.packet))


# ---------------------------------------------------------------------------
# Partition assignment helpers (strategies are in repro.orchestration).
# ---------------------------------------------------------------------------

def assign_all(spec: TopoSpec, label: str = "p0") -> Dict[str, str]:
    """Everything in one partition (strategy ``s``)."""
    names = list(spec.switches) + [
        h.name for h in spec.hosts.values() if not h.external]
    return {n: label for n in names}


def assign_hosts_with_switch(spec: TopoSpec,
                             switch_part: Dict[str, str]) -> Dict[str, str]:
    """Extend a switch-level assignment: each host joins its switch."""
    assignment = dict(switch_part)
    neighbor: Dict[str, str] = {}
    for ls in spec.links:
        if ls.a in spec.hosts and ls.b in spec.switches:
            neighbor[ls.a] = ls.b
        elif ls.b in spec.hosts and ls.a in spec.switches:
            neighbor[ls.b] = ls.a
    for hs in spec.hosts.values():
        if hs.external:
            continue
        sw = neighbor.get(hs.name)
        if sw is None or sw not in assignment:
            raise ValueError(f"host {hs.name}: no assigned adjacent switch")
        assignment[hs.name] = assignment[sw]
    return assignment
