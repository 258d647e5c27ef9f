"""Decomposing a network topology into parallel simulator partitions.

This is SplitSim's "parallelization through decomposition" applied to the
network simulator (paper §3.2): given a partition assignment,
:func:`~repro.netsim.topology.instantiate` splits the topology at link
boundaries into several :class:`~repro.netsim.network.NetworkSim`
components, and this module carries every cut link over a SplitSim
channel.  When several links cross the same partition pair, they share a
single synchronized **trunk** channel (:mod:`repro.channels.trunk`)
instead of paying sync cost per link.

Timing is preserved exactly: a cut link's serialization happens in the
sending partition (at the link's bandwidth), the trunk channel's latency is
the *minimum* propagation latency of its bundled links, and any remainder is
re-added at injection time.  Routing is computed globally before splitting,
so a partitioned simulation delivers packets along identical paths.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..channels.channel import ChannelEnd
from ..channels.messages import EthMsg
from ..channels.trunk import TrunkEnd
from .network import ExternalAttachment, NetworkSim
from .topology import LinkSpec, TopoSpec


def wire_cuts(spec: TopoSpec, parts: Dict[str, NetworkSim],
              assignment: Dict[str, str],
              port_map: Dict[Tuple[str, str], object],
              cuts: Dict[Tuple[str, str], List[LinkSpec]],
              use_trunk: bool) -> List[Tuple[ChannelEnd, ChannelEnd]]:
    """Carry every cut link over a channel; return the channel end pairs.

    ``cuts`` maps a partition pair ``(pa, pb)``, ``pa < pb``, to the links
    cut between them.  With ``use_trunk`` they share one trunk channel;
    without, each link gets its own channel (the configuration the
    trunk-adapter ablation compares against).
    """
    channels: List[Tuple[ChannelEnd, ChannelEnd]] = []
    for (pa, pb), links in sorted(cuts.items()):
        links = sorted(links, key=lambda l: (l.a, l.b))
        if use_trunk:
            base_latency = min(l.latency_ps for l in links)
            trunk_a = TrunkEnd(f"{parts[pa].name}->{pb}", latency=base_latency)
            trunk_b = TrunkEnd(f"{parts[pb].name}->{pa}", latency=base_latency)
            parts[pa].attach_end(trunk_a, trunk_a.dispatch)
            parts[pb].attach_end(trunk_b, trunk_b.dispatch)
            channels.append((trunk_a, trunk_b))
            for sub_id, ls in enumerate(links):
                _bind_cut_link(spec, parts, assignment, port_map, ls, pa,
                               trunk_a.port(sub_id), trunk_b.port(sub_id),
                               ls.latency_ps - base_latency)
        else:
            for ls in links:
                end_a = ChannelEnd(f"{parts[pa].name}:{ls.a}-{ls.b}",
                                   latency=ls.latency_ps)
                end_b = ChannelEnd(f"{parts[pb].name}:{ls.b}-{ls.a}",
                                   latency=ls.latency_ps)
                channels.append((end_a, end_b))
                _bind_cut_link(spec, parts, assignment, port_map, ls, pa,
                               end_a, end_b)
    return channels


def _bind_cut_link(spec, parts, assignment, port_map, ls: LinkSpec, part_a,
                   end_a, end_b, extra_latency_ps: int = 0) -> None:
    """Wire one cut link over a pair of channel ends or trunk ports.

    ``end_a`` belongs to partition ``part_a``; each endpoint picks the end
    of *its own* partition (the link's endpoint order is unrelated to
    partition-label order).  A trunk port re-adds ``extra_latency_ps``,
    the part of the link's latency its shared channel does not carry.
    """
    for inside, other in ((ls.a, ls.b), (ls.b, ls.a)):
        end = end_a if assignment[inside] == part_a else end_b
        net = parts[assignment[inside]]
        att = net.add_external(f"cut:{inside}:{other}", net.nodes[inside],
                               ls.bandwidth_bps, ls.queue_capacity_bytes,
                               ls.ecn_threshold_pkts)
        if inside in spec.hosts:
            att.ext.direction.queue.ecn_threshold_pkts = None
        port_map[(inside, other)] = att.port
        if isinstance(end, ChannelEnd):  # the link's own channel
            net.bind_external_to_end(att.label, end)
        else:
            _bind_attachment_to_port(net, att, end, extra_latency_ps)


def _bind_attachment_to_port(net: NetworkSim, att: ExternalAttachment,
                             tport, extra_latency_ps: int) -> None:
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
