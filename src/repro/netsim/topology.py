"""Abstract topology specifications and their instantiation.

A :class:`TopoSpec` describes hosts, switches, and links independent of how
they will be simulated.  :func:`instantiate` builds a spec as one
:class:`~repro.netsim.network.NetworkSim` or, given a partition
assignment, as several synchronized ones (:mod:`repro.netsim.partition`
wires their cut links) — with identical timing, since routing is computed
globally and cut links keep their latency/bandwidth through the channel
plumbing.

Hosts marked ``external`` are *not* simulated here: their attachment point
becomes an :class:`~repro.netsim.network.ExternalAttachment` to be bound to
a detailed host/NIC simulator.  This is the mechanism behind mixed-fidelity
simulation.

Builders for the paper's topologies live at the bottom: dumbbell (congestion
control), single-switch rack (NetCache/Pegasus), fat-tree (DONS FatTree8
comparison), and the 1200-host datacenter used by the clock-sync study.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..kernel.simtime import US, NS
from ..record import Record
from .network import ExternalAttachment, NetworkSim
from .routing import Graph, build_graph, compute_fib

GBPS = 1e9
DEFAULT_QUEUE_BYTES = 512 * 1024


class HostSpec(Record):
    """A host in the abstract topology (``external`` = detailed host)."""

    def __init__(self, name: str, addr: int, external: bool = False,
                 rx_proc_delay_ps: int = 0,
                 app_factories: Optional[List[Callable]] = None) -> None:
        self.name = name
        self.addr = addr
        self.external = external
        self.rx_proc_delay_ps = rx_proc_delay_ps
        #: apps attached at instantiation time: callables (host) -> app
        self.app_factories = [] if app_factories is None else app_factories


class SwitchSpec(Record):
    """A switch in the abstract topology, with an optional pipeline."""

    def __init__(self, name: str, proc_delay_ps: Optional[int] = None,
                 pipeline_factory: Optional[Callable] = None) -> None:
        self.name = name
        self.proc_delay_ps = proc_delay_ps
        #: callable (switch) -> Pipeline instance, or None
        self.pipeline_factory = pipeline_factory


class LinkSpec(Record):
    """A bidirectional link with bandwidth, latency, and queue settings."""

    def __init__(self, a: str, b: str, bandwidth_bps: float, latency_ps: int,
                 queue_capacity_bytes: int = DEFAULT_QUEUE_BYTES,
                 ecn_threshold_pkts: Optional[int] = None) -> None:
        self.a = a
        self.b = b
        self.bandwidth_bps = bandwidth_bps
        self.latency_ps = latency_ps
        self.queue_capacity_bytes = queue_capacity_bytes
        self.ecn_threshold_pkts = ecn_threshold_pkts

    def endpoints(self) -> Tuple[str, str]:
        """The two node names this link joins."""
        return (self.a, self.b)


class TopoSpec:
    """A simulator-independent description of a network."""

    def __init__(self) -> None:
        self.hosts: Dict[str, HostSpec] = {}
        self.switches: Dict[str, SwitchSpec] = {}
        self.links: List[LinkSpec] = []
        self._next_addr = count(1)

    # -- assembly ------------------------------------------------------------

    def add_host(self, name: str, external: bool = False,
                 rx_proc_delay_ps: int = 0) -> HostSpec:
        """Declare a host; addresses are assigned sequentially."""
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate node name {name!r}")
        spec = HostSpec(name, addr=next(self._next_addr), external=external,
                        rx_proc_delay_ps=rx_proc_delay_ps)
        self.hosts[name] = spec
        return spec

    def add_switch(self, name: str, proc_delay_ps: Optional[int] = None,
                   pipeline_factory: Optional[Callable] = None) -> SwitchSpec:
        """Declare a switch; ``pipeline_factory(switch)`` adds in-network logic."""
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate node name {name!r}")
        spec = SwitchSpec(name, proc_delay_ps, pipeline_factory)
        self.switches[name] = spec
        return spec

    def add_link(self, a: str, b: str, bandwidth_bps: float,
                 latency_ps: int, **kwargs) -> LinkSpec:
        """Join two declared nodes with a link."""
        for n in (a, b):
            if n not in self.hosts and n not in self.switches:
                raise KeyError(f"unknown node {n!r}")
        link = LinkSpec(a, b, bandwidth_bps, latency_ps, **kwargs)
        self.links.append(link)
        return link

    def on_host(self, name: str, app_factory: Callable) -> None:
        """Attach an application factory to a (non-external) host."""
        spec = self.hosts[name]
        if spec.external:
            raise ValueError(f"{name} is external; configure its host simulator")
        spec.app_factories.append(app_factory)

    # -- derived data -----------------------------------------------------------

    def addr_of(self, host: str) -> int:
        """Network address assigned to a declared host."""
        return self.hosts[host].addr

    def graph(self) -> Graph:
        """The topology as an adjacency mapping (for routing and analysis)."""
        return build_graph(
            list(self.switches), list(self.hosts),
            [l.endpoints() for l in self.links],
        )

    def fib(self) -> Dict[str, Dict[int, Set[str]]]:
        """Globally computed forwarding state for every switch."""
        return compute_fib(self.graph(),
                           {h.name: h.addr for h in self.hosts.values()})


class NetBuild(Record):
    """A topology instantiated as one NetworkSim per partition."""

    def __init__(self, parts: Dict[str, NetworkSim], spec: TopoSpec,
                 assignment: Dict[str, str],
                 attachments: Dict[str, ExternalAttachment],
                 channels: List[tuple]) -> None:
        #: partition label -> its network simulator
        self.parts = parts
        self.spec = spec
        #: simulated node name -> partition label
        self.assignment = assignment
        #: external host name -> attachment (bind to a NIC channel end)
        self.attachments = attachments
        #: channel end pairs carrying the cut links, for
        #: ``Simulation.connect``
        self.channels = channels

    @property
    def net(self) -> NetworkSim:
        """The network simulator of a one-partition build."""
        (net,) = self.parts.values()
        return net

    def host(self, name: str):
        """Look up an instantiated (protocol-level) host by name."""
        return self.parts[self.assignment[name]].nodes[name]

    def all_components(self) -> List[NetworkSim]:
        """Every network simulator, for Simulation.add."""
        return list(self.parts.values())

    def net_switches(self) -> Dict[str, List[str]]:
        """Which topology switches each network simulator carries."""
        return {net.name: [sw for sw in self.spec.switches
                           if self.assignment[sw] == label]
                for label, net in self.parts.items()}


def instantiate(spec: TopoSpec, assignment: Optional[Dict[str, str]] = None,
                *, seed: int = 0, use_trunk: bool = True) -> NetBuild:
    """Build ``spec`` as one NetworkSim per partition of ``assignment``.

    ``assignment`` maps every simulated (non-external) node to a partition
    label; partition ``p`` becomes the component ``net.p``, and the links
    it cuts are carried over channels (:mod:`repro.netsim.partition`;
    ``use_trunk=False`` gives each cut link its own).  ``None`` is the
    unpartitioned network: one component named ``net``.
    """
    internal = list(spec.switches) + [
        h.name for h in spec.hosts.values() if not h.external]
    if assignment is None:
        assignment = dict.fromkeys(internal, "net")
        parts = {"net": NetworkSim("net", seed=seed)}
    else:
        unknown = set(assignment) - set(spec.hosts) - set(spec.switches)
        missing = set(internal) - set(assignment)
        if unknown or missing:
            raise ValueError(f"assignment: nodes not in the topology "
                             f"{sorted(unknown)}, unassigned nodes "
                             f"{sorted(missing)[:5]}")
        parts = {p: NetworkSim(f"net.{p}", seed=seed)
                 for p in sorted({assignment[n] for n in internal})}

    for sw in spec.switches.values():
        switch = parts[assignment[sw.name]].add_switch(sw.name,
                                                       sw.proc_delay_ps)
        if sw.pipeline_factory is not None:
            switch.pipeline = sw.pipeline_factory(switch)
    for hs in spec.hosts.values():
        if not hs.external:
            parts[assignment[hs.name]].add_host(hs.name, hs.addr,
                                                hs.rx_proc_delay_ps)

    attachments: Dict[str, ExternalAttachment] = {}
    port_map: Dict[Tuple[str, str], object] = {}
    #: (part_a, part_b), part_a < part_b -> the links cut between them
    cuts: Dict[Tuple[str, str], List[LinkSpec]] = {}
    for ls in spec.links:
        ext_a = ls.a in spec.hosts and spec.hosts[ls.a].external
        ext_b = ls.b in spec.hosts and spec.hosts[ls.b].external
        if ext_a and ext_b:
            raise ValueError(f"link {ls.a}-{ls.b}: both endpoints external")
        if ext_a or ext_b:
            inside, outside = (ls.b, ls.a) if ext_a else (ls.a, ls.b)
            net = parts[assignment[inside]]
            att = net.add_external(
                outside, net.nodes[inside], ls.bandwidth_bps,
                ls.queue_capacity_bytes, ls.ecn_threshold_pkts)
            attachments[outside] = att
            port_map[(inside, outside)] = att.port
            continue
        pa, pb = assignment[ls.a], assignment[ls.b]
        if pa != pb:
            cuts.setdefault((min(pa, pb), max(pa, pb)), []).append(ls)
            continue
        net = parts[pa]
        link = net.add_link(
            net.nodes[ls.a], net.nodes[ls.b], ls.bandwidth_bps,
            ls.latency_ps, ls.queue_capacity_bytes, ls.ecn_threshold_pkts)
        # ECN marking is a switch-egress feature; host egress queues
        # (the a->b queue when a is a host) never mark, as on Linux.
        if ls.a in spec.hosts:
            link.dir_ab.queue.ecn_threshold_pkts = None
        if ls.b in spec.hosts:
            link.dir_ba.queue.ecn_threshold_pkts = None
        port_map[(ls.a, ls.b)] = link.port_a
        port_map[(ls.b, ls.a)] = link.port_b

    channels = []
    if cuts:
        # the cut-link wiring (and the trunk channel) loads only for a cut
        from .partition import wire_cuts
        channels = wire_cuts(spec, parts, assignment, port_map, cuts,
                             use_trunk)

    # routes are computed globally, so every partition forwards alike
    for sw_name, routes in spec.fib().items():
        switch = parts[assignment[sw_name]].nodes[sw_name]
        for addr, next_hops in routes.items():
            for hop in sorted(next_hops):
                port = port_map.get((sw_name, hop))
                if port is None:
                    raise RuntimeError(f"no port for {sw_name} -> {hop}")
                switch.add_route(addr, port)

    for hs in spec.hosts.values():
        if not hs.external:
            host = parts[assignment[hs.name]].nodes[hs.name]
            for factory in hs.app_factories:
                host.add_app(factory(host))
    return NetBuild(parts, spec, assignment, attachments, channels)


# --------------------------------------------------------------------------
# Topology builders used across the paper's experiments.
# --------------------------------------------------------------------------

def dumbbell(spec: Optional[TopoSpec] = None, pairs: int = 2,
             edge_bw: float = 10 * GBPS, bottleneck_bw: float = 10 * GBPS,
             edge_latency_ps: int = 1 * US, bottleneck_latency_ps: int = 2 * US,
             ecn_threshold_pkts: Optional[int] = None,
             external_left: int = 0) -> TopoSpec:
    """Dumbbell: N senders -- swL -- bottleneck -- swR -- N receivers.

    ``external_left``: how many of the senders (and matching receivers) are
    detailed (external) hosts — the mixed-fidelity knob of Fig. 6.
    """
    spec = spec or TopoSpec()
    spec.add_switch("swL")
    spec.add_switch("swR")
    spec.add_link("swL", "swR", bottleneck_bw, bottleneck_latency_ps,
                  ecn_threshold_pkts=ecn_threshold_pkts)
    for i in range(pairs):
        ext = i < external_left
        spec.add_host(f"snd{i}", external=ext)
        spec.add_host(f"rcv{i}", external=ext)
        spec.add_link(f"snd{i}", "swL", edge_bw, edge_latency_ps,
                      ecn_threshold_pkts=ecn_threshold_pkts)
        spec.add_link(f"rcv{i}", "swR", edge_bw, edge_latency_ps,
                      ecn_threshold_pkts=ecn_threshold_pkts)
    return spec


def single_switch_rack(servers: int, clients: int,
                       bw: float = 10 * GBPS, latency_ps: int = 1 * US,
                       external_servers: bool = False,
                       external_clients: int = 0,
                       pipeline_factory: Optional[Callable] = None) -> TopoSpec:
    """The NetCache/Pegasus setup: servers and clients on one switch."""
    spec = TopoSpec()
    spec.add_switch("tor", pipeline_factory=pipeline_factory)
    for i in range(servers):
        spec.add_host(f"server{i}", external=external_servers)
        spec.add_link(f"server{i}", "tor", bw, latency_ps)
    for i in range(clients):
        spec.add_host(f"client{i}", external=i < external_clients)
        spec.add_link(f"client{i}", "tor", bw, latency_ps)
    return spec


def fat_tree(k: int = 8, bw: float = 10 * GBPS,
             latency_ps: int = 1 * US) -> TopoSpec:
    """Standard k-ary fat tree: (k/2)^2 cores, k pods, k^3/4 hosts.

    ``k=8`` gives the 128-server FatTree8 used in the DONS comparison
    (Fig. 8).
    """
    if k % 2:
        raise ValueError("k must be even")
    spec = TopoSpec()
    half = k // 2
    cores = [spec.add_switch(f"core{i}") for i in range(half * half)]
    for pod in range(k):
        aggs = [spec.add_switch(f"p{pod}agg{i}") for i in range(half)]
        edges = [spec.add_switch(f"p{pod}edge{i}") for i in range(half)]
        for ai, agg in enumerate(aggs):
            for ei in range(half):
                spec.add_link(agg.name, edges[ei].name, bw, latency_ps)
            for ci in range(half):
                core = cores[ai * half + ci]
                spec.add_link(agg.name, core.name, bw, latency_ps)
        for ei, edge in enumerate(edges):
            for hi in range(half):
                host = spec.add_host(f"p{pod}e{ei}h{hi}")
                spec.add_link(host.name, edge.name, bw, latency_ps)
    return spec


def datacenter(aggs: int = 4, racks_per_agg: int = 6, hosts_per_rack: int = 40,
               core_bw: float = 100 * GBPS, agg_bw: float = 100 * GBPS,
               host_bw: float = 10 * GBPS,
               link_latency_ps: int = 1 * US,
               external_hosts: int = 0,
               tor_pipeline_factory: Optional[Callable] = None) -> TopoSpec:
    """The clock-sync study's topology: core -> aggregation -> ToR -> hosts.

    Default dimensions (4 aggs x 6 racks x 40 hosts = 960 background hosts
    plus externals) mirror the paper's 1200-host network; scaled-down
    variants just pass smaller numbers.  ``external_hosts`` reserves the
    first hosts (round-robin across racks) as detailed-host attachment
    points.  ``tor_pipeline_factory``, when given, installs a pipeline on
    every switch (e.g. PTP transparent clocks).
    """
    spec = TopoSpec()
    spec.add_switch("core", pipeline_factory=tor_pipeline_factory)
    ext_left = external_hosts
    for a in range(aggs):
        agg = spec.add_switch(f"agg{a}", pipeline_factory=tor_pipeline_factory)
        spec.add_link("core", agg.name, core_bw, link_latency_ps)
        for r in range(racks_per_agg):
            tor = spec.add_switch(f"a{a}r{r}tor",
                                  pipeline_factory=tor_pipeline_factory)
            spec.add_link(agg.name, tor.name, agg_bw, link_latency_ps)
            for h in range(hosts_per_rack):
                ext = ext_left > 0 and h == 0 and (a * racks_per_agg + r) < external_hosts
                if ext:
                    ext_left -= 1
                host = spec.add_host(f"a{a}r{r}h{h}", external=ext)
                spec.add_link(host.name, tor.name, host_bw, link_latency_ps)
    return spec
