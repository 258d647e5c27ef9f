"""Tests for global routing and the topology builders."""

import pytest

from repro.kernel.simtime import MS, US
from repro.netsim.routing import build_graph, compute_fib, compute_next_hops
from repro.netsim.topology import (TopoSpec, datacenter, dumbbell, fat_tree,
                                   instantiate, single_switch_rack)
from repro.parallel.simulation import Simulation


def test_next_hops_on_line():
    g = build_graph(["s1", "s2"], ["a", "b"],
                    [("a", "s1"), ("s1", "s2"), ("s2", "b")])
    hops = compute_next_hops(g, "b")
    assert hops["a"] == {"s1"}
    assert hops["s1"] == {"s2"}
    assert hops["s2"] == {"b"}


def test_fib_covers_all_switch_dst_pairs():
    spec = fat_tree(k=4)
    fib = spec.fib()
    addrs = {h.addr for h in spec.hosts.values()}
    for sw, routes in fib.items():
        assert set(routes) == addrs


def test_fat_tree_dimensions():
    spec = fat_tree(k=8)
    assert len(spec.hosts) == 128          # k^3/4
    assert len(spec.switches) == 80        # 16 core + 32 agg + 32 edge
    with pytest.raises(ValueError):
        fat_tree(k=5)


def test_fat_tree_ecmp_multipath():
    spec = fat_tree(k=4)
    fib = spec.fib()
    # an edge switch reaching a remote pod has multiple equal next hops
    edge = "p0edge0"
    remote = spec.addr_of("p3e1h1")
    assert len(fib[edge][remote]) > 1


def test_datacenter_dimensions_paper_scale():
    spec = datacenter()  # defaults mirror the 1200-host study
    hosts = len(spec.hosts)
    switches = len(spec.switches)
    assert hosts == 4 * 6 * 40
    assert switches == 1 + 4 + 24


def test_datacenter_external_hosts_marked():
    spec = datacenter(aggs=2, racks_per_agg=2, hosts_per_rack=4,
                      external_hosts=3)
    ext = [h for h in spec.hosts.values() if h.external]
    assert len(ext) == 3


def test_dumbbell_shape_and_ecn_config():
    spec = dumbbell(pairs=3, ecn_threshold_pkts=20)
    assert len(spec.hosts) == 6
    assert len(spec.switches) == 2
    bottleneck = [l for l in spec.links if {l.a, l.b} == {"swL", "swR"}]
    assert bottleneck[0].ecn_threshold_pkts == 20


def test_single_switch_rack_externals():
    spec = single_switch_rack(servers=2, clients=3, external_servers=True,
                              external_clients=1)
    ext = {h.name for h in spec.hosts.values() if h.external}
    assert ext == {"server0", "server1", "client0"}


def test_spec_validation_errors():
    spec = TopoSpec()
    spec.add_host("h")
    with pytest.raises(ValueError):
        spec.add_host("h")
    with pytest.raises(KeyError):
        spec.add_link("h", "nope", 1e9, 1000)
    spec.hosts["h"].external = True
    with pytest.raises(ValueError):
        spec.on_host("h", lambda h: None)


def test_instantiate_routes_end_to_end():
    """Any host pair in a fat tree can exchange a datagram."""
    spec = fat_tree(k=4)
    build = instantiate(spec)
    sim = Simulation(mode="fast")
    sim.add(build.net)
    src = build.host("p0e0h0")
    dst_name = "p3e1h1"
    dst_addr = spec.addr_of(dst_name)
    got = []
    build.host(dst_name).stack.udp_socket(9, lambda pkt: got.append(pkt.src))
    sock = src.stack.udp_socket(8)
    build.net.schedule(0, lambda: sock.sendto(dst_addr, 9, 100))
    sim.run(1 * MS)
    assert got == [spec.addr_of("p0e0h0")]


@pytest.mark.parametrize("assignment", [None, {"s0": "p0", "s1": "p1"}],
                         ids=["unpartitioned", "two_partitions"])
def test_instantiate_both_external_endpoints_rejected(assignment):
    spec = TopoSpec()
    spec.add_switch("s0")
    spec.add_switch("s1")
    spec.add_link("s0", "s1", 1e9, 1000)
    spec.add_host("a", external=True)
    spec.add_host("b", external=True)
    spec.add_link("a", "b", 1e9, 1000)
    with pytest.raises(ValueError, match="both endpoints external"):
        instantiate(spec, assignment)
