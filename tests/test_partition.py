"""Tests for network decomposition: partitioned == monolithic, trunks."""

import pytest

from repro.kernel.simtime import MS, NS, US
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.partition import assign_all, assign_hosts_with_switch
from repro.netsim.topology import (dumbbell, fat_tree, instantiate,
                                   single_switch_rack)
from repro.orchestration.strategies import (STRATEGIES, partition_fat_tree,
                                            strategy_ac, strategy_cr,
                                            strategy_rs, strategy_single)
from repro.netsim.topology import datacenter
from repro.parallel.simulation import Simulation


def bulk_spec():
    spec = dumbbell(pairs=2, ecn_threshold_pkts=65)
    for i in range(2):
        spec.on_host(f"rcv{i}", lambda h: BulkSink(port=5001, variant="dctcp"))
        dst = spec.addr_of(f"rcv{i}")
        spec.on_host(f"snd{i}", lambda h, d=dst: BulkSender(
            d, 5001, total_bytes=2_000_000, variant="dctcp"))
    return spec


def run_partitioned(spec_fn, switch_part, until, mode="fast", use_trunk=True):
    """``switch_part=None`` runs the unpartitioned network."""
    spec = spec_fn()
    assignment = switch_part and assign_hosts_with_switch(spec, switch_part)
    pb = instantiate(spec, assignment, use_trunk=use_trunk)
    sim = Simulation(mode=mode)
    for comp in pb.all_components():
        sim.add(comp)
    for ea, eb in pb.channels:
        sim.connect(ea, eb)
    sim.run(until)
    return pb


SPLIT = {"swL": "L", "swR": "R"}


def sink_timelines(build):
    return [build.host(f"rcv{i}").apps[0].samples for i in range(2)]


def test_partitioned_bulk_identical_to_monolithic():
    mono = run_partitioned(bulk_spec, None, 15 * MS)
    part = run_partitioned(bulk_spec, SPLIT, 15 * MS)
    assert sink_timelines(mono) == sink_timelines(part)


def test_strict_sync_partitioned_matches_too():
    fast = run_partitioned(bulk_spec, SPLIT, 8 * MS, mode="fast")
    strict = run_partitioned(bulk_spec, SPLIT, 8 * MS, mode="strict")
    assert sink_timelines(fast) == sink_timelines(strict)


def test_per_link_channels_equivalent_to_trunk():
    trunked = run_partitioned(bulk_spec, SPLIT, 8 * MS, use_trunk=True)
    plain = run_partitioned(bulk_spec, SPLIT, 8 * MS, use_trunk=False)
    assert sink_timelines(trunked) == sink_timelines(plain)
    assert len(plain.channels) >= len(trunked.channels)


def test_partition_build_exposes_model_channels():
    from repro.parallel.model import model_channels
    spec = bulk_spec()
    assignment = assign_hosts_with_switch(spec, SPLIT)
    pb = instantiate(spec, assignment)
    (mc,) = model_channels(pb.channels)
    assert mc.latency_ps == 2 * US  # the dumbbell bottleneck latency
    assert pb.net_switches() == {"net.L": ["swL"], "net.R": ["swR"]}


def test_unassigned_node_rejected():
    spec = bulk_spec()
    with pytest.raises(ValueError):
        instantiate(spec, {"swL": "L"})


def test_unknown_node_in_assignment_rejected():
    spec = dumbbell(pairs=2)
    with pytest.raises(ValueError, match="ghost"):
        instantiate(spec, {"swL": "p0", "swR": "p0", "ghost": "p1"})


def test_assign_all_single_partition():
    spec = bulk_spec()
    assignment = assign_all(spec)
    assert set(assignment.values()) == {"p0"}


def test_kv_with_pipeline_survives_partitioning():
    """Switch pipelines (NetCache) keep working in a partitioned build."""
    from repro.netsim.inp.netcache import NetCachePipeline

    def spec_fn():
        spec = single_switch_rack(servers=2, clients=2)
        addrs = [spec.addr_of(f"server{i}") for i in range(2)]
        spec.switches["tor"].pipeline_factory = \
            lambda sw: NetCachePipeline(sw, hot_threshold=1)
        for i in range(2):
            spec.on_host(f"server{i}", lambda h: KVServerApp())
            spec.on_host(f"client{i}", lambda h: KVClientApp(
                addrs, closed_loop_window=4, write_frac=0.2))
        return spec

    mono = run_partitioned(spec_fn, None, 3 * MS)
    part = run_partitioned(spec_fn, {"tor": "only"}, 3 * MS)
    m = [mono.host(f"client{i}").apps[0].stats.completed for i in range(2)]
    p = [part.host(f"client{i}").apps[0].stats.completed for i in range(2)]
    assert m == p


# -- strategy functions --------------------------------------------------------

def small_dc():
    return datacenter(aggs=2, racks_per_agg=3, hosts_per_rack=2)


def test_strategy_single():
    spec = small_dc()
    assert set(strategy_single(spec).values()) == {"all"}


def test_strategy_ac_groups_racks_with_agg():
    spec = small_dc()
    assignment = strategy_ac(spec)
    assert assignment["core"] == "core"
    assert assignment["a1r2tor"] == assignment["agg1"] == "agg1"
    assert len(set(assignment.values())) == 3  # core + 2 agg blocks


def test_strategy_cr_chunks_racks():
    spec = small_dc()
    assignment = strategy_cr(3)(spec)
    parts = {v for k, v in assignment.items() if v.startswith("racks")}
    assert len(parts) == 2  # 6 racks / 3
    assert assignment["agg0"] == assignment["core"] == "backbone"


def test_strategy_rs_isolates_each_rack():
    spec = small_dc()
    assignment = strategy_rs(spec)
    racks = {v for v in assignment.values() if v.startswith("rack")}
    assert len(racks) == 6


def test_strategies_table_runs_end_to_end():
    spec = small_dc()
    for name, strategy in STRATEGIES.items():
        assignment = assign_hosts_with_switch(spec, strategy(spec))
        assert set(assignment) >= set(spec.switches)


def test_partition_fat_tree_counts():
    spec = fat_tree(k=4)  # 8 agg/edge pairs
    for k in (1, 2, 4, 8):
        assignment = partition_fat_tree(spec, k)
        assert len(set(assignment.values())) == k
    with pytest.raises(ValueError):
        partition_fat_tree(spec, 3)


def test_partitioned_fat_tree_executes():
    spec = fat_tree(k=4)
    src, dst = "p0e0h0", "p3e1h1"
    dst_addr = spec.addr_of(dst)
    got = []
    spec.on_host(dst, lambda h: None or _sink(h, got))
    assignment = assign_hosts_with_switch(spec, partition_fat_tree(spec, 4))
    pb = instantiate(spec, assignment)
    sim = Simulation(mode="fast")
    for comp in pb.all_components():
        sim.add(comp)
    for ea, eb in pb.channels:
        sim.connect(ea, eb)
    host = pb.host(src)
    sock = host.stack.udp_socket(8)
    host.net.schedule(0, lambda: sock.sendto(dst_addr, 9, 100))
    sim.run(1 * MS)
    assert len(got) == 1


class _SinkApp:
    def __init__(self, host, got):
        self.host = host
        self.got = got

    def bind(self, host):
        self.host = host

    def start(self):
        self.host.stack.udp_socket(9, lambda pkt: self.got.append(pkt.src))


def _sink(host, got):
    return _SinkApp(host, got)
