"""Ablations of SplitSim's design choices (DESIGN.md §5).

* **Trunk adapters**: bundling all cut links between two partitions into
  one synchronized channel vs one channel per link — trunking cuts the
  sync-message volume (paper §3.2.1's motivation).
* **Synchronization discipline**: peer-to-peer SplitSim sync vs a global
  barrier on the *identical* partitioning and workload.
* **Profiler overhead**: periodic counter sampling (the epoch timeline
  the profiler reads) is cheap (the paper compiles instrumentation in by
  default).
* **Lookahead (channel latency) sensitivity**: smaller lookahead means
  more sync rounds in strict mode.
"""

import time

import pytest

from repro.kernel.simtime import MS, NS, US
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.partition import assign_hosts_with_switch
from repro.netsim.topology import dumbbell, instantiate
from repro.parallel.model import (ParallelExecutionModel, WorkRecorder,
                                  model_channels)
from repro.parallel.simulation import Simulation
from repro.obs.recorder import ProbeDriver
from repro.obs.timeline import TimelineCollector

from common import print_table, run_once, save_results


def bulk_spec(bottleneck_latency_ps=2 * US):
    spec = dumbbell(pairs=3, ecn_threshold_pkts=65,
                    bottleneck_latency_ps=bottleneck_latency_ps)
    for i in range(3):
        spec.on_host(f"rcv{i}", lambda h: BulkSink(port=5001, variant="dctcp"))
        dst = spec.addr_of(f"rcv{i}")
        spec.on_host(f"snd{i}", lambda h, d=dst: BulkSender(
            d, 5001, total_bytes=1_500_000, variant="dctcp"))
    return spec


def run_partitioned(use_trunk: bool, mode="strict", sampler=False,
                    bottleneck_latency_ps=2 * US, until=6 * MS,
                    split_senders=False):
    spec = bulk_spec(bottleneck_latency_ps)
    assignment = assign_hosts_with_switch(spec, {"swL": "L", "swR": "R"})
    if split_senders:
        # put the sender hosts in their own partition: three host links
        # cross the same partition pair, which is what trunking bundles
        for i in range(3):
            assignment[f"snd{i}"] = "SND"
    pb = instantiate(spec, assignment, use_trunk=use_trunk)
    sim = Simulation(mode=mode)
    for comp in pb.all_components():
        sim.add(comp)
    for ea, eb in pb.channels:
        sim.connect(ea, eb)
    work = WorkRecorder(100 * US)
    sim.observers.append(ProbeDriver(work))
    if sampler:
        sim.observers.append(ProbeDriver(TimelineCollector(), 500))
    t0 = time.perf_counter()
    stats = sim.run(until)
    wall = time.perf_counter() - t0
    syncs = sum(end.tx_syncs for comp in pb.all_components()
                for end in comp.ends)
    delivered = [pb.host(f"rcv{i}").apps[0].delivered for i in range(3)]
    return dict(stats=stats, wall=wall, syncs=syncs, delivered=delivered,
                pb=pb, sim=sim, work=work)


def test_ablation_trunk_adapter(benchmark):
    trunk = run_once(benchmark,
                     lambda: run_partitioned(use_trunk=True,
                                             split_senders=True))
    plain = run_partitioned(use_trunk=False, split_senders=True)

    n_trunk = len(trunk["pb"].channels)
    n_plain = len(plain["pb"].channels)
    print_table("Ablation: trunk adapter vs per-link channels",
                ["config", "channels", "sync msgs", "delivered"],
                [["trunk", n_trunk, trunk["syncs"], sum(trunk["delivered"])],
                 ["per-link", n_plain, plain["syncs"], sum(plain["delivered"])]])
    save_results("ablation_trunk", {
        "trunk_syncs": trunk["syncs"], "plain_syncs": plain["syncs"]})

    # identical simulation results
    assert trunk["delivered"] == plain["delivered"]
    # trunking pays the sync cost once instead of per cut link
    assert trunk["syncs"] < 0.6 * plain["syncs"]


def test_ablation_sync_discipline_same_partitioning(benchmark):
    out = run_once(benchmark,
                   lambda: run_partitioned(use_trunk=True, mode="fast"))
    sim = out["sim"]
    names = [c.name for c in sim.components]
    model = ParallelExecutionModel(out["work"], 6 * MS,
                                   model_channels(sim.channels),
                                   components=names)
    split = model.run("splitsim")
    barrier = model.run("barrier")
    nullmsg = model.run("nullmsg")
    print_table("Ablation: sync discipline on identical partitioning",
                ["discipline", "modeled wall s"],
                [[d.discipline, f"{d.wall_seconds:.4f}"]
                 for d in (split, nullmsg, barrier)])
    save_results("ablation_sync_discipline", {
        "splitsim": split.wall_seconds,
        "nullmsg": nullmsg.wall_seconds,
        "barrier": barrier.wall_seconds})
    assert split.wall_seconds <= nullmsg.wall_seconds
    assert split.wall_seconds <= barrier.wall_seconds


def test_ablation_profiler_overhead(benchmark):
    with_prof = run_once(benchmark,
                         lambda: run_partitioned(True, sampler=True))
    without = run_partitioned(True, sampler=False)
    print_table("Ablation: profiler instrumentation overhead",
                ["config", "wall s", "delivered"],
                [["profiling on", f'{with_prof["wall"]:.2f}',
                  sum(with_prof["delivered"])],
                 ["profiling off", f'{without["wall"]:.2f}',
                  sum(without["delivered"])]])
    save_results("ablation_profiler_overhead", {
        "with": with_prof["wall"], "without": without["wall"]})
    # results unchanged; overhead below 50% even in this interpreter
    assert with_prof["delivered"] == without["delivered"]
    assert with_prof["wall"] < 2.0 * max(without["wall"], 0.05)


def test_ablation_lookahead_sensitivity(benchmark):
    short = run_once(benchmark,
                     lambda: run_partitioned(True,
                                             bottleneck_latency_ps=500 * NS))
    long = run_partitioned(True, bottleneck_latency_ps=4 * US)
    print_table("Ablation: lookahead (cut-link latency) vs sync rounds",
                ["lookahead", "coordinator rounds", "sync msgs"],
                [["500ns", short["stats"].rounds, short["syncs"]],
                 ["4us", long["stats"].rounds, long["syncs"]]])
    save_results("ablation_lookahead", {
        "short_rounds": short["stats"].rounds,
        "long_rounds": long["stats"].rounds})
    # smaller lookahead -> more synchronization rounds
    assert short["stats"].rounds > 1.5 * long["stats"].rounds
