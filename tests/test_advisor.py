"""Partition advisor: cost-model fit, prediction, and the measure→place loop."""

import json

import pytest

from repro.kernel.simtime import MS, US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.topology import datacenter
from repro.obs.timeline import EpochRow, Timeline
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.strategies import partition_from_file, strategy_rs
from repro.orchestration.system import System
from repro.parallel.advisor import (FittedCosts, PARTITION_KIND,
                                    PARTITION_SCHEMA, fit_costs,
                                    load_partition, predict_epoch_cycles,
                                    recommend_partition, write_partition)
from repro.parallel.costmodel import CommCosts
from repro.profiler.postprocess import analyze


def synthetic_timeline(rows, components, meta=None):
    header = {"schema": 1, "kind": "splitsim-timeline", "mode": "strict",
              "until_ps": 1000, "components": components,
              "meta": meta or {}}
    return Timeline(header, rows)


def make_row(comp, epoch, work, wait=0.0, comm=0.0, events=1, edges=None):
    return EpochRow(comp=comp, epoch=epoch, sim_ps=1000 * epoch,
                    wall_s=0.1 * epoch, events=events, work_cycles=work,
                    wait_cycles=wait, comm_cycles=comm,
                    events_per_sec=10.0, edges=edges or {})


# -- cost-model fit -----------------------------------------------------------

def test_fit_costs_averages_steady_phase_only():
    # idle warmup/drain epochs around a busy middle must not dilute rates
    rows = []
    for epoch, work in enumerate([0.0, 0.0, 100.0, 120.0, 110.0, 0.0]):
        rows.append(make_row("a", epoch, work, wait=work / 10,
                             events=int(work),
                             edges={"b": (int(work), 2)} if work else {}))
    costs = fit_costs(synthetic_timeline(rows, ["a"]))
    assert costs.components == ["a"]
    assert costs.work["a"] == pytest.approx(110.0)
    assert costs.events["a"] == pytest.approx(110.0)
    assert costs.edges[("a", "b")][0] == pytest.approx(110.0)
    assert costs.phases["a"] == {"warmup": 2, "steady": 3, "drain": 1}


def test_fit_costs_keeps_timeline_component_order():
    rows = [make_row("z", 0, 10.0), make_row("a", 0, 20.0)]
    costs = fit_costs(synthetic_timeline(rows, ["z", "a"]))
    assert costs.components == ["z", "a"]


def test_wait_fraction_matches_profiler_formula():
    # the plan ranks by the profiler's analysis of the steady rows
    rows = [make_row(comp, epoch, work, wait=wait, comm=100.0)
            for epoch in range(2)
            for comp, work, wait in (("c", 100.0, 800.0), ("b", 100.0, 800.0),
                                     ("a", 600.0, 300.0))]
    plan = recommend_partition(synthetic_timeline(rows, ["c", "b", "a"]))
    assert analyze(rows).components["a"].wait_fraction == pytest.approx(0.3)
    # least-waiting component leads the ranking (it is the bottleneck);
    # ties keep the timeline's component order
    assert plan.ranking == ["a", "c", "b"]
    assert plan.bottleneck == "a"


# -- makespan prediction ------------------------------------------------------

def two_comp_costs(msgs=10.0, syncs=4.0):
    return FittedCosts(components=["a", "b"],
                       work={"a": 1000.0, "b": 800.0}, events={},
                       edges={("a", "b"): (msgs, syncs)})


def test_predict_epoch_cycles_charges_cut_edges_to_both_sides():
    costs = two_comp_costs()
    comm = CommCosts.for_discipline("splitsim")
    cut = 10.0 * comm.msg_cycles + 4.0 * comm.sync_cycles

    makespan, per_proc = predict_epoch_cycles(
        costs, {"a": "p0", "b": "p1"}, comm)
    assert per_proc == {"p0": 1000.0 + cut, "p1": 800.0 + cut}
    assert makespan == 1000.0 + cut

    merged, per_proc = predict_epoch_cycles(
        costs, {"a": "all", "b": "all"}, comm)
    assert per_proc == {"all": 1800.0}  # intra-process edges are free
    assert merged == 1800.0


def test_predict_epoch_cycles_rejects_partial_assignment():
    with pytest.raises(ValueError, match="misses"):
        predict_epoch_cycles(two_comp_costs(), {"a": "p0"})


# -- recommendation -----------------------------------------------------------

def balanced_timeline(n_comps=4, work=1.0e6, msgs=2.0):
    """Heavy balanced components, light channels: decomposition pays."""
    rows = []
    comps = [f"c{i}" for i in range(n_comps)]
    for epoch in range(6):
        for i, comp in enumerate(comps):
            peer = comps[(i + 1) % n_comps]
            rows.append(make_row(comp, epoch, work, events=100,
                                 edges={peer: (int(msgs), 1)}))
    return synthetic_timeline(rows, comps)


def test_recommend_decomposes_balanced_heavy_workload():
    plan = recommend_partition(balanced_timeline())
    assert plan.n_procs > 1
    assert plan.speedup > 1.0
    assert plan.naive_assignment == {c: "all" for c in
                                     ["c0", "c1", "c2", "c3"]}
    assert plan.predicted_cycles < plan.naive_cycles
    assert set(plan.assignment) == {"c0", "c1", "c2", "c3"}


def test_recommend_falls_back_to_naive_when_comm_dominates():
    # tiny work, huge channel traffic: any cut costs more than it saves
    tl = balanced_timeline(n_comps=2, work=10.0, msgs=1000.0)
    plan = recommend_partition(tl)
    assert plan.assignment == plan.naive_assignment
    assert plan.n_procs == 1
    assert plan.speedup == 1.0


def test_recommend_rejects_empty_timeline():
    with pytest.raises(ValueError, match="no component rows"):
        recommend_partition(synthetic_timeline([], []))


def test_recommend_derives_switch_assignment_from_meta():
    tl = balanced_timeline()
    tl.header["meta"] = {"net_switches": {f"c{i}": [f"sw{i}"]
                                          for i in range(4)}}
    plan = recommend_partition(tl)
    assert plan.switch_assignment is not None
    assert set(plan.switch_assignment) == {"sw0", "sw1", "sw2", "sw3"}
    # labels match the recommended groups (modulo the net. prefix strip)
    assert set(plan.switch_assignment.values()) == \
        {g[4:] if g.startswith("net.") else g
         for g in set(plan.assignment.values())}


# -- persistence --------------------------------------------------------------

def test_partition_round_trip(tmp_path):
    plan = recommend_partition(balanced_timeline())
    path = tmp_path / "partition.json"
    doc = write_partition(str(path), plan)
    assert doc["schema"] == PARTITION_SCHEMA
    assert doc["kind"] == PARTITION_KIND
    assert doc["predicted"]["speedup"] == pytest.approx(plan.speedup)
    loaded = load_partition(str(path))
    assert loaded == doc
    assert loaded["assignment"] == plan.assignment
    assert loaded["naive"]["n_procs"] == 1


def test_load_partition_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError, match="bad partition"):
        load_partition(str(bad))

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "other", "schema": 1}))
    with pytest.raises(ValueError, match="not a partition"):
        load_partition(str(wrong))

    with pytest.raises(OSError):
        load_partition(str(tmp_path / "missing.json"))


def test_partition_from_file_requires_switch_assignment(tmp_path):
    path = tmp_path / "partition.json"
    plan = recommend_partition(balanced_timeline())
    assert plan.switch_assignment is None
    write_partition(str(path), plan)
    with pytest.raises(ValueError, match="switch_assignment"):
        partition_from_file(str(path))


# -- the measure -> place loop on a fig9-style workload -----------------------

def fig9_system(seed=7):
    spec = datacenter(aggs=2, racks_per_agg=2, hosts_per_rack=2)
    system = System.from_topospec(spec, seed=seed)
    system.app("a0r0h0", lambda h: KVServerApp())
    addr = system.addr_of("a0r0h0")
    for client in ("a1r1h0", "a1r1h1", "a0r1h0"):
        system.app(client, lambda h: KVClientApp([addr],
                                                 closed_loop_window=4))
    return system


@pytest.mark.slow
def test_recommend_beats_naive_and_agrees_with_profilers(tmp_path):
    """Acceptance pin: on a fig9-style workload the advisor's plan beats
    the naive single-process assignment, and its bottleneck agrees with
    the profiler's whole-run analysis."""
    exp = Instantiation(fig9_system(), network_partition=strategy_rs,
                        timeline=True, work_window_ps=10 * US).build()
    exp.run(2 * MS)
    header = exp.save("timeline", str(tmp_path / "timeline.jsonl"))
    assert header["mode"] == "strict"

    from repro.obs.timeline import load_timeline
    tl = load_timeline(str(tmp_path / "timeline.jsonl"))
    plan = recommend_partition(tl)

    assert plan.speedup > 1.0
    assert plan.n_procs > 1

    profiled = exp.profile_analysis()
    assert plan.bottleneck == profiled.bottlenecks(1)[0]

    # the recommendation closes the loop: its switch assignment rebuilds
    path = tmp_path / "partition.json"
    write_partition(str(path), plan)
    assignment = partition_from_file(str(path))
    re_exp = Instantiation(fig9_system(),
                           network_partition=assignment).build()
    assert {c.name for c in re_exp.sim.components} == \
        {c.name for c in exp.sim.components}
    assert set(assignment.values()) <= \
        {n.removeprefix("net.") for n in
         (c.name for c in re_exp.sim.components)}

