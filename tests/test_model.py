"""Tests for the virtual-time parallel execution model."""

import pytest

from repro.kernel.simtime import NS, US
from repro.parallel.costmodel import CommCosts, Machine, barrier_cost_cycles
from repro.parallel.model import (ModelChannel, ParallelExecutionModel,
                                  WorkRecorder, scale_recorder)

SIM_TIME = 100 * US
WINDOW = 1 * US


def uniform_recorder(names, cycles_per_window, n_windows=100):
    rec = WorkRecorder(WINDOW)
    for name in names:
        for w in range(n_windows):
            rec.note_work(name, w * WINDOW, cycles_per_window)
    return rec


def chain_channels(names, latency=500 * NS):
    return [ModelChannel(names[i], names[i + 1], latency)
            for i in range(len(names) - 1)]


def test_balanced_parallel_speedup():
    names = [f"c{i}" for i in range(4)]
    rec = uniform_recorder(names, 10_000)
    model = ParallelExecutionModel(rec, SIM_TIME, chain_channels(names))
    seq = model.run("splitsim", groups={n: "one" for n in names})
    par = model.run("splitsim")
    assert par.n_procs == 4
    assert seq.n_procs == 1
    speedup = seq.wall_seconds / par.wall_seconds
    assert 2.5 < speedup <= 4.0


def test_grouped_channels_cost_nothing():
    names = ["a", "b"]
    rec = uniform_recorder(names, 5_000)
    model = ParallelExecutionModel(rec, SIM_TIME, chain_channels(names))
    grouped = model.run("splitsim", groups={"a": "g", "b": "g"})
    for stats in grouped.components.values():
        assert stats.comm_cycles == 0
        assert stats.wait_cycles == 0


def test_imbalanced_workload_bottleneck_and_waits():
    rec = uniform_recorder(["slow"], 50_000)
    for w in range(100):
        rec.note_work("fast", w * WINDOW, 1_000)
    model = ParallelExecutionModel(
        rec, SIM_TIME, [ModelChannel("slow", "fast", 500 * NS)])
    res = model.run("splitsim")
    assert res.components["fast"].wait_cycles > 0
    assert res.components["slow"].wait_cycles == 0
    assert res.components["slow"].efficiency > res.components["fast"].efficiency
    # the edge wait attribution points from fast to slow
    assert res.edge_wait_cycles.get(("fast", "slow"), 0) > 0


def test_barrier_never_faster_than_splitsim():
    names = [f"c{i}" for i in range(6)]
    rec = uniform_recorder(names, 8_000)
    # add imbalance so the barrier actually hurts
    for w in range(0, 100, 3):
        rec.note_work("c0", w * WINDOW, 40_000)
    model = ParallelExecutionModel(rec, SIM_TIME, chain_channels(names))
    split = model.run("splitsim")
    barrier = model.run("barrier")
    assert barrier.wall_seconds >= split.wall_seconds


def test_nullmsg_costlier_than_splitsim():
    names = [f"c{i}" for i in range(4)]
    rec = uniform_recorder(names, 8_000)
    model = ParallelExecutionModel(rec, SIM_TIME, chain_channels(names))
    split = model.run("splitsim")
    nullm = model.run("nullmsg")
    assert nullm.wall_seconds > split.wall_seconds


def test_sync_overhead_grows_with_partitions():
    """Over-partitioning a fixed workload eventually slows it down (Fig 9)."""
    n = 16
    names = [f"c{i}" for i in range(n)]
    rec = uniform_recorder(names, 50)  # tiny work per component
    channels = chain_channels(names, latency=100 * NS)
    model = ParallelExecutionModel(rec, SIM_TIME, channels)
    one = model.run("splitsim", groups={m: "p0" for m in names})
    # fully split: per-window sync costs dominate the tiny work
    split = model.run("splitsim")
    assert split.wall_seconds > one.wall_seconds


def test_contention_when_procs_exceed_cores():
    names = [f"c{i}" for i in range(8)]
    rec = uniform_recorder(names, 10_000)
    model_small = ParallelExecutionModel(
        rec, SIM_TIME, chain_channels(names), machine=Machine(cores=2))
    model_big = ParallelExecutionModel(
        rec, SIM_TIME, chain_channels(names), machine=Machine(cores=48))
    constrained = model_small.run("splitsim")
    free = model_big.run("splitsim")
    assert constrained.wall_seconds > free.wall_seconds


def test_msg_costs_charged_to_both_endpoints():
    rec = uniform_recorder(["a", "b"], 1_000)
    for w in range(100):
        rec.note_msg("a", "b", w * WINDOW)
    model = ParallelExecutionModel(rec, SIM_TIME,
                                   [ModelChannel("a", "b", 500 * NS)])
    res = model.run("splitsim")
    base = ParallelExecutionModel(
        uniform_recorder(["a", "b"], 1_000), SIM_TIME,
        [ModelChannel("a", "b", 500 * NS)]).run("splitsim")
    assert res.components["a"].comm_cycles > 0
    assert res.makespan_cycles > 0
    assert res.components["b"].comm_cycles >= base.components["b"].comm_cycles


def test_sim_speed_and_core_seconds():
    rec = uniform_recorder(["a"], 24_000)  # 2.4e6 cycles = 1ms at 2.4GHz
    model = ParallelExecutionModel(rec, SIM_TIME, [])
    res = model.run("splitsim")
    assert res.wall_seconds == pytest.approx(2.4e6 / 2.4e9)
    assert res.sim_speed == pytest.approx((SIM_TIME / 1e12) / res.wall_seconds)
    assert res.core_seconds == pytest.approx(res.wall_seconds)


def test_sequential_makespan_sums_work():
    # one process for every component: the work serializes
    rec = uniform_recorder(["a", "b"], 1_000, n_windows=10)
    model = ParallelExecutionModel(rec, 10 * WINDOW,
                                   chain_channels(["a", "b"]))
    res = model.run("splitsim", groups={"a": "seq", "b": "seq"})
    assert res.wall_seconds == pytest.approx(2 * 10 * 1_000 / 2.4e9)


def test_scale_recorder():
    rec = uniform_recorder(["a"], 1_000, n_windows=5)
    rec.note_msg("a", "b", 0)
    scaled = scale_recorder(rec, 2.0)
    assert scaled.total_work("a") == pytest.approx(2 * rec.total_work("a"))
    assert scaled.msgs == rec.msgs
    # original untouched
    assert rec.total_work("a") == pytest.approx(5_000)


def test_comm_costs_and_barrier_cost():
    assert CommCosts.for_discipline("splitsim").msg_cycles < \
        CommCosts.for_discipline("nullmsg").msg_cycles
    assert CommCosts.for_discipline("barrier").uses_barrier
    with pytest.raises(ValueError):
        CommCosts.for_discipline("psychic")
    assert barrier_cost_cycles(1) == 0
    assert barrier_cost_cycles(32) > barrier_cost_cycles(4)


def test_summary_renders():
    rec = uniform_recorder(["a", "b"], 1_000, n_windows=3)
    model = ParallelExecutionModel(rec, 3 * WINDOW,
                                   [ModelChannel("a", "b", 500 * NS)])
    text = model.run("splitsim").summary()
    assert "discipline=splitsim" in text
    assert "a:" in text and "b:" in text


def test_machine_and_comm_costs_are_immutable_and_hashable():
    m = Machine(cores=8, ghz=3.0)
    assert m == Machine(8, 3.0) and hash(m) == hash(Machine(8, 3.0))
    assert len({m, Machine(8, 3.0), Machine(8, 2.0)}) == 2
    costs = CommCosts.for_discipline("barrier")
    assert hash(costs) == hash(CommCosts.for_discipline("barrier"))
    with pytest.raises(AttributeError):
        m.cores = 16
    with pytest.raises(AttributeError):
        del costs.msg_cycles
    assert m.cores == 8 and costs.uses_barrier
