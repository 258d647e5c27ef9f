"""Tests for baseline (idle) simulation costs in the execution model."""

import pytest

from repro.kernel.simtime import MS, US
from repro.parallel.costmodel import (GEM5_BASELINE_CYCLES_PER_PS,
                                      QEMU_BASELINE_CYCLES_PER_PS, Machine)
from repro.parallel.model import (ModelChannel, ParallelExecutionModel,
                                  WorkRecorder)

SIM = 1 * MS
WINDOW = 10 * US


def empty_recorder():
    rec = WorkRecorder(WINDOW)
    rec.note_work("host", 0, 1.0)  # make the component known
    rec.note_work("net", 0, 1.0)
    return rec


def test_baseline_sets_wall_time_floor():
    rec = empty_recorder()
    model = ParallelExecutionModel(
        rec, SIM, [ModelChannel("host", "net", 500_000)],
        baselines={"host": QEMU_BASELINE_CYCLES_PER_PS})
    res = model.run("splitsim")
    machine = Machine()
    floor = machine.cycles_to_seconds(QEMU_BASELINE_CYCLES_PER_PS * SIM)
    assert res.wall_seconds >= floor * 0.99


def test_gem5_baseline_much_slower_than_qemu():
    def run(baseline):
        rec = empty_recorder()
        model = ParallelExecutionModel(
            rec, SIM, [ModelChannel("host", "net", 500_000)],
            baselines={"host": baseline})
        return model.run("splitsim").wall_seconds

    assert run(GEM5_BASELINE_CYCLES_PER_PS) > 10 * run(QEMU_BASELINE_CYCLES_PER_PS)


def test_baseline_follows_grouping():
    rec = empty_recorder()
    model = ParallelExecutionModel(
        rec, SIM, [ModelChannel("host", "net", 500_000)],
        baselines={"host": 1.0, "net": 1.0})
    split = model.run("splitsim")
    grouped = model.run("splitsim", groups={"host": "g", "net": "g"})
    # grouped: baselines serialize in one process
    assert grouped.wall_seconds > 1.5 * split.wall_seconds


def test_slowdown_factor_interpretation():
    """baseline cycles/ps divided by clock = slowdown; verify the docs."""
    machine = Machine(cores=48, ghz=2.4)
    slowdown = QEMU_BASELINE_CYCLES_PER_PS * 1e12 / machine.hz
    assert 50 < slowdown < 200  # qemu-icount territory
    slowdown_gem5 = GEM5_BASELINE_CYCLES_PER_PS * 1e12 / machine.hz
    assert 1000 < slowdown_gem5 < 20_000  # gem5 territory


def test_zero_baseline_changes_nothing():
    rec = empty_recorder()
    base = ParallelExecutionModel(rec, SIM, []).run("splitsim")
    with_zero = ParallelExecutionModel(rec, SIM, [],
                                       baselines={"host": 0.0}).run("splitsim")
    assert base.wall_seconds == with_zero.wall_seconds
