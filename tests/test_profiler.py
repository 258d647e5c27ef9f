"""Tests for the profiler's record (the epoch row), post-processing, and
the WTPG."""

from types import SimpleNamespace

import pytest

from repro.bench.mp import RingForwarder
from repro.channels.channel import ChannelEnd
from repro.kernel.component import Component
from repro.kernel.simtime import NS, SEC, US
from repro.parallel.model import (ModelChannel, ParallelExecutionModel,
                                  WorkRecorder)
from repro.obs.recorder import ProbeDriver
from repro.obs.timeline import (EpochRow, EpochTracker, TimelineCollector,
                                load_timeline, save_timeline)
from repro.parallel.simulation import Simulation
from repro.profiler.instrument import rows_from_model
from repro.profiler.postprocess import analyze
from repro.profiler.wtpg import (bottleneck_nodes, build_wtpg, to_dot,
                                 to_text)


def make_row(comp="c", epoch=0, wall=1.0, sim=0, wait=0.0, work=0.0,
             edge_wait=None):
    """One epoch's deltas; ``wall``/``sim`` are times since the run start."""
    return EpochRow(comp=comp, epoch=epoch, sim_ps=sim, wall_s=wall,
                    events=1, work_cycles=work, wait_cycles=wait,
                    comm_cycles=0.0, events_per_sec=0.0,
                    edge_wait={"p": wait} if edge_wait is None else edge_wait)


def test_record_json_roundtrip(tmp_path):
    rows = [make_row(wait=3.0, work=7.0), make_row(comp="d", edge_wait={}),
            make_row(epoch=1, wall=2.0, sim=10, wait=1.5, work=2.0)]
    path = tmp_path / "timeline.jsonl"
    save_timeline(str(path), rows, mode="strict", until_ps=10)
    loaded = load_timeline(str(path)).rows
    assert loaded == rows
    assert [r.edge_wait for r in loaded] == [{"p": 3.0}, {}, {"p": 1.5}]
    assert analyze(loaded) == analyze(rows)


def test_analyze_differences_counters():
    rows = [make_row(wall=1.0, sim=int(0.5e12), wait=2.4e8, work=1.2e9)]
    analysis = analyze(rows)
    # 0.5 simulated seconds in 1 wall second
    assert analysis.sim_speed == pytest.approx(0.5)
    cm = analysis.components["c"]
    assert cm.wait_cycles == pytest.approx(2.4e8)
    assert cm.work_cycles == pytest.approx(1.2e9)
    assert 0 < cm.efficiency < 1


def test_analyze_trims_warmup_records():
    # a warm-up epoch with garbage counters, then two clean ones
    rows = [make_row(epoch=e, wall=e + 1.0, sim=100 * (e + 1), wait=w)
            for e, w in enumerate([999.0, 1.0, 1.0])]
    assert analyze(rows, drop_head=0).components["c"].wait_cycles == 1001.0
    trimmed = analyze(rows, drop_head=1)
    assert trimmed.components["c"].wait_cycles == 2.0
    # the window starts where the dropped epochs end
    assert (trimmed.wall_seconds, trimmed.sim_seconds) == (2.0, 200 / SEC)
    assert analyze(rows, drop_tail=2).components["c"].wait_cycles == 999.0
    # a window that would be empty falls back to every epoch
    assert analyze(rows, drop_head=3).components["c"].wait_cycles == 1001.0
    with pytest.raises(ValueError, match="must not be negative"):
        analyze(rows, drop_head=-1)


def test_sampler_collects_from_live_components():
    # a two-stage token ring: each stage has two ends to the other
    sim = Simulation(mode="strict")
    a, b = sim.add(RingForwarder("a", 0, 2)), sim.add(RingForwarder("b", 1, 2))
    sim.connect(a.next, b.prev)
    sim.connect(b.next, a.prev)
    sim.add(Component("idle"))  # no channel end at all
    timeline = TimelineCollector()
    sim.observers.append(ProbeDriver(timeline, interval_rounds=1))
    sim.run(50 * US)
    analysis = analyze(timeline.rows)
    assert analysis.sim_seconds > 0
    # WTPG nodes are the simulators: an edge names the peer component, and
    # a component without ends is an isolated node that never waits
    assert set(analysis.edge_wait_fraction) == {("a", "b"), ("b", "a")}
    graph = build_wtpg(analysis)
    assert set(graph.nodes) == {"a", "b", "idle"}
    assert graph.nodes["idle"]["wait_fraction"] == 0.0


def _slow_fast_model():
    rec = WorkRecorder(1 * US)
    for w in range(50):
        rec.note_work("slow", w * US, 50_000)
        rec.note_work("fast", w * US, 1_000)
    return ParallelExecutionModel(rec, 50 * US,
                                  [ModelChannel("slow", "fast", 500 * NS)])


def test_rows_from_model_feeds_postprocess():
    analysis = analyze(rows_from_model(_slow_fast_model().run("splitsim")))
    assert analysis.components["fast"].wait_fraction > \
        analysis.components["slow"].wait_fraction
    assert analysis.bottlenecks(1) == ["slow"]


def test_single_process_model_has_no_phantom_node():
    result = _slow_fast_model().run("splitsim",
                                    groups={"slow": "p", "fast": "p"})
    graph = build_wtpg(analyze(rows_from_model(result)))
    assert list(graph.nodes) == ["p"]
    assert list(graph.edges) == []


def test_wtpg_structure_and_colors():
    analysis = analyze(rows_from_model(_slow_fast_model().run("splitsim")))
    graph = build_wtpg(analysis)
    assert set(graph.nodes) == {"slow", "fast"}
    # bottleneck (low wait) is red-ish: high red channel
    slow_color = graph.nodes["slow"]["color"]
    assert int(slow_color[1:3], 16) > 200
    assert "slow" in bottleneck_nodes(graph)
    assert "fast" not in bottleneck_nodes(graph, threshold=0.2)


def test_wtpg_renders_dot_and_text():
    rows = [make_row(sim=SEC // 100, wait=100.0, work=1000.0)]
    graph = build_wtpg(analyze(rows))
    dot = to_dot(graph, title="test")
    assert dot.startswith("digraph wtpg {")
    assert '"c"' in dot
    text = to_text(graph, title="test")
    assert "c" in text


def test_sample_component_snapshots_counters():
    comp = Component("x")
    ends = {peer_wait: comp.attach_end(ChannelEnd(f"x.{i}", latency=1 * NS),
                                       lambda m: None)
            for i, peer_wait in enumerate((("y", 3), ("y", 4), ("z", 0)))}
    for (peer, _), end in ends.items():
        end.peer_comp_name = peer
    tracker = EpochTracker(comp)  # counters are deltas from here
    for (_, wait), end in ends.items():
        end.tx_msgs = 5
        end.wait_cycles = wait
    timeline = TimelineCollector()
    beat = SimpleNamespace(wall_s=123e-9, events_per_sec=0.0, ring_fill=None)
    timeline.note("x", beat, tracker.beat(7))
    (row,) = timeline.rows
    # two ends to the same peer are one edge
    assert row.edges == {"y": (10, 0), "z": (5, 0)}
    assert row.edge_wait == {"y": 7, "z": 0}
    assert (row.wait_cycles, row.wall_s, row.sim_ps) == (7, 123e-9, 7)


# -- the timeline collector under the probe driver ------------------------------

def _one_end_component(name="x"):
    comp = Component(name)
    comp.attach_end(ChannelEnd(f"{name}.e", latency=1 * NS), lambda m: None)
    return comp


class _Sim:
    """What :meth:`ProbeDriver.start` reads of a simulation."""

    def __init__(self, components):
        self.components = components
        self.mode = "strict"


def _driven(components, rounds, interval=1):
    timeline = TimelineCollector()
    driver = ProbeDriver(timeline, interval_rounds=interval)
    driver.start(_Sim(components), 0)
    for r in range(1, rounds + 1):
        if r % driver.every == 0:  # the coordinator's cadence
            driver.on_round(r, False)
    return timeline.rows


def test_sampler_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        ProbeDriver(TimelineCollector(), interval_rounds=0)
    with pytest.raises(ValueError):
        ProbeDriver(TimelineCollector(), interval_rounds=-5)


def test_sampler_interval_one_samples_every_tick():
    assert len(_driven([_one_end_component()], rounds=7)) == 7


def test_sampler_interval_skips_between_samples():
    comp = _one_end_component()
    assert len(_driven([comp], rounds=9, interval=10)) == 0
    assert len(_driven([comp], rounds=10, interval=10)) == 1


def test_sampler_with_no_components_is_a_noop():
    rows = _driven([], rounds=100)
    assert len(rows) == 0
    assert analyze(rows).components == {}


def test_sampler_logs_one_entry_per_component_per_snapshot():
    """Every beat appends exactly one row per component."""
    comps = [_one_end_component(f"c{i}") for i in range(10)]
    assert len(_driven(comps, rounds=100)) == 10 * 100
