"""The recorder seam: one probe/collector pair runs in fast, strict and mp.

A toy recorder defined *here* — not in ``repro`` — goes through all three
runtimes unmodified, which is the point of the seam: adding a recorder
needs no runtime edit.  Also pins the observer call protocol and that the
in-process and multiprocess timelines come out of the same collector.
"""

import json
from pathlib import Path

import pytest

from repro.bench.mp import AUDIT_WINDOW_PS, RingForwarder, pipeline_specs
from repro.kernel.simtime import US
from repro.obs.audit import AuditCollector, load_audit
from repro.obs.recorder import ProbeDriver
from repro.obs.timeline import TimelineCollector, load_timeline
from repro.parallel.procrunner import ProcessRunner
from repro.parallel.simulation import Observer, Simulation

UNTIL_PS = 50 * US
DATA = Path(__file__).parent / "data"


def pipeline_sim(n, mode):
    sim = Simulation(mode=mode)
    comps = [sim.add(RingForwarder(f"s{i}", i, n)) for i in range(n)]
    for i in range(n):
        sim.connect(comps[i].next, comps[(i + 1) % n].prev)
    return sim


# -- (a) a recorder the runtimes have never heard of --------------------------

class CountProbe:
    """Events executed since the previous beat."""

    name = "count"

    def __init__(self, comp):
        self.comp = comp
        self.seen = 0

    def beat(self, commit_ps):
        fresh = self.comp.events_processed - self.seen
        self.seen += fresh
        return fresh

    def result(self):
        return {"events": self.comp.events_processed}


class CountCollector:
    name = "count"
    probe = CountProbe
    path = None

    def begin(self, components, until_ps, mode):
        self.mode = mode
        self.beats = {c: 0 for c in components}
        self.results = {}

    def note(self, comp, beat, payload):
        self.beats[comp] += payload

    def note_result(self, comp, payload):
        self.results[comp] = payload["events"]

    def save(self, path=None):
        raise AssertionError("no path, nothing to save")

    def report_field(self):
        return self.name, self.path


@pytest.mark.parametrize("mode", ["fast", "strict"])
def test_toy_recorder_runs_in_process(mode):
    sim = pipeline_sim(2, mode)
    toy = CountCollector()
    sim.observers.append(ProbeDriver(toy, interval_rounds=8))
    stats = sim.run(UNTIL_PS)
    assert toy.mode == mode
    assert stats.events > 0
    assert toy.beats == toy.results == stats.per_component_events
    assert sum(toy.beats.values()) == stats.events


@pytest.mark.slow
def test_toy_recorder_runs_multiprocess():
    specs, channels = pipeline_specs(2)
    runner = ProcessRunner(specs, channels)
    toy = CountCollector()
    runner.recorders.append(toy)
    results = runner.run(UNTIL_PS, timeout_s=120, hb_interval_s=0.001)
    assert toy.mode == "mp"
    events = {name: res.events for name, res in results.items()}
    assert sum(events.values()) > 0
    assert toy.beats == toy.results == events
    assert {n: r.extras["count"] for n, r in results.items()} == \
        {n: {"events": e} for n, e in events.items()}


# -- (b) the observer call protocol -------------------------------------------

class Journal(Observer):
    def __init__(self):
        self.calls = []

    def start(self, sim, until_ps):
        self.calls.append(("start", sim.mode, until_ps))

    def on_round(self, rounds, done):
        self.calls.append(("round", rounds, done))

    def finish(self):
        self.calls.append(("finish",))


def test_strict_observer_sees_start_rounds_finish():
    sim = pipeline_sim(2, "strict")
    journal = Journal()
    sim.observers.append(journal)
    stats = sim.run(UNTIL_PS)
    calls = journal.calls
    assert calls[0] == ("start", "strict", UNTIL_PS)
    assert calls[-1] == ("finish",)
    rounds = calls[1:-1]
    assert [c[1] for c in rounds] == list(range(1, stats.rounds + 1))
    assert [c[2] for c in rounds] == [False] * (stats.rounds - 1) + [True]


def test_sparse_observer_is_called_every_nth_round_and_on_the_last():
    sim = pipeline_sim(2, "strict")
    journal = Journal()
    journal.every = 4
    sim.observers.append(journal)
    stats = sim.run(UNTIL_PS)
    seen = [c[1] for c in journal.calls[1:-1]]
    assert seen == sorted(set(range(4, stats.rounds + 1, 4)) | {stats.rounds})
    assert [c[2] for c in journal.calls[1:-1]] == \
        [False] * (len(seen) - 1) + [True]


def test_fast_observer_sees_start_finish_only():
    sim = pipeline_sim(2, "fast")
    journal = Journal()
    sim.observers.append(journal)
    sim.run(UNTIL_PS)
    assert journal.calls == [("start", "fast", UNTIL_PS), ("finish",)]


def test_observer_base_class_is_a_no_op():
    sim = pipeline_sim(2, "strict")
    sim.observers.append(Observer())
    assert sim.run(UNTIL_PS).events > 0


# -- (c) one timeline collector for in-process and mp -------------------------

def _totals(rows):
    out = {}
    for row in rows:
        tot = out.setdefault(row.comp, {"events": 0, "work": 0.0, "msgs": {}})
        tot["events"] += row.events
        tot["work"] += row.work_cycles
        for peer, (msgs, _syncs) in row.edges.items():
            tot["msgs"][peer] = tot["msgs"].get(peer, 0) + msgs
    return out


@pytest.mark.slow
def test_inproc_and_mp_timelines_agree(tmp_path):
    sim = pipeline_sim(2, "strict")
    inproc = TimelineCollector()
    sim.observers.append(ProbeDriver(inproc, interval_rounds=16))
    stats = sim.run(UNTIL_PS)

    specs, channels = pipeline_specs(2)
    runner = ProcessRunner(specs, channels)
    mp = TimelineCollector(str(tmp_path / "timeline.jsonl"))
    runner.recorders.append(mp)
    runner.run(UNTIL_PS, timeout_s=120, hb_interval_s=0.001)

    assert type(inproc) is type(mp)
    assert (inproc.mode, mp.mode) == ("strict", "mp")
    want = _totals(inproc.rows)
    assert {c: t["events"] for c, t in want.items()} == \
        stats.per_component_events
    assert _totals(mp.rows) == want
    assert _totals(load_timeline(mp.path).rows) == want


# -- artifacts written by the parent commit still load, and are still written --

def _strict_pipeline(*collectors, interval_rounds=16):
    sim = pipeline_sim(3, "strict")
    for collector in collectors:
        sim.observers.append(ProbeDriver(collector, interval_rounds))
    sim.run(UNTIL_PS)


def test_parent_audit_ledger_loads_and_is_reproduced(tmp_path):
    old = load_audit(str(DATA / "parent_audit.jsonl"))
    assert (old.mode, old.until_ps, old.window_ps) == \
        ("strict", UNTIL_PS, AUDIT_WINDOW_PS)
    assert old.components == ["s0", "s1", "s2"] and old.rows and old.root

    collector = AuditCollector(window_ps=AUDIT_WINDOW_PS)
    _strict_pipeline(collector)
    path = tmp_path / "audit.jsonl"
    collector.save(str(path))
    new = load_audit(str(path))
    assert new.header == old.header
    assert new.rows == old.rows
    assert new.root == old.root
    assert new.component_digests() == old.component_digests()
    assert new.final == old.final
    # the ledger is deterministic, so the file itself has not changed
    assert path.read_text() == (DATA / "parent_audit.jsonl").read_text()


def test_parent_timeline_loads_and_is_reproduced(tmp_path):
    old = load_timeline(str(DATA / "parent_timeline.jsonl"))
    assert old.mode == "strict" and old.components == ["s0", "s1", "s2"]
    assert old.meta == {"net_switches": {}}

    collector = TimelineCollector(meta={"net_switches": {}})
    _strict_pipeline(collector)
    path = tmp_path / "timeline.jsonl"
    header = collector.save(str(path))
    new = load_timeline(str(path))
    assert new.header == header == old.header

    def simulated(row):  # every column but the two wall-clock ones
        return (row.comp, row.epoch, row.sim_ps, row.events,
                row.work_cycles, row.wait_cycles, row.comm_cycles,
                row.ring_fill, row.edges, row.counters)

    assert [simulated(r) for r in new.rows] == \
        [simulated(r) for r in old.rows]
    # same keys per line, in the same order
    old_lines = (DATA / "parent_timeline.jsonl").read_text().splitlines()
    new_lines = path.read_text().splitlines()
    assert [list(json.loads(line)) for line in new_lines] == \
        [list(json.loads(line)) for line in old_lines]
