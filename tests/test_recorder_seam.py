"""The recorder seam: one probe/collector pair runs in fast, strict and mp.

A toy recorder defined *here* — not in ``repro`` — goes through all three
runtimes unmodified, which is the point of the seam: adding a recorder
needs no runtime edit.  Also pins the observer call protocol and that the
in-process and multiprocess timelines, and the profiler's WTPG of them,
come out of the same collector class.
"""

import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from repro.bench.mp import AUDIT_WINDOW_PS, RingForwarder, pipeline_specs
from repro.kernel.simtime import US
from repro.obs.audit import AuditCollector, load_audit
from repro.obs.recorder import ProbeDriver
from repro.obs.timeline import TimelineCollector, load_timeline
from repro.parallel import procrunner
from repro.parallel.model import WorkRecorder
from repro.parallel.procrunner import ProcessRunner
from repro.parallel.simulation import Observer, Simulation
from repro.profiler.postprocess import analyze
from repro.profiler.wtpg import build_wtpg

from .pins import as_pinned, path as pin_path, pinned

UNTIL_PS = 50 * US
#: a timeline in the format before the per-edge wait: a fixture the
#: readers must still load (its simulated columns are the pin
#: ``pipeline_timeline``)
PARENT_TIMELINE = Path(__file__).parent / "data" / "parent_timeline.jsonl"


def pipeline_sim(n, mode):
    sim = Simulation(mode=mode)
    comps = [sim.add(RingForwarder(f"s{i}", i, n)) for i in range(n)]
    for i in range(n):
        sim.connect(comps[i].next, comps[(i + 1) % n].prev)
    return sim


# -- what every collector shares ----------------------------------------------

def test_collector_partial_names_components_without_a_result(tmp_path):
    # what an mp run with a crashed child leaves behind: every collector
    # names the component whose result never arrived, the timeline document
    # states it, and the experiment refuses to analyze the record
    from repro.orchestration.instantiate import Instantiation

    from .test_run_mp import kv_system

    exp = Instantiation(kv_system(), timeline=True,
                        work_window_ps=10 * US).build()
    names = [c.name for c in exp.sim.components]
    work, timeline = exp.recorders["work"], exp.recorders["timeline"]
    for rec in (work, timeline):
        rec.begin(names, UNTIL_PS, "mp")
        for name in names[1:]:
            rec.note_result(name, None)
        assert rec.partial == [names[0]]
    timeline.save(str(tmp_path / "timeline.jsonl"))
    assert load_timeline(str(tmp_path / "timeline.jsonl")).partial == \
        [names[0]]
    with pytest.raises(ValueError, match=names[0]):
        exp.execution_model(UNTIL_PS)
    with pytest.raises(ValueError, match=names[0]):
        exp.profile_analysis()
    work.note_result(names[0], None)
    assert work.partial == []


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

    def begin(self, components, until_ps, mode):
        self.mode = mode
        self.beats = {c: 0 for c in components}
        self.results = {}

    def note(self, comp, beat, payload):
        self.beats[comp] += payload

    def note_result(self, comp, payload):
        self.results[comp] = payload["events"]

    def save(self, path):
        raise AssertionError("a run directory names no artifact for it")


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
def test_toy_recorder_runs_multiprocess(monkeypatch):
    monkeypatch.setattr(procrunner, "HB_INTERVAL_S", 0.001)
    specs, channels = pipeline_specs(2)
    runner = ProcessRunner(specs, channels)
    toy = CountCollector()
    runner.recorders.append(toy)
    results = runner.run(UNTIL_PS, timeout_s=120)
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


# -- (c) one collector class for in-process and mp ----------------------------

def _totals(rows):
    """Per-component events, work and messages per peer, and the profiler's
    WTPG nodes and edges."""
    out = {}
    for row in rows:
        tot = out.setdefault(row.comp, {"events": 0, "work": 0.0, "msgs": {}})
        tot["events"] += row.events
        tot["work"] += row.work_cycles
        for peer, (msgs, _syncs) in row.edges.items():
            tot["msgs"][peer] = tot["msgs"].get(peer, 0) + msgs
    graph = build_wtpg(analyze(rows))
    return out, set(graph.nodes), set(graph.edges)


def _timeline_view(timeline, stats):
    view = _totals(timeline.rows)
    assert {c: t["events"] for c, t in view[0].items()} == \
        stats.per_component_events
    assert view[1] == set(stats.per_component_events)
    assert view[2] == {("s0", "s1"), ("s1", "s0")}
    return view


def _work_view(work, stats):
    assert {c: work.total_work(c) for c in work.work} == \
        stats.per_component_work
    assert set(work.msgs) == {("s0", "s1"), ("s1", "s0")}
    return work.work, work.msgs


#: name -> (collector factory, its comparable view)
AGREEING = {
    "timeline": (TimelineCollector, _timeline_view),
    "work": (lambda: WorkRecorder(AUDIT_WINDOW_PS), _work_view),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(AGREEING))
def test_inproc_and_mp_timelines_agree(tmp_path, monkeypatch, name):
    make, view = AGREEING[name]
    monkeypatch.setattr(procrunner, "HB_INTERVAL_S", 0.001)
    sim = pipeline_sim(2, "strict")
    inproc = make()
    sim.observers.append(ProbeDriver(inproc, interval_rounds=16))
    stats = sim.run(UNTIL_PS)

    specs, channels = pipeline_specs(2)
    runner = ProcessRunner(specs, channels)
    mp = make()
    runner.recorders.append(mp)
    runner.run(UNTIL_PS, timeout_s=120, rundir=str(tmp_path))

    assert (inproc.mode, mp.mode) == ("strict", "mp")
    assert view(mp, stats) == view(inproc, stats)
    # the run directory holds the timeline's artifact; work writes none
    saved = tmp_path / "timeline.jsonl"
    assert saved.exists() == (name == "timeline")
    if saved.exists():
        assert _totals(load_timeline(str(saved)).rows) == view(mp, stats)


# -- artifacts written by the parent commit still load, and are still written --

def _strict_pipeline(*collectors, interval_rounds=16):
    sim = pipeline_sim(3, "strict")
    for collector in collectors:
        sim.observers.append(ProbeDriver(collector, interval_rounds))
    sim.run(UNTIL_PS)


def pipeline_audit() -> str:
    """The pin ``parent_audit``: the 3-stage strict pipeline's ledger."""
    collector = AuditCollector(window_ps=AUDIT_WINDOW_PS)
    _strict_pipeline(collector)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "audit.jsonl")
        collector.save(path)
        return Path(path).read_text()


def pipeline_timeline() -> TimelineCollector:
    collector = TimelineCollector(meta={"net_switches": {}})
    _strict_pipeline(collector)
    return collector


def simulated(rows) -> list:
    """Every column but the two wall-clock ones, which make a timeline
    impossible to reproduce byte for byte."""
    return as_pinned([(row.comp, row.epoch, row.sim_ps, row.events,
                       row.work_cycles, row.wait_cycles, row.comm_cycles,
                       row.ring_fill, row.edges, row.counters)
                      for row in rows])


def pipeline_columns() -> list:
    """The pin ``pipeline_timeline``: the simulated columns of the
    pipeline's timeline."""
    return simulated(pipeline_timeline().rows)


def test_parent_audit_ledger_loads_and_is_reproduced(tmp_path):
    old = load_audit(str(pin_path("parent_audit")))
    assert (old.mode, old.until_ps, old.window_ps) == \
        ("strict", UNTIL_PS, AUDIT_WINDOW_PS)
    assert old.components == ["s0", "s1", "s2"] and old.rows and old.root

    path = tmp_path / "audit.jsonl"
    path.write_text(pipeline_audit())
    new = load_audit(str(path))
    assert new.header == old.header
    assert new.rows == old.rows
    assert new.root == old.root
    assert new.component_digests() == old.component_digests()
    assert new.final == old.final
    # the ledger is deterministic, so the file itself has not changed
    assert path.read_text() == pin_path("parent_audit").read_text()


def test_parent_timeline_loads_and_is_reproduced(tmp_path):
    old = load_timeline(str(PARENT_TIMELINE))
    assert old.mode == "strict" and old.components == ["s0", "s1", "s2"]
    assert old.meta == {"net_switches": {}}

    collector = pipeline_timeline()
    path = tmp_path / "timeline.jsonl"
    header = collector.save(str(path))
    new = load_timeline(str(path))
    assert new.header == header == old.header
    assert simulated(new.rows) == simulated(collector.rows) == \
        pinned("pipeline_timeline")
    # rows written before the per-edge wait existed read as none
    assert all(r.edge_wait == {} for r in old.rows)
    assert all(r.edge_wait for r in new.rows)
    # same keys per line kind, in the same order; the per-edge wait ("w")
    # comes after a row's keys, where the parent's reader skips it (the
    # row count is the pin's)
    old_header, old_rows = _line_keys(PARENT_TIMELINE)
    new_header, new_rows = _line_keys(path)
    assert new_header == old_header
    assert {keys[:-1] if keys[-1] == "w" else keys
            for keys in new_rows} == old_rows


def _line_keys(path):
    """A JSONL document's header keys and the set of its rows' keys."""
    header, *rows = path.read_text().splitlines()
    return list(json.loads(header)), {tuple(json.loads(r)) for r in rows}


# -- the shared JSONL reader: every line must be a JSON object ---------------

def _inspect_timeline(path):
    from repro.obs.inspect import main
    return main(["timeline", path])


def _profile(path):
    from repro.obs.inspect import main
    return main(["profile", path])


def _inspect_diff(path):
    from repro.obs.inspect import main
    return main(["diff", path, path])


#: noun -> (loader, the parent's document, the CLIs that open one with
#: their exit status for a broken input: ``diff``'s is "not comparable")
DOCS = {
    "timeline": (load_timeline, PARENT_TIMELINE,
                 ((_inspect_timeline, 1), (_profile, 1))),
    "audit": (load_audit, pin_path("parent_audit"), ((_inspect_diff, 2),)),
}


@pytest.mark.parametrize("noun", sorted(DOCS))
@pytest.mark.parametrize("lines,error", [
    (['[1, 2]'], "{path}: bad {noun} header"),
    (['"a string"'], "{path}: bad {noun} header"),
    ([None, '[1]'], "{path}:2: corrupt {noun} row"),
    ([None, '"row"'], "{path}:2: corrupt {noun} row"),
], ids=["list-header", "string-header", "list-row", "string-row"])
def test_a_line_that_is_not_an_object_is_a_clean_error(tmp_path, capsys,
                                                       noun, lines, error):
    load, parent, clis = DOCS[noun]
    header = parent.read_text().splitlines()[0]
    path = str(tmp_path / f"{noun}.jsonl")
    Path(path).write_text(
        "\n".join(header if line is None else line for line in lines) + "\n")
    want = error.format(path=path, noun=noun)
    with pytest.raises(ValueError, match="^" + re.escape(want)):
        load(path)
    for cli, status in clis:
        assert cli(path) == status
        assert want in capsys.readouterr().err
