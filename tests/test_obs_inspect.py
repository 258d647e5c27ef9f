"""splitsim-inspect: the trace summary and the views over a run directory.

The summary's wait analysis reads the run's epoch timeline, the profiler's
one counter record; the trace keeps spans, instants and flow hops.
"""

import json

import pytest

from repro.kernel.simtime import MS, US
from repro.obs.inspect import main
from repro.obs.inspect.summary import (edge_wait_histograms, stall_points,
                                      stall_timeline, top_spans)
from repro.obs.inspect.timeline import timeline_warnings
from repro.obs.timeline import EpochRow
from repro.obs.trace import validate_chrome_doc
from repro.orchestration.instantiate import Instantiation

from .pins import pinned
from .test_obs_flows import kv_system


def strict_run(duration=2 * MS):
    exp = Instantiation(kv_system(), timeline=True, trace=True).build()
    exp.run(duration)
    return exp


def traced_strict_run(tmp_path, duration=2 * MS):
    exp = strict_run(duration)
    path = tmp_path / "trace.json"
    doc = exp.save("trace", str(path))
    exp.save("timeline", str(tmp_path / "timeline.jsonl"))
    return exp, doc, path


def _view(analysis):
    """Per-component wait fraction and efficiency, per-edge wait fraction:
    everything of an analysis but its wall clock."""
    return ({c: {"wait_fraction": m.wait_fraction, "efficiency": m.efficiency}
             for c, m in analysis.components.items()},
            {f"{a}->{b}": f for (a, b), f in
             analysis.edge_wait_fraction.items()})


def profile_views() -> dict:
    """The pin ``parent_profile_analysis``: the views of the strict run's
    analysis at ``drop_head=h + 1``, keyed by ``h``."""
    exp = strict_run()
    return {str(head): dict(zip(("components", "edges"), _view(
        exp.profile_analysis(drop_head=head + 1)))) for head in (0, 1)}


def test_timeline_analysis_reproduces_parent_profiler():
    """The analysis of the profiler's former per-adapter records (sampled
    every 64 rounds on this run, before the timeline row replaced them) at
    ``drop_head=h`` equals the timeline's at ``h + 1``: those records had
    no sample at t=0."""
    assert profile_views() == pinned("parent_profile_analysis")


def _summary(path, tmp_path, *extra):
    out = tmp_path / "summary.json"
    assert main([str(path), "--json", str(out), *extra]) == 0
    return json.loads(out.read_text())


def test_profiler_and_trace_wtpg_have_the_same_graph(tmp_path):
    """The summary's WTPG is the profiler's over every epoch."""
    exp, _, path = traced_strict_run(tmp_path)
    names = {c.name for c in exp.sim.components}
    profiled = exp.profile_analysis(drop_head=0)
    summary = _summary(path, tmp_path)
    assert summary["bottlenecks"] == profiled.bottlenecks(len(names))
    assert set(summary["bottlenecks"]) == names
    assert summary["edges"] == _view(profiled)[1]
    # post-processing only: a second call analyzes the same rows
    assert exp.profile_analysis() == exp.profile_analysis()


def test_a_run_dir_named_like_a_subcommand_is_summarized(tmp_path, capsys,
                                                        monkeypatch):
    # splitsim-run --out profile: the lone existing path is a RUN
    (tmp_path / "profile").mkdir()
    traced_strict_run(tmp_path / "profile", duration=200 * US)
    monkeypatch.chdir(tmp_path)
    assert main(["profile"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("profile: ") and "\nbottleneck ranking: " in out


def test_trace_edges_name_components(tmp_path):
    summary = _summary(traced_strict_run(tmp_path)[2], tmp_path)
    assert summary["edges"]  # strict runs always wait somewhere
    for edge, frac in summary["edges"].items():
        # edges are component -> peer component (WTPG node names)
        assert set(edge.split("->")) <= set(summary["bottlenecks"])
        assert 0.0 <= frac <= 1.0


def test_edge_wait_histograms_from_real_run(tmp_path):
    exp, _, _ = traced_strict_run(tmp_path)
    hists = edge_wait_histograms(exp.recorders["timeline"].rows)
    assert hists
    # at least one channel direction accumulated wait increments
    assert any(h.count > 0 for h in hists.values())


def test_summary_without_timeline_prints_the_hint(tmp_path, capsys):
    _, _, path = traced_strict_run(tmp_path)
    (tmp_path / "timeline.jsonl").unlink()
    assert _summary(path, tmp_path)["bottlenecks"] == []
    out = capsys.readouterr().out
    assert f"\nerror: {tmp_path} has no timeline.jsonl — rerun" in out
    assert "stall timeline" not in out and "wait-time profile" not in out


@pytest.mark.parametrize("args", [
    "--buckets=0", "--top=-2",
    "timeline --width=-5", "timeline --width=0",
    "flows --top=-1", "flows --top=0",
    "profile --bottlenecks=-1", "profile --bottlenecks=0"])
def test_summary_rejects_counts_below_one(args, capsys):
    """Every view's count argument is a usage error below 1: the summary's
    and each subcommand's."""
    *view, arg = args.split()
    with pytest.raises(SystemExit, match="2"):
        main([*view, "RUN", arg])
    assert "must be at least 1" in capsys.readouterr().err


# -- span/stall summaries on synthetic events ---------------------------------

def _ev(ph, name, ts, **kw):
    return {"ph": ph, "pid": 0, "tid": 1, "cat": "c", "name": name,
            "ts": ts, **kw}


def test_top_spans_groups_by_base_name():
    events = [
        _ev("X", "drain|a", 0.0, dur=5.0),
        _ev("X", "drain|b", 1.0, dur=3.0),
        _ev("X", "busy|x->y", 2.0, dur=100.0),
        _ev("i", "noise", 3.0, s="t"),
    ]
    ranked = top_spans(events, top=10)
    assert ranked[0]["name"] == "c/busy"
    drain = next(e for e in ranked if e["name"] == "c/drain")
    assert drain["count"] == 2 and drain["total_us"] == 8.0
    assert drain["max_us"] == 5.0


def test_stall_points_reads_instants_and_wait_spans():
    rows = [EpochRow(c, 0, 0, 1e-6, 1, 100.0, wait, 0.0, 0.0)  # 50.2%, 49.7%
            for c, wait in (("net", 101.0), ("host", 99.0))]  # vs 50% stall
    events = [
        _ev("X", "wait|server.nic", 2.0, dur=4.0),
        _ev("X", "drain|net", 3.0, dur=1.0),  # not a stall
    ]
    assert stall_points(events, rows) == [("net", 1.0), ("server.nic", 2.0)]
    timeline = stall_timeline(events, rows, buckets=8)
    assert "net" in timeline and "server.nic" in timeline
    assert stall_timeline([], []) == "  (no stalls recorded)"


# -- CLI end-to-end ------------------------------------------------------------

def test_cli_summarizes_and_writes_artifacts(tmp_path, capsys):
    _, trace, path = traced_strict_run(tmp_path)
    assert validate_chrome_doc(trace) == []
    kinds = {(e["ph"], e["name"].split("|")[0]) for e in trace["traceEvents"]}
    assert not kinds & {("C", "comp"), ("C", "chan"), ("i", "stall")}
    dot = tmp_path / "wtpg.dot"
    doc = _summary(path, tmp_path, "--dot", str(dot))
    out = capsys.readouterr().out
    assert "top spans" in out and "bottleneck ranking:" in out
    assert dot.read_text().startswith("digraph wtpg {")
    assert doc["bottlenecks"] and doc["top_spans"]


def test_cli_rejects_invalid_trace(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": "nope"}')
    assert main([str(bad)]) == 1
    assert "not a valid trace" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main([str(missing)]) == 1


# -- graceful failure (no tracebacks) -----------------------------------------

def test_cli_reports_missing_path_clearly(tmp_path, capsys):
    assert main([str(tmp_path / "nope.json")]) == 1
    err = capsys.readouterr().err
    assert "does not exist" in err


def test_cli_reports_empty_run_directory(tmp_path, capsys):
    empty = tmp_path / "rundir"
    empty.mkdir()
    assert main([str(empty)]) == 1
    err = capsys.readouterr().err
    assert "without trace.json" in err


def test_cli_reports_report_without_trace(tmp_path, capsys):
    rundir = tmp_path / "rundir"
    rundir.mkdir()
    (rundir / "run_report.json").write_text("{}")
    assert main([str(rundir)]) == 1
    err = capsys.readouterr().err
    assert "no trace.json" in err and "rerun with tracing" in err


def test_cli_reports_empty_trace_file(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text('{"traceEvents": []}')
    assert main([str(path)]) == 1
    assert "no trace events" in capsys.readouterr().err


def test_cli_resolves_run_directory_to_merged_trace(tmp_path, capsys):
    _, _, path = traced_strict_run(tmp_path)
    # tmp_path now holds trace.json: pass the *directory*
    assert main([str(tmp_path)]) == 0
    assert "top spans" in capsys.readouterr().out


# -- flows subcommand ---------------------------------------------------------

def flow_traced_run(tmp_path):
    from repro.obs.flows import uninstall_flow_recorder
    exp = Instantiation(kv_system(), mode="strict", flow_sample=1).build()
    try:
        exp.run(2 * MS)
        path = tmp_path / "trace.json"
        exp.save("trace", str(path))
    finally:
        uninstall_flow_recorder()
    return path


def test_flows_subcommand_reports_waterfall_and_attribution(tmp_path, capsys):
    path = flow_traced_run(tmp_path)
    report = tmp_path / "flows.json"
    rc = main(["flows", str(path), "--top", "2", "--json", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "latency attribution" in out
    assert "bottleneck: server.host" in out
    assert "slowest 2 complete flows" in out
    assert "origin" in out and "done" in out
    doc = json.loads(report.read_text())
    assert doc["flows_complete"] > 0
    assert doc["bottleneck"] == "server.host"
    assert len(doc["slowest"]) == 2


def test_flows_subcommand_rejects_flowless_trace(tmp_path, capsys):
    _, _, path = traced_strict_run(tmp_path)
    assert main(["flows", str(path)]) == 1
    assert "no flow-hop records" in capsys.readouterr().err


def test_flows_subcommand_fails_gracefully_on_missing(tmp_path, capsys):
    assert main(["flows", str(tmp_path / "nope.json")]) == 1
    assert "does not exist" in capsys.readouterr().err


# -- timeline & recommend subcommands -----------------------------------------

def timeline_run(tmp_path):
    exp, _, _ = traced_strict_run(tmp_path)
    path = tmp_path / "timeline.jsonl"
    exp.save("timeline", str(path))
    return exp, path


def test_timeline_subcommand_renders_and_writes_json(tmp_path, capsys):
    _, path = timeline_run(tmp_path)
    summary = tmp_path / "summary.json"
    assert main(["timeline", str(path), "--json", str(summary)]) == 0
    out = capsys.readouterr().out
    assert "timeline: mode=strict" in out
    assert "ev/s" in out and "wait" in out
    doc = json.loads(summary.read_text())
    assert doc["mode"] == "strict" and doc["rows"] > 0
    assert "net" in doc["components"]
    assert set(doc["phases"]["net"]) == {"warmup", "steady", "drain"}


def test_timeline_subcommand_resolves_run_directory(tmp_path, capsys):
    timeline_run(tmp_path)
    assert main(["timeline", str(tmp_path)]) == 0
    assert "timeline: mode=strict" in capsys.readouterr().out


def test_timeline_subcommand_fails_gracefully(tmp_path, capsys):
    # missing file
    assert main(["timeline", str(tmp_path / "nope.jsonl")]) == 1
    assert "error" in capsys.readouterr().err
    # run directory without a timeline: actionable hint
    empty = tmp_path / "rundir"
    empty.mkdir()
    assert main(["timeline", str(empty)]) == 1
    assert capsys.readouterr().err == (
        f"error: {empty} has no timeline.jsonl — rerun with the timeline "
        "on (splitsim-run --timeline or Instantiation(timeline=True))\n")
    # corrupt document
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert main(["timeline", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_recommend_subcommand_writes_partition(tmp_path, capsys):
    from repro.parallel.advisor import load_partition

    _, path = timeline_run(tmp_path)
    assert main(["recommend", str(path)]) == 0
    out = capsys.readouterr().out
    assert "recommended partition:" in out
    assert "bottleneck:" in out
    doc = load_partition(str(tmp_path / "partition.json"))
    assert doc["predicted"]["speedup"] >= 1.0
    assert "wrote" in out


def test_recommend_subcommand_json_output(tmp_path, capsys):
    _, path = timeline_run(tmp_path)
    out_path = tmp_path / "plan.json"
    assert main(["recommend", str(path), "--out", str(out_path),
                 "--json"]) == 0
    out = capsys.readouterr().out
    start = out.index("{")
    doc = json.loads(out[start:out.rindex("}") + 1])
    assert doc["kind"] == "splitsim-partition"
    assert out_path.exists()


def test_recommend_subcommand_fails_gracefully(tmp_path, capsys):
    assert main(["recommend", str(tmp_path / "nope.jsonl")]) == 1
    assert "error" in capsys.readouterr().err
    empty = tmp_path / "rundir"
    empty.mkdir()
    assert main(["recommend", str(empty)]) == 1
    assert "rerun with the timeline on" in capsys.readouterr().err


# -- timeline data-quality warnings --------------------------------------------

def test_timeline_dropped_rows_surface_as_warning(tmp_path, capsys):
    from repro.bench.mp import RingForwarder
    from repro.obs.recorder import ProbeDriver
    from repro.obs.timeline import TimelineCollector, load_timeline
    from repro.parallel.simulation import Simulation

    sim = Simulation(mode="strict")
    comps = [sim.add(RingForwarder(f"s{i}", i, 2)) for i in range(2)]
    sim.connect(comps[0].next, comps[1].prev)
    sim.connect(comps[1].next, comps[0].prev)
    sim._wire()
    rec = TimelineCollector(max_rows=4)
    sim.observers.append(ProbeDriver(rec, interval_rounds=1))
    sim._run_strict(100 * US)
    assert rec.dropped > 0
    path = tmp_path / "timeline.jsonl"
    rec.save(str(path))

    summary = tmp_path / "summary.json"
    assert main(["timeline", str(path), "--json", str(summary)]) == 0
    out = capsys.readouterr().out
    assert "warning:" in out and "dropped" in out
    doc = json.loads(summary.read_text())
    assert doc["dropped"] == rec.dropped
    assert len(doc["warnings"]) == 1
    assert "oldest epochs are missing" in doc["warnings"][0]
    assert timeline_warnings(load_timeline(str(path))) == doc["warnings"]


def test_timeline_without_drops_has_no_warning(tmp_path, capsys):
    _, path = timeline_run(tmp_path)
    summary = tmp_path / "summary.json"
    assert main(["timeline", str(path), "--json", str(summary)]) == 0
    assert "warning:" not in capsys.readouterr().out
    assert json.loads(summary.read_text())["warnings"] == []


# -- cross-run audit diff ------------------------------------------------------

def _saved_ledger(tmp_path, name, **kw):
    from .test_audit import _pipeline_recorder
    d = tmp_path / name
    d.mkdir()
    _pipeline_recorder(**kw).save(str(d / "audit.jsonl"))
    return d


def test_diff_subcommand_identical_runs(tmp_path, capsys):
    a = _saved_ledger(tmp_path, "runA")
    b = _saved_ledger(tmp_path, "runB")
    assert main(["diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "status: identical" in out
    assert "first divergence" not in out


def test_diff_subcommand_localizes_divergence(tmp_path, capsys):
    from .test_audit import PERTURB_COMP, PERTURB_EPOCH, PERTURB_TS

    a = _saved_ledger(tmp_path, "runA")
    b = _saved_ledger(tmp_path, "runB",
                      perturb=(PERTURB_COMP, PERTURB_TS))
    report = tmp_path / "diff.json"
    assert main(["diff", str(a), str(b), "--json", str(report)]) == 1
    out = capsys.readouterr().out
    assert "status: diverged" in out
    assert f"first divergence: epoch {PERTURB_EPOCH}" in out
    assert "component s1" in out
    doc = json.loads(report.read_text())
    assert doc["status"] == "diverged"
    first = doc["first_divergence"]
    assert first["epoch"] == PERTURB_EPOCH
    assert first["component"] == "s1"
    assert first["b"]["n"] == first["a"]["n"] + 1  # the injected event


def test_diff_subcommand_fails_gracefully(tmp_path, capsys):
    a = _saved_ledger(tmp_path, "runA")
    # run directory without a ledger: actionable hint, exit 2
    empty = tmp_path / "empty"
    empty.mkdir()
    hint = (f"error: {empty} has no audit.jsonl — rerun with auditing on "
            "(splitsim-run --audit or Instantiation(audit=True))\n")
    assert main(["diff", str(a), str(empty)]) == 2
    assert capsys.readouterr().err == hint
    assert main(["diff", str(empty), str(empty)]) == 2
    assert capsys.readouterr().err == 2 * hint
    # mismatched epoch widths: not comparable, exit 2
    c = _saved_ledger(tmp_path, "runC", window_ps=10 * US)
    assert main(["diff", str(a), str(c)]) == 2
    assert "window_ps differs" in capsys.readouterr().out


# -- run directories ------------------------------------------------------------

@pytest.mark.slow
def test_inproc_and_mp_run_dirs_hold_the_same_files(tmp_path, capsys):
    """One configuration in process (strict) and under mp, trace, timeline
    and audit on: both run directories hold the same file names, their
    ledgers diff identical, and every view opens both."""
    dirs = [tmp_path / "inproc", tmp_path / "mp"]
    for path in dirs:
        exp = Instantiation(kv_system(), mode="strict", trace=True,
                            flow_sample=1, timeline=True, audit=True).build()
        try:
            if path.name == "mp":
                exp.run_mp(1 * MS, timeout_s=120, rundir=str(path))
            else:
                exp.run(1 * MS, rundir=str(path))
        finally:
            exp.disable_flow_tracing()
    files = [sorted(p.name for p in path.iterdir()) for path in dirs]
    assert files[0] == files[1] == ["audit.jsonl", "run_report.json",
                                    "stats.json", "timeline.jsonl",
                                    "trace.json"]
    assert [json.loads((path / "run_report.json").read_text())["mode"]
            for path in dirs] == ["strict", "mp"]
    assert main(["diff", *map(str, dirs)]) == 0
    for view in ([], ["profile"], ["timeline"], ["recommend"], ["flows"]):
        for path in dirs:
            assert main([*view, str(path)]) == 0, (view, path.name)


# -- a run directory that names its artifacts elsewhere -------------------------

def test_views_follow_run_report_references(tmp_path, capsys):
    """Every view finds its input through ``run_report.json``: the trace
    under ``traces/`` (where multiprocess runs kept it before the run
    directory had one name per artifact), the timeline and ledger at
    non-default names.  Built from one in-process run, so no process is
    spawned."""
    import shutil

    from repro.obs.flows import uninstall_flow_recorder

    exp = Instantiation(kv_system(), mode="strict", trace=True, flow_sample=1,
                        timeline=True, audit=True).build()
    try:
        exp.run(1 * MS)
    finally:
        uninstall_flow_recorder()
    a = tmp_path / "runA"
    (a / "traces").mkdir(parents=True)
    exp.save("trace", str(a / "traces" / "trace.json"))
    exp.save("timeline", str(a / "epochs.jsonl"))
    exp.save("audit", str(a / "ledger.jsonl"))
    (a / "run_report.json").write_text(json.dumps(
        {"schema": 4, "trace": "traces/trace.json",
         "timeline": "epochs.jsonl", "audit": "ledger.jsonl"}))

    assert _summary(a, tmp_path)["bottlenecks"]
    assert main(["flows", str(a)]) == 0
    assert main(["timeline", str(a)]) == 0
    assert main(["recommend", str(a)]) == 0
    assert (a / "partition.json").exists()  # next to the timeline
    capsys.readouterr()

    # B: the same run with one ledger row corrupted
    b = tmp_path / "runB"
    shutil.copytree(a, b)
    lines = (b / "ledger.jsonl").read_text().splitlines()
    row = json.loads(lines[1])
    assert "final" not in row
    row["d"] = ("0" if row["d"][0] != "0" else "1") + row["d"][1:]
    row["n"] += 1
    lines[1] = json.dumps(row)
    (b / "ledger.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "first divergence" in out
    assert "metric timelines" in out and "traces:" in out
