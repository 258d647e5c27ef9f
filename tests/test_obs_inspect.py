"""splitsim-inspect: trace-derived analysis agrees with the profiler.

The acceptance criterion for the observability layer: a strict traced run
produces a Chrome-trace from which :func:`analysis_from_trace` reconstructs
a WTPG whose bottleneck ranking matches the counter-based profiler on the
very same run.
"""

import json

from repro.kernel.simtime import MS, US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.obs.inspect_cli import (analysis_from_trace, edge_wait_histograms,
                                   main, stall_points, stall_timeline,
                                   timeline_warnings, top_spans)
from repro.obs.trace import validate_chrome_doc
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.system import System

GBPS = 1e9


def traced_strict_run(tmp_path, duration=2 * MS):
    system = System(seed=3)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1 * US)
    system.link("client", "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    exp = Instantiation(system, mode="strict", profile=True,
                        trace=True).build()
    exp.run(duration)
    path = tmp_path / "trace.json"
    doc = exp.save("trace", str(path))
    return exp, doc, path


def test_trace_ranking_matches_profiler(tmp_path):
    exp, doc, _ = traced_strict_run(tmp_path)
    assert validate_chrome_doc(doc) == []

    from_trace = analysis_from_trace(doc)
    from_counters = exp.profile_analysis(drop_head=0)
    n = len(from_counters.components)
    assert n >= 3  # net + host + nic
    assert set(from_trace.components) == set(from_counters.components)
    # the headline guarantee: identical bottleneck ranking
    assert from_trace.bottlenecks(n) == from_counters.bottlenecks(n)
    # the wait fractions agree closely (windows differ by < one sampling
    # interval: the trace baseline is at t=0, the profiler's first sample
    # lands after its first interval)
    for name, cm in from_counters.components.items():
        assert abs(from_trace.components[name].wait_fraction
                   - cm.wait_fraction) < 1e-2


def test_trace_edges_name_components(tmp_path):
    exp, doc, _ = traced_strict_run(tmp_path)
    from_trace = analysis_from_trace(doc)
    comp_names = set(from_trace.components)
    assert from_trace.edge_wait_fraction  # strict runs always wait somewhere
    for (src, dst), frac in from_trace.edge_wait_fraction.items():
        # trace edges are component -> peer component (WTPG node names)
        assert src in comp_names and dst in comp_names
        assert 0.0 <= frac <= 1.0


def test_edge_wait_histograms_from_real_run(tmp_path):
    _, doc, _ = traced_strict_run(tmp_path)
    hists = edge_wait_histograms(doc)
    assert hists
    # at least one channel direction accumulated wait increments
    assert any(h.count > 0 for h in hists.values())


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
    events = [
        _ev("i", "stall|net", 1.0, s="t"),
        _ev("X", "wait|server.nic", 2.0, dur=4.0),
        _ev("X", "drain|net", 3.0, dur=1.0),  # not a stall
    ]
    assert stall_points(events) == [("net", 1.0), ("server.nic", 2.0)]
    timeline = stall_timeline(events, buckets=8)
    assert "net" in timeline and "server.nic" in timeline
    assert stall_timeline([]) == "  (no stalls recorded)"


# -- CLI end-to-end ------------------------------------------------------------

def test_cli_summarizes_and_writes_artifacts(tmp_path, capsys):
    _, _, path = traced_strict_run(tmp_path)
    dot = tmp_path / "wtpg.dot"
    summary = tmp_path / "summary.json"
    rc = main([str(path), "--dot", str(dot), "--json", str(summary)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "top spans" in out and "bottleneck ranking:" in out
    assert dot.read_text().startswith("digraph wtpg {")
    doc = json.loads(summary.read_text())
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
    system = System(seed=3)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1 * US)
    system.link("client", "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    exp = Instantiation(system, mode="strict", flow_sample=1).build()
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

def timeline_run(tmp_path, duration=2 * MS):
    system = System(seed=3)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1 * US)
    system.link("client", "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    exp = Instantiation(system, timeline=True,
                        timeline_interval_rounds=16).build()
    exp.run(duration)
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
    assert "rerun with the timeline on" in capsys.readouterr().err
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
    assert main(["diff", str(a), str(empty)]) == 2
    assert "rerun with auditing on" in capsys.readouterr().err
    # mismatched epoch widths: not comparable, exit 2
    c = _saved_ledger(tmp_path, "runC", window_ps=10 * US)
    assert main(["diff", str(a), str(c)]) == 2
    assert "window_ps differs" in capsys.readouterr().out
