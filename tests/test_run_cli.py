"""Tests for the splitsim-run configuration-script CLI.

Every run writes a run directory (``--out``, default the working
directory), so every test here runs inside its ``tmp_path``.
"""

import json

import pytest

from repro.kernel.simtime import MS, US, parse_time
from repro.tools.run_cli import main

CONFIG = '''
from repro import System
from repro.netsim.apps.kv import KVClientApp, KVServerApp

DURATION = "2ms"
GBPS = 1e9


def build():
    system = System(seed=3)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1_000_000)
    system.link("client", "tor", 10 * GBPS, 1_000_000)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    return system
'''


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def write_config(tmp_path, text=CONFIG):
    path = tmp_path / "config.py"
    path.write_text(text)
    return str(path)


# -- parse_time ----------------------------------------------------------------

def test_parse_time_units():
    assert parse_time("10ms") == 10 * MS
    assert parse_time("1.5us") == 1_500_000
    assert parse_time("2s") == 2 * 10**12
    assert parse_time(" 7ns ") == 7_000


def test_parse_time_rejects_garbage():
    with pytest.raises(ValueError):
        parse_time("10")
    with pytest.raises(ValueError):
        parse_time("xyzms")


# -- CLI -----------------------------------------------------------------------

def test_cli_runs_config(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "running 3 component simulators" in out
    # per-component lines from the run report: events, collect_outputs()
    assert "\n  net: " in out and " events\n" in out
    assert "client.app0" in out
    assert "'completed':" in out
    assert "wrote .: run_report.json, stats.json\n" in out


def test_cli_duration_override(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main([path, "--duration", "1ms"]) == 0
    assert "for 1ms" in capsys.readouterr().out


def test_cli_profile_flag(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main([path, "--profile", "--duration", "1ms"]) == 0
    out = capsys.readouterr().out
    assert "sim speed" in out
    assert "wait-time profile" in out


def test_cli_json_output(tmp_path):
    # the run's JSON output is its run report
    from repro.obs.telemetry import RUN_REPORT_SCHEMA

    path = write_config(tmp_path)
    assert main([path, "--out", "run"]) == 0
    data = json.loads((tmp_path / "run" / "run_report.json").read_text())
    assert (data["schema"], data["mode"]) == (RUN_REPORT_SCHEMA, "fast")
    assert data["health"] is None and data["heartbeats"] == []
    net = data["components"]["net"]
    assert net["events"] > 0 and net["work_cycles"] > 0
    assert net["outputs"]["client.app0"]["completed"] > 0
    assert data["components"]["server.host"]["outputs"]["instructions"] > 0


def test_cli_trace_writes_valid_chrome_doc(tmp_path, capsys):
    from repro.obs.trace import load_trace, validate_chrome_doc

    path = write_config(tmp_path)
    assert main([path, "--duration", "1ms", "--trace"]) == 0
    report = json.loads((tmp_path / "run_report.json").read_text())
    assert report["trace"] == "trace.json"
    doc = load_trace(str(tmp_path / "trace.json"))
    assert validate_chrome_doc(doc) == []
    assert doc["otherData"]["mode"] == "fast"
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_cli_stats_json_snapshot(tmp_path):
    path = write_config(tmp_path)
    assert main([path, "--duration", "1ms", "--out", "run"]) == 0
    snap = json.loads((tmp_path / "run" / "stats.json").read_text())
    assert snap["schema"] == 1
    metrics = snap["metrics"]
    assert metrics["kernel.queue.executed"] > 0
    # the PR-20 re-arm counter reaches the registry (UDP KV: no re-arms)
    assert metrics["kernel.queue.postponed_total"] >= 0
    assert metrics["run.events"] > 0
    assert metrics["app.client.app0.completed"] > 0
    assert any(name.startswith("netsim.net.link.") for name in metrics)


def test_cli_profile_out_writes_bundle(tmp_path, capsys):
    from repro.obs.inspect import main as inspect_main
    from repro.obs.rundir import load_timeline
    from repro.obs.trace import load_trace, validate_chrome_doc

    path = write_config(tmp_path)
    outdir = tmp_path / "profile"
    assert main([path, "--duration", "1ms", "--profile", "--trace",
                 "--out", str(outdir)]) == 0
    assert "wait-time profile" in capsys.readouterr().out
    # the bundle is a run directory: its timeline has every component
    tl = load_timeline(str(outdir))
    assert {r.comp for r in tl.rows} == {"net", "server.host", "server.nic"}
    # WTPG DOT and the trace ride along (--profile, --trace)
    dot = (outdir / "wtpg.dot").read_text()
    assert dot.startswith("digraph wtpg {")
    doc = load_trace(str(outdir / "trace.json"))
    assert validate_chrome_doc(doc) == []
    # and every post-processor opens the directory
    assert inspect_main(["profile", str(outdir)]) == 0
    assert inspect_main(["timeline", str(outdir)]) == 0
    assert inspect_main(["recommend", str(outdir)]) == 0
    assert (outdir / "partition.json").exists()


def test_cli_profile_out_prints_the_inspect_profile_report(tmp_path, capsys):
    # one rendering of the profiler's analysis: the run prints exactly what
    # 'splitsim-inspect profile DIR' prints for its run directory
    from repro.obs.inspect import main as inspect_main

    outdir = tmp_path / "profile"
    assert main([write_config(tmp_path), "--duration", "1ms", "--profile",
                 "--out", str(outdir)]) == 0
    run = capsys.readouterr().out
    assert inspect_main(["profile", str(outdir)]) == 0
    report = capsys.readouterr().out
    assert "\nlikely bottlenecks: " in report
    assert report in run


@pytest.mark.slow
def test_cli_control_with_flows_writes_the_run_dir_trace(tmp_path, capsys):
    # --flows turns the trace recorder on, so the children trace: the run
    # directory holds the merged trace under the same name as in process
    from repro.obs.inspect.flows import analyze_doc
    from repro.obs.rundir import load_trace

    assert main([write_config(tmp_path), "--duration", "1ms",
                 "--control", "--out", "rundir", "--flows", "1"]) == 0
    report = json.loads((tmp_path / "rundir" / "run_report.json").read_text())
    assert (report["mode"], report["trace"]) == ("mp", "trace.json")
    assert not (tmp_path / "rundir" / "traces").exists()
    assert analyze_doc(load_trace(str(tmp_path / "rundir"))).complete
    out = capsys.readouterr().out
    # the per-component lines come from the run report, as in process
    assert "s blocked)\n" in out and "client.app0" in out


def test_cli_missing_config_errors(tmp_path, capsys):
    assert main([str(tmp_path / "nope.py")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_config_without_build_errors(tmp_path, capsys):
    path = write_config(tmp_path, "x = 1\n")
    assert main([path]) == 1
    assert "must define build()" in capsys.readouterr().err


def test_cli_build_must_return_system(tmp_path, capsys):
    path = write_config(tmp_path, "def build():\n    return 42\n")
    assert main([path]) == 1
    assert "must return" in capsys.readouterr().err


def test_cli_unknown_partition_errors(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main([path, "--partition", "magic"]) == 1
    assert "unknown partition" in capsys.readouterr().err


def test_cli_flows_flag_records_and_cleans_up(tmp_path, capsys):
    from repro.obs.flows import active_recorder
    from repro.obs.inspect.flows import analyze_doc
    from repro.obs.rundir import load_trace

    rc = main([write_config(tmp_path), "--mode", "strict",
               "--flows", "1", "--trace", "--out", "kv"])
    assert rc == 0
    assert active_recorder() is None  # the CLI uninstalls its recorder
    rep = analyze_doc(load_trace(str(tmp_path / "kv")))
    assert len(rep.complete) > 0
    assert rep.bottleneck() == "server.host"


def test_cli_flows_implies_trace(tmp_path, capsys):
    rc = main([write_config(tmp_path), "--mode", "strict", "--flows", "4"])
    assert rc == 0
    assert (tmp_path / "trace.json").exists()  # the default run directory
    assert "wrote .: run_report.json, stats.json, trace.json\n" in \
        capsys.readouterr().out


def test_cli_flows_rejects_bad_divisor(tmp_path, capsys):
    assert main([write_config(tmp_path), "--flows", "0"]) == 1
    assert "divisor" in capsys.readouterr().err


# -- timeline & partition-file flags ------------------------------------------

def test_cli_timeline_writes_document(tmp_path, capsys):
    from repro.obs.timeline import load_timeline

    path = write_config(tmp_path)
    assert main([path, "--timeline"]) == 0
    assert "wrote .: run_report.json, stats.json, timeline.jsonl\n" in \
        capsys.readouterr().out
    tl = load_timeline(str(tmp_path / "timeline.jsonl"))
    assert tl.mode == "strict" and tl.rows


def test_cli_timeline_explicit_path(tmp_path, capsys):
    # --out is the one option that takes a path; it is created if missing
    from repro.obs.rundir import load_timeline

    path = write_config(tmp_path)
    assert main([path, "--timeline", "--out", "a/b"]) == 0
    assert load_timeline(str(tmp_path / "a" / "b")).rows
    assert not (tmp_path / "timeline.jsonl").exists()


DC_CONFIG = '''
from repro import System
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.topology import datacenter


def build():
    spec = datacenter(aggs=1, racks_per_agg=2, hosts_per_rack=1)
    system = System.from_topospec(spec, seed=7)
    system.app("a0r0h0", lambda h: KVServerApp())
    addr = system.addr_of("a0r0h0")
    system.app("a0r1h0", lambda h: KVClientApp([addr], closed_loop_window=4))
    return system
'''


@pytest.mark.slow
def test_cli_mp_timeline_drives_the_advisor_loop(tmp_path, capsys):
    """measure -> place with a multiprocess measurement: the --control run
    writes its timeline and ledger into the run dir and prints the
    profiler's analysis of it, the timeline carries the switch map, so
    ``recommend`` emits a switch assignment that ``--partition-file``
    applies."""
    from repro.obs.inspect import main as inspect_main
    from repro.obs.rundir import load_timeline
    from repro.parallel.advisor import load_partition

    config = write_config(tmp_path, DC_CONFIG)
    rundir = tmp_path / "runM"
    assert main([config, "--duration", "500us", "--partition", "ac",
                 "--control", "--out", str(rundir), "--timeline", "--audit",
                 "--profile"]) == 0
    report = json.loads((rundir / "run_report.json").read_text())
    assert (report["timeline"], report["audit"]) == \
        ("timeline.jsonl", "audit.jsonl")
    out = capsys.readouterr().out
    assert "sim speed" in out and "wait-time profile" in out
    for comp in load_timeline(str(rundir)).components:
        assert f"  {comp}: efficiency=" in out
    assert (rundir / "wtpg.dot").read_text().startswith("digraph wtpg {")

    assert inspect_main(["recommend", str(rundir)]) == 0
    doc = load_partition(str(rundir / "partition.json"))
    assert doc["switch_assignment"]
    assert set(doc["switch_assignment"]) == \
        {"core", "agg0", "a0r0tor", "a0r1tor"}
    capsys.readouterr()
    assert main([config, "--duration", "500us", "--partition-file",
                 str(rundir / "partition.json")]) == 0


def test_cli_partition_file_mutually_exclusive(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main([path, "--partition", "rs",
                 "--partition-file", "whatever.json"]) == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_cli_partition_file_missing_errors(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main([path, "--partition-file",
                 str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_partition_file_unknown_node_errors(tmp_path, capsys):
    # a plan recorded on a larger system must not half-apply to this one
    from repro.parallel.advisor import PARTITION_KIND, PARTITION_SCHEMA
    plan = tmp_path / "partition.json"
    plan.write_text(json.dumps({
        "kind": PARTITION_KIND, "schema": PARTITION_SCHEMA, "assignment": {},
        "switch_assignment": {"tor": "p0", "ghost": "p1"}}))
    assert main([write_config(tmp_path), "--partition-file", str(plan)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ghost" in err


@pytest.mark.parametrize("flags", [["--duration", "foo"],
                                   ["--duration=-1ms"],
                                   ["--audit", "--audit-window=0us"]])
def test_cli_rejects_bad_time_literals(tmp_path, capsys, flags):
    assert main([write_config(tmp_path), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: --")


# -- audit flags ---------------------------------------------------------------

@pytest.mark.parametrize("extra", [[], ["--control"]])
def test_cli_audit_window_needs_audit(tmp_path, capsys, extra):
    # used to be silently ignored, in process and with --control alike
    assert main([write_config(tmp_path), "--audit-window", "5us",
                 "--out", "rundir", *extra]) == 1
    assert "error: --audit-window needs --audit" in capsys.readouterr().err
    assert not (tmp_path / "rundir").exists()


def test_cli_audit_window_sets_ledger_width(tmp_path, capsys):
    from repro.obs.rundir import load_audit

    assert main([write_config(tmp_path), "--audit", "--out", "run",
                 "--audit-window", "5us"]) == 0
    assert load_audit(str(tmp_path / "run")).window_ps == 5 * US
