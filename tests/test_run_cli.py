"""Tests for the splitsim-run configuration-script CLI."""

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
    assert "client.app0" in out
    assert "'completed':" in out


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
    path = write_config(tmp_path)
    out_json = tmp_path / "out.json"
    assert main([path, "--json", str(out_json)]) == 0
    data = json.loads(out_json.read_text())
    assert data["events"] > 0
    assert data["apps"]["client.app0"]["completed"] > 0


def test_cli_trace_writes_valid_chrome_doc(tmp_path, capsys):
    from repro.obs.trace import load_trace, validate_chrome_doc

    path = write_config(tmp_path)
    trace = tmp_path / "trace.json"
    assert main([path, "--duration", "1ms", "--trace", str(trace)]) == 0
    doc = load_trace(str(trace))
    assert validate_chrome_doc(doc) == []
    assert doc["otherData"]["mode"] == "fast"
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_cli_stats_json_snapshot(tmp_path):
    path = write_config(tmp_path)
    stats = tmp_path / "stats.json"
    assert main([path, "--duration", "1ms", "--stats-json", str(stats)]) == 0
    snap = json.loads(stats.read_text())
    assert snap["schema"] == 1
    metrics = snap["metrics"]
    assert metrics["kernel.queue.executed"] > 0
    assert metrics["run.events"] > 0
    assert metrics["app.client.app0.completed"] > 0
    assert any(name.startswith("netsim.net.link.") for name in metrics)


def test_cli_profile_out_writes_bundle(tmp_path, capsys):
    from repro.obs.trace import load_trace, validate_chrome_doc
    from repro.profiler.records import ProfileLog

    path = write_config(tmp_path)
    outdir = tmp_path / "profile"
    assert main([path, "--duration", "1ms",
                 "--profile-out", str(outdir)]) == 0
    # ProfileLog JSONL reloads with records for every component
    log = ProfileLog.load(str(outdir / "profile.jsonl"))
    assert log.records
    comps = {r.comp for r in log.records}
    assert {"net", "server.host", "server.nic"} <= comps
    # WTPG DOT and the trace ride along
    dot = (outdir / "wtpg.dot").read_text()
    assert dot.startswith("digraph wtpg {")
    doc = load_trace(str(outdir / "trace.json"))
    assert validate_chrome_doc(doc) == []
    assert "wait-time profile" in capsys.readouterr().out


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


def test_cli_flows_flag_records_and_cleans_up(tmp_path, capsys, monkeypatch):
    from repro.obs.flows import active_recorder, analyze_doc
    from repro.obs.trace import load_trace

    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "kv_trace.json"
    rc = main([write_config(tmp_path), "--mode", "strict",
               "--flows", "1", "--trace", str(trace)])
    assert rc == 0
    assert active_recorder() is None  # the CLI uninstalls its recorder
    rep = analyze_doc(load_trace(str(trace)))
    assert len(rep.complete) > 0
    assert rep.bottleneck() == "server.host"


def test_cli_flows_implies_trace(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main([write_config(tmp_path), "--mode", "strict", "--flows", "4"])
    assert rc == 0
    assert (tmp_path / "trace.json").exists()  # default artifact path
    assert "wrote trace.json" in capsys.readouterr().out


def test_cli_flows_rejects_bad_divisor(tmp_path, capsys):
    assert main([write_config(tmp_path), "--flows", "0"]) == 1
    assert "divisor" in capsys.readouterr().err


# -- timeline & partition-file flags ------------------------------------------

def test_cli_timeline_writes_document(tmp_path, capsys, monkeypatch):
    from repro.obs.timeline import load_timeline

    path = write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([path, "--timeline"]) == 0
    assert "wrote timeline.jsonl" in capsys.readouterr().out
    tl = load_timeline(str(tmp_path / "timeline.jsonl"))
    assert tl.mode == "strict" and tl.rows


def test_cli_timeline_explicit_path(tmp_path, capsys):
    from repro.obs.timeline import load_timeline

    path = write_config(tmp_path)
    out_path = tmp_path / "tl.jsonl"
    assert main([path, "--timeline", str(out_path)]) == 0
    assert load_timeline(str(out_path)).rows


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


# -- audit flags ---------------------------------------------------------------

@pytest.mark.parametrize("extra", [[], ["--control", "rundir"]])
def test_cli_audit_window_needs_audit(tmp_path, capsys, monkeypatch, extra):
    # used to be silently ignored, in process and with --control alike
    monkeypatch.chdir(tmp_path)
    assert main([write_config(tmp_path), "--audit-window", "5us",
                 *extra]) == 1
    assert "error: --audit-window needs --audit" in capsys.readouterr().err
    assert not (tmp_path / "rundir").exists()


def test_cli_audit_window_sets_ledger_width(tmp_path, capsys):
    from repro.obs.audit import load_audit

    out_path = tmp_path / "audit.jsonl"
    assert main([write_config(tmp_path), "--audit", str(out_path),
                 "--audit-window", "5us"]) == 0
    assert load_audit(str(out_path)).window_ps == 5 * US
