"""Tests for ``splitsim-inspect profile``, the profiler's command-line
post-processor."""

from repro.obs.inspect import main
from repro.obs.timeline import EpochRow, save_timeline


def write_timeline(path, comps=(("net", "host"), ("host", "net")), n=4,
                   dropped=0):
    rows = [EpochRow(comp=comp, epoch=i, sim_ps=(i + 1) * 10**10,
                     wall_s=i + 1.0, events=1, work_cycles=5e6,
                     wait_cycles=100.0, comm_cycles=0.0, events_per_sec=1.0,
                     edge_wait={peer: 100.0})
            for i in range(n) for comp, peer in comps]
    save_timeline(str(path), rows, mode="strict", until_ps=n * 10**10,
                  dropped=dropped)
    return path


def test_cli_prints_analysis(tmp_path, capsys):
    path = write_timeline(tmp_path / "timeline.jsonl")
    assert main(["profile", str(path)]) == 0
    out = capsys.readouterr().out
    assert "sim speed" in out
    assert "wait-time profile" in out
    assert "likely bottlenecks" in out
    assert "net" in out and "host" in out
    assert "warning" not in out


def test_cli_reads_run_directory_and_warns_on_drops(tmp_path, capsys):
    write_timeline(tmp_path / "timeline.jsonl", dropped=3)
    assert main(["profile", str(tmp_path)]) == 0
    assert "warning: 3 of 11 epoch rows dropped" in capsys.readouterr().out


def test_cli_writes_dot(tmp_path):
    path = write_timeline(tmp_path / "timeline.jsonl")
    dot = tmp_path / "g.dot"
    assert main(["profile", str(path), "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("digraph wtpg")


def test_cli_missing_file_errors(tmp_path, capsys):
    assert main(["profile", str(tmp_path / "missing.jsonl")]) == 1
    assert "error reading" in capsys.readouterr().err
    assert main(["profile", str(tmp_path)]) == 1
    assert "has no timeline.jsonl" in capsys.readouterr().err


def test_cli_empty_log_errors(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["profile", str(empty)]) == 1
    assert "empty timeline document" in capsys.readouterr().err
    no_rows = write_timeline(tmp_path / "timeline.jsonl", n=0)
    assert main(["profile", str(no_rows)]) == 1
    assert "no epoch rows" in capsys.readouterr().err
    assert main(["profile", str(write_timeline(no_rows)),
                 "--drop-tail", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: epochs to drop")
