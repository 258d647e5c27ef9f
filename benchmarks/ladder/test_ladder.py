"""Smoke of the ladder benchmark at ``--scale 0.05``.

Outside tier-1's ``testpaths``; run as
``python -m pytest benchmarks/ladder -q`` (about a minute).
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCALE = "0.05"

with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke():
    """(result.json, final stdout line) of one traced smoke run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", SCALE,
         "--reps", "2", "--trace"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(os.path.join(HERE, "out", "result.json")) as fh:
        return json.load(fh), json.loads(proc.stdout.splitlines()[-1])


def load_trace(workload):
    with open(os.path.join(HERE, "out", f"trace_{workload}.json")) as fh:
        return json.load(fh)


def test_every_declared_name_is_reported(smoke):
    result, _ = smoke
    assert list(result["workloads"]) == WORKLOADS
    for doc in result["workloads"].values():
        assert set(doc["end_to_end"]) == {m["name"]
                                          for m in SPEC["end_to_end"]}
        assert set(doc["layers"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in WORKLOADS + [m["name"] for m in SPEC["end_to_end"]
                             + SPEC["per_layer"]]:
        assert NAME.fullmatch(name), name


def test_no_rep_failed_and_counts_repeat(smoke):
    result, line = smoke
    for name, doc in result["workloads"].items():
        assert doc["failed_share"] == 0, (name, doc["failures"])
        assert doc["end_to_end"]["run_cu"]["n"] == 2
        if name != "ft_mp2":  # in-process event counts are bit-identical
            assert len({rep["sha"] for rep in doc["reps"]}) == 1, name
    assert line["correct"] and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_final_line_has_every_layer_metric_per_workload(smoke):
    _, line = smoke
    assert set(line["metrics"]) == {f"{w}.{m['name']}" for w in WORKLOADS
                                    for m in SPEC["per_layer"]}
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())


def test_ladder_and_mp_reference(smoke):
    result, _ = smoke
    assert [row["workload"] for row in result["ladder"]] == [
        "kernel_timers", "ft_fast", "ft_strict2", "ft_mp2"]
    mp = result["workloads"]["ft_mp2"]["layers"]
    assert mp["mp.speedup_vs_strict"] > 0
    assert abs(mp["mp.tail_event_delta"]) <= 0.002 * \
        result["workloads"]["ft_strict2"]["events"] + 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_spans_nest(smoke, workload):
    trace = load_trace(workload)
    spans = {s["id"]: s for s in trace["spans"]}
    assert {"setup", "setup.import", "setup.system", "setup.instantiate",
            "run"} <= {s["name"] for s in spans.values()}
    for s in spans.values():
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    for agg in trace["aggregates"]:
        parent = spans[agg["parent"]]
        assert agg["total_s"] <= parent["end"] - parent["start"]
        assert agg["zero_event_count"] <= agg["count"]


@pytest.mark.parametrize("workload", ["ft_strict2", "dc_strict"])
def test_coordinator_self_time_accounts_for_the_run(smoke, workload):
    result, _ = smoke
    trace = load_trace(workload)
    run = next(s for s in trace["spans"] if s["name"] == "run")
    advance = sum(a["total_s"] for a in trace["aggregates"])
    doc = result["workloads"][workload]
    layers = doc["layers"]
    last = doc["traced"][-1]  # the rep whose spans the file holds
    assert last["run_s"] - last["advance_s"] + advance == pytest.approx(
        run["end"] - run["start"], rel=0.01)
    self_s = sorted(t["run_s"] - t["advance_s"] for t in doc["traced"])
    assert self_s[0] <= layers["coord.self_s"] <= self_s[-1]
    assert layers["coord.self_s"] > 0
    assert layers["coord.advance_calls"] == sum(
        a["count"] for a in trace["aggregates"])
    if workload == "dc_strict":
        assert layers["obs.enabled_ratio"] > 0
        assert len(trace["aggregates"]) == 21


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: nonzero exit,
    no result line."""
    import shutil
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    dest = tmp_path / "benchmarks" / "ladder"
    shutil.copytree(HERE, dest, ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, str(dest / "run.py"), "--workload", "ft_fast",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
