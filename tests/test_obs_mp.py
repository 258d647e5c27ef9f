"""Live telemetry and traces from the multiprocess runner."""

import json

import pytest

from repro.kernel.simtime import MS, US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.obs.telemetry import Heartbeat, RUN_REPORT_SCHEMA, RunWatch
from repro.obs.trace import load_trace, validate_chrome_doc
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.system import System
from repro.channels.messages import RawMsg
from repro.parallel.shm_ring import ShmRing

GBPS = 1e9


def kv_system():
    system = System(seed=3)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1 * US)
    system.link("client", "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    return system


def test_shm_ring_reports_fill_fraction():
    ring = ShmRing.create(size_bytes=1 << 14)
    try:
        assert ring.fill_fraction() == 0.0
        for _ in range(8):
            ring.push(RawMsg(payload=b"x" * 200))
        filled = ring.fill_fraction()
        assert 0.0 < filled <= 1.0
        while ring.pop() is not None:
            pass
        assert ring.fill_fraction() == 0.0
    finally:
        ring.close()


def test_aggregator_tracks_latest_heartbeat_per_component():
    watch = RunWatch(["a", "b"])
    watch.note(Heartbeat(comp="a", wall_s=1.0, sim_ps=500, events=10,
                         events_per_sec=10.0, ring_fill=0.5))
    watch.note(Heartbeat(comp="a", wall_s=2.0, sim_ps=900, events=30,
                         events_per_sec=20.0, ring_fill=0.1, waiting=True))
    line = watch.status_line()
    assert "a" in line and "b" in line


@pytest.mark.slow
def test_run_mp_emits_report_and_merged_trace(tmp_path):
    exp = Instantiation(kv_system(), trace=True).build()
    results = exp.run_mp(2 * MS, timeout_s=120, rundir=str(tmp_path))
    assert set(results) == {"net", "server.host", "server.nic"}

    report = json.loads((tmp_path / "run_report.json").read_text())
    assert report["schema"] == RUN_REPORT_SCHEMA
    assert report["mode"] == "mp"
    # artifact references are relative to the report, like timeline/audit
    assert report["trace"] == "trace.json"
    comps = report["components"]
    assert set(comps) == set(results)
    for name, entry in comps.items():
        assert entry["events"] == results[name].events
        assert entry["wall_seconds"] > 0
    # children measure their own work cycles now
    assert any(r.work_cycles > 0 for r in results.values())

    # merged Chrome trace: orchestration + one pid per child, wall clock
    doc = load_trace(str(tmp_path / "trace.json"))
    assert validate_chrome_doc(doc) == []
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert len(pids) == 4  # orchestration + 3 children
    clocks = doc["otherData"]["clock_domains"]
    assert set(clocks.values()) == {"wall"}
    names = [e.get("name", "") for e in doc["traceEvents"]]
    # lifecycle spans and blocked-streak wait spans made it across
    assert any(n == "run" for n in names)
    assert any(n.startswith("wait|") for n in names)
    # channel and component counters live in the timeline, not the trace
    assert not any(n.startswith(("comp|", "chan|", "stall|")) for n in names)

    # stats.json: the in-process snapshot's per-component keys plus the
    # transport's, from the children's own counter walks
    metrics = json.loads((tmp_path / "stats.json").read_text())["metrics"]
    for name, res in results.items():
        assert metrics[f"component.{name}.events"] == res.events
        assert f"transport.{name}.frames_out" in metrics
    assert any(k.startswith("channel.server.nic.") for k in metrics)
    assert any(k.startswith("netsim.net.link.") for k in metrics)


def _tracks(doc):
    """Each process's name and the names of its thread tracks."""
    procs, tracks = {}, {}
    for ev in doc["traceEvents"]:
        if ev["ph"] == "M" and ev["name"] == "process_name":
            procs[ev["pid"]] = ev["args"]["name"]
        elif ev["ph"] == "M" and ev["name"] == "thread_name":
            tracks.setdefault(ev["pid"], set()).add(ev["args"]["name"])
    return {procs[pid]: tracks.get(pid, set()) for pid in procs}


@pytest.mark.slow
def test_traced_run_mp_saves_every_childs_records(tmp_path):
    # the trace recorder is what turns child tracing on: without a run
    # directory, exp.save("trace") still holds every child's records
    exp = Instantiation(kv_system(), trace=True).build()
    results = exp.run_mp(2 * MS, timeout_s=120)
    doc = exp.save("trace", str(tmp_path / "trace.json"))
    assert validate_chrome_doc(doc) == []
    tracks = _tracks(load_trace(str(tmp_path / "trace.json")))
    for name in results:
        assert {"lifecycle", "sync"} <= tracks.get(name, set()), name
    assert "phases" in tracks["orchestration"]
    assert doc["otherData"]["mode"] == "mp"


@pytest.mark.slow
def test_run_mp_flow_records_stitch_across_processes(tmp_path):
    """Flow tracing in the real deployment: per-child hop records merge.

    The same audit root as a flow-free mp run pins that provenance is
    observation-only in the multiprocess transport too, and the merged
    trace stitches hops from different OS processes into complete flows
    whose per-hop durations sum exactly to the end-to-end latency.
    """
    from repro.obs.inspect.flows import analyze_doc

    from .test_determinism_guard import assert_same_timeline

    base = Instantiation(kv_system(), audit=True).build()
    base.run_mp(2 * MS, timeout_s=120)
    exp = Instantiation(kv_system(), audit=True, flow_sample=1).build()
    try:
        exp.run_mp(2 * MS, timeout_s=120, rundir=str(tmp_path))
    finally:
        exp.disable_flow_tracing()
    assert_same_timeline(base.recorders["audit"].to_ledger(),
                         exp.recorders["audit"].to_ledger())

    doc = load_trace(str(tmp_path / "trace.json"))
    assert validate_chrome_doc(doc) == []
    hop_pids = {e["pid"] for e in doc["traceEvents"]
                if e.get("ph") == "i" and e["name"].startswith("fhop|")}
    assert len(hop_pids) >= 2  # provenance crossed process boundaries

    rep = analyze_doc(doc)
    complete = rep.complete
    assert len(complete) > 50
    for fl in complete:
        assert sum(fl.breakdown.values()) == fl.end_to_end_ps
    assert rep.bottleneck() == "server.host"
