"""Live telemetry and traces from the multiprocess runner."""

import json

import pytest

from repro.kernel.simtime import MS, US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.obs.telemetry import (Heartbeat, RUN_REPORT_SCHEMA,
                                 TelemetryAggregator)
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
    agg = TelemetryAggregator(["a", "b"])
    agg.note(Heartbeat(comp="a", wall_s=1.0, sim_ps=500, events=10,
                       events_per_sec=10.0, ring_fill=0.5))
    agg.note(Heartbeat(comp="a", wall_s=2.0, sim_ps=900, events=30,
                       events_per_sec=20.0, ring_fill=0.1, waiting=True))
    line = agg.status_line()
    assert "a" in line and "b" in line


@pytest.mark.slow
def test_run_mp_emits_report_and_merged_trace(tmp_path):
    exp = Instantiation(kv_system()).build()
    report_path = tmp_path / "run_report.json"
    trace_dir = tmp_path / "traces"
    results = exp.run_mp(2 * MS, timeout_s=120,
                         report_path=str(report_path),
                         trace_dir=str(trace_dir))
    assert set(results) == {"net", "server.host", "server.nic"}

    report = json.loads(report_path.read_text())
    assert report["schema"] == RUN_REPORT_SCHEMA
    # artifact references are relative to the report, like timeline/audit
    assert report["trace"] == "traces/trace.json"
    comps = report["components"]
    assert set(comps) == set(results)
    for name, entry in comps.items():
        assert entry["events"] == results[name].events
        assert entry["wall_seconds"] > 0
    # children measure their own work cycles now
    assert any(r.work_cycles > 0 for r in results.values())

    # merged Chrome trace: parent runner + one pid per child, wall clock
    doc = load_trace(str(trace_dir / "trace.json"))
    assert validate_chrome_doc(doc) == []
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert len(pids) == 4  # runner + 3 children
    clocks = doc["otherData"]["clock_domains"]
    assert set(clocks.values()) == {"wall"}
    names = [e.get("name", "") for e in doc["traceEvents"]]
    # lifecycle spans and blocked-streak wait spans made it across
    assert any(n == "run" for n in names)
    assert any(n.startswith("wait|") for n in names)
    # channel and component counters live in the timeline, not the trace
    assert not any(n.startswith(("comp|", "chan|", "stall|")) for n in names)


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
    trace_dir = tmp_path / "traces"
    try:
        exp.run_mp(2 * MS, timeout_s=120, trace_dir=str(trace_dir))
    finally:
        exp.disable_flow_tracing()
    assert_same_timeline(base.recorders["audit"].to_ledger(),
                         exp.recorders["audit"].to_ledger())

    doc = load_trace(str(trace_dir / "trace.json"))
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
