"""End-to-end causal flow tracing: recording, analysis, and acceptance.

The headline invariants this file pins:

* **hop-sum exactness** — for every complete flow the per-category latency
  breakdown partitions the origin→done interval, so the sum of hop
  durations equals the end-to-end simulated latency exactly (integer ps).
* **application agreement** — on the 2-host request/response case study
  every complete flow's end-to-end latency equals the KV client's own
  measured latency for the same completion timestamp.
* **bottleneck agreement** — the flow-derived critical-path component
  matches the counter-profiler/WTPG ranking on the same run.
* **zero behavioural footprint** — the determinism guard digest is
  identical with flow tracing off, sampled, and unsampled
  (``tests/test_determinism_guard.py`` pins the golden digest).
* **Perfetto binding** — flow events (``ph`` s/t/f) are emitted on the
  same tracks as the kernel drain spans and validate cleanly.
"""

import json

import pytest

from repro.kernel.simtime import MS, US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.obs.flows import (FlowRecorder, analyze_doc,
                             extract_flows, flow_origin, flow_serial,
                             install_flow_recorder, uninstall_flow_recorder)
from repro.obs.inspect_cli import analysis_from_trace, render_flow_report
from repro.obs.trace import Tracer, chrome_doc, validate_chrome_doc
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.system import System

GBPS = 1e9


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    yield
    uninstall_flow_recorder()


def kv_system(seed=3):
    system = System(seed=seed)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1 * US)
    system.link("client", "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    return system


def traced_flow_run(duration=2 * MS, sample_n=1, profile=False):
    exp = Instantiation(kv_system(), mode="strict", profile=profile,
                        flow_sample=sample_n).build()
    try:
        exp.run(duration)
        doc = chrome_doc(
            [exp.recorders["trace"].tracer], extra_meta={"mode": exp.sim.mode})
    finally:
        uninstall_flow_recorder()
    return exp, doc


# -- recorder unit behaviour --------------------------------------------------

def test_flow_ids_are_deterministic_and_origin_scoped():
    rec = FlowRecorder(Tracer())
    a0 = rec.new_flow(5)
    a1 = rec.new_flow(5)
    b0 = rec.new_flow(9)
    assert (flow_origin(a0), flow_serial(a0)) == (5, 0)
    assert (flow_origin(a1), flow_serial(a1)) == (5, 1)
    assert (flow_origin(b0), flow_serial(b0)) == (9, 0)
    assert len({a0, a1, b0}) == 3
    # fresh recorder, same allocation order -> same ids (determinism)
    rec2 = FlowRecorder(Tracer())
    assert [rec2.new_flow(5), rec2.new_flow(5), rec2.new_flow(9)] \
        == [a0, a1, b0]


def test_sampling_keeps_one_in_n():
    rec = FlowRecorder(Tracer(), sample_n=4)
    flows = [rec.new_flow(1) for _ in range(16)]
    kept = [f for f in flows if rec.sampled(f)]
    assert len(kept) == 4
    assert all(flow_serial(f) % 4 == 0 for f in kept)


def test_hop_records_carry_exact_ps_and_order(monkeypatch):
    tr = Tracer()
    rec = install_flow_recorder(tr, sample_n=1)
    f = rec.new_flow(2)
    rec.hop(f, "origin", "comp-a", 1_000)
    rec.hop(f, "chsend", "comp-a", 1_500, at="comp-a.out")
    rec.hop(f, "done", "comp-b", 2_000)
    doc = chrome_doc([tr])
    hops = [e for e in doc["traceEvents"]
            if e.get("ph") == "i" and e["name"].startswith("fhop|")]
    assert [h["args"]["ps"] for h in hops] == [1_000, 1_500, 2_000]
    assert [h["args"]["n"] for h in hops] == [0, 1, 2]
    phs = [e["ph"] for e in doc["traceEvents"] if e.get("ph") in "stf"]
    assert phs == ["s", "t", "f"]


# -- case-study acceptance ----------------------------------------------------

def test_hop_sum_equals_end_to_end_exactly():
    _, doc = traced_flow_run()
    rep = analyze_doc(doc)
    complete = rep.complete
    assert len(complete) > 100
    for fl in complete:
        assert sum(fl.breakdown.values()) == fl.end_to_end_ps
        assert fl.end_to_end_ps > 0


def test_flow_latency_matches_application_measurement():
    exp, doc = traced_flow_run()
    rep = analyze_doc(doc)
    lat = {ts: l for ts, l, _ in exp.app("client").stats.latencies}
    complete = rep.complete
    assert len(complete) == len(lat)
    for fl in complete:
        assert lat[fl.last.ps] == fl.end_to_end_ps


def test_bottleneck_agrees_with_profiler_ranking():
    exp, doc = traced_flow_run(profile=True)
    rep = analyze_doc(doc)
    profiler_ranking = exp.profile_analysis().bottlenecks(3)
    trace_ranking = analysis_from_trace(doc).bottlenecks(3)
    # pinned on this deterministic case study: the detailed host dominates
    assert rep.bottleneck() == "server.host"
    assert profiler_ranking[0] == rep.bottleneck()
    assert trace_ranking[0] == rep.bottleneck()


def test_sampled_run_is_a_subset():
    _, doc_all = traced_flow_run(sample_n=1)
    _, doc_some = traced_flow_run(sample_n=4)
    all_ids = set(extract_flows(doc_all))
    some_ids = set(extract_flows(doc_some))
    assert some_ids and some_ids < all_ids
    assert all(flow_serial(f) % 4 == 0 for f in some_ids)


def test_report_dict_shape_and_rendering():
    _, doc = traced_flow_run()
    rep = analyze_doc(doc)
    d = rep.to_dict(top=3)
    assert d["flows_complete"] <= d["flows_total"]
    assert set(d["breakdown_totals_ps"]) <= {
        "host", "nic", "queue", "serialization", "propagation"}
    assert d["bottleneck"] == "server.host"
    assert len(d["slowest"]) == 3
    slowest = d["slowest"][0]
    assert slowest["end_to_end_ps"] == sum(slowest["breakdown_ps"].values())
    text = render_flow_report(rep, top=2)
    assert "latency attribution" in text
    assert "bottleneck: server.host" in text
    assert "origin" in text and "done" in text


# -- Perfetto export ----------------------------------------------------------

def test_flow_events_validate_and_bind_to_drain_spans():
    _, doc = traced_flow_run()
    assert validate_chrome_doc(doc) == []
    events = doc["traceEvents"]
    flow_events = [e for e in events if e.get("ph") in ("s", "t", "f")]
    assert flow_events
    assert all("id" in e and e.get("cat") for e in flow_events)
    assert any(e["ph"] == "s" for e in flow_events)
    assert any(e["ph"] == "f" for e in flow_events)
    # every flow event lands inside a kernel drain span on its own track,
    # so Perfetto draws the arrows anchored to existing slices
    spans = {}
    for e in events:
        if e.get("ph") == "X" and e.get("name") == "drain":
            spans.setdefault((e["pid"], e["tid"]), []).append(
                (e["ts"], e["ts"] + e["dur"]))
    unbound = 0
    for e in flow_events:
        if e["ts"] == 0.0:
            # app start()-time sends fire during simulation startup,
            # before the kernel executes (and spans) its first drain
            continue
        covering = spans.get((e["pid"], e["tid"]), [])
        if not any(lo <= e["ts"] <= hi for lo, hi in covering):
            unbound += 1
    assert unbound == 0, f"{unbound}/{len(flow_events)} flow events unbound"


def test_flow_arrows_cross_process_lanes():
    """The same flow id appears on several tracks — the arrow crosses."""
    _, doc = traced_flow_run()
    by_id = {}
    for e in doc["traceEvents"]:
        if e.get("ph") in ("s", "t", "f"):
            by_id.setdefault(e["id"], set()).add(e["tid"])
    assert any(len(tids) >= 3 for tids in by_id.values())


# -- overhead plumbing --------------------------------------------------------

def test_untagged_paths_skip_recording():
    """With a recorder installed, flow==0 messages emit nothing."""
    tr = Tracer()
    rec = install_flow_recorder(tr, sample_n=1 << 23)
    exp = Instantiation(kv_system(), mode="strict").build()
    exp.run(1 * MS)
    # divisor so large only serial-0 flows are kept: almost nothing records
    assert rec.emitted < 100
    assert exp.app("client").stats.completed > 0
