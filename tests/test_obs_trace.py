"""Tracer core: ring semantics, export shapes, validation, clocks."""

import json

import pytest

from repro.obs.trace import (ORCH_PID, TRACE_SCHEMA, Tracer,
                             chrome_doc, load_trace, us_from_ps,
                             validate_chrome_doc)


def test_us_from_ps():
    assert us_from_ps(1_000_000) == 1.0
    assert us_from_ps(500_000) == 0.5
    assert us_from_ps(0) == 0.0


def test_tracer_rejects_bad_args():
    with pytest.raises(ValueError):
        Tracer(capacity=0)
    with pytest.raises(ValueError):
        Tracer(clock="tai")


def test_capacity_rounds_to_power_of_two():
    assert Tracer(capacity=100).capacity == 128
    assert Tracer(capacity=128).capacity == 128


def test_tid_is_stable_per_name():
    tr = Tracer()
    a = tr.tid("alpha")
    b = tr.tid("beta")
    assert a != b
    assert tr.tid("alpha") == a


def test_record_kinds_and_event_shapes():
    tr = Tracer(pid=7)
    tid = tr.tid("t")
    tr.span(tid, "cat", "sp", 1.0, 2.5, {"k": 1})
    tr.instant(tid, "cat", "ins", 3.0)
    tr.counter(tid, "cat", "cnt", 4.0, {"x": 5})
    evs = tr.events()
    assert [e["ph"] for e in evs] == ["X", "i", "C"]
    span, inst, cnt = evs
    assert span["dur"] == 2.5 and span["args"] == {"k": 1}
    assert span["pid"] == 7 and span["tid"] == tid
    assert inst["s"] == "t" and "dur" not in inst
    assert cnt["args"] == {"x": 5}


def test_ring_overwrites_oldest_and_counts_drops():
    tr = Tracer(capacity=4)
    for i in range(10):
        tr.instant(tr.tid("t"), "c", f"e{i}", float(i))
    assert len(tr) == 4
    assert tr.dropped == 6
    names = [r[3] for r in tr.records()]
    assert names == ["e6", "e7", "e8", "e9"]  # newest survive, oldest first


def test_metadata_names_processes_and_threads():
    tr = Tracer(pid=3, process_name="netsim")
    tr.instant(tr.tid("link:a->b"), "c", "e", 0.0)
    meta = tr.metadata_events()
    assert meta[0] == {"ph": "M", "pid": 3, "tid": 0, "name": "process_name",
                      "args": {"name": "netsim"}}
    assert any(m["name"] == "thread_name" and
               m["args"]["name"] == "link:a->b" for m in meta)


def test_chrome_doc_merges_tracers_and_clock_domains():
    sim_tr = Tracer(pid=1, clock="sim")
    wall_tr = Tracer(pid=ORCH_PID, clock="wall", process_name="orchestration")
    sim_tr.instant(sim_tr.tid("a"), "c", "e", 0.0)
    wall_tr.span(wall_tr.tid("phases"), "phase", "run", 0.0, 1.0)
    doc = chrome_doc([sim_tr, wall_tr], extra_meta={"note": "x"})
    other = doc["otherData"]
    assert other["schema"] == TRACE_SCHEMA
    assert other["clock_domains"] == {"1": "sim", str(ORCH_PID): "wall"}
    assert other["note"] == "x"
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert pids == {1, ORCH_PID}
    assert validate_chrome_doc(doc) == []


def test_validate_flags_bad_documents():
    assert validate_chrome_doc({}) == ["traceEvents missing or not a list"]
    bad = {"traceEvents": [{"ph": "Z"}, {"ph": "X", "ts": 0.0}]}
    problems = validate_chrome_doc(bad)
    assert any("bad ph" in p for p in problems)
    assert any("missing pid" in p for p in problems)
    assert any("missing dur" in p for p in problems)


def test_save_json_roundtrips_through_load(tmp_path):
    tr = Tracer()
    tr.span(tr.tid("t"), "c", "s", 0.0, 1.0)
    path = tmp_path / "trace.json"
    tr.save_json(str(path))
    doc = load_trace(str(path))
    assert validate_chrome_doc(doc) == []
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_save_jsonl_roundtrips_through_load(tmp_path):
    tr = Tracer()
    tr.span(tr.tid("t"), "c", "s", 0.0, 1.0)
    tr.counter(tr.tid("t"), "c", "cnt", 1.0, {"v": 2})
    path = tmp_path / "trace.jsonl"
    tr.save_jsonl(str(path))
    doc = load_trace(str(path))
    phs = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "X", "C"} <= phs


def test_load_trace_single_line_jsonl(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps({"ph": "i", "pid": 0, "tid": 1,
                                "name": "e", "ts": 0.0, "s": "t"}) + "\n")
    doc = load_trace(str(path))
    assert len(doc["traceEvents"]) == 1


def test_load_trace_bare_event_array(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps([{"ph": "i", "pid": 0, "tid": 1,
                                 "name": "e", "ts": 0.0}]))
    doc = load_trace(str(path))
    assert len(doc["traceEvents"]) == 1


def test_trace_recorder_phases_emit_wall_spans():
    from repro.obs.install import TraceRecorder

    rec = TraceRecorder()
    tr = rec.phase_tracer
    assert (tr.pid, tr.clock) == (ORCH_PID, "wall")
    rec.phase("build", 0.0)
    evs = tr.events()
    assert len(evs) == 1
    assert evs[0]["ph"] == "X" and evs[0]["name"] == "build"
    assert evs[0]["dur"] >= 0.0


# -- flow events (ph s/t/f) ---------------------------------------------------

def _flow_doc(events):
    base = {"pid": 1, "tid": 1, "cat": "flow", "name": "flow", "ts": 1.0}
    return {"traceEvents": [{**base, **e} for e in events]}


def test_validate_accepts_well_formed_flow_triplet():
    doc = _flow_doc([
        {"ph": "s", "id": 7},
        {"ph": "t", "id": 7, "ts": 2.0},
        {"ph": "f", "id": 7, "bp": "e", "ts": 3.0},
    ])
    assert validate_chrome_doc(doc) == []


def test_validate_flags_flow_event_without_id():
    doc = _flow_doc([{"ph": "s"}])
    problems = validate_chrome_doc(doc)
    assert any("missing id" in p for p in problems)


def test_validate_flags_flow_event_with_empty_cat():
    doc = _flow_doc([{"ph": "s", "id": 1, "cat": ""}])
    problems = validate_chrome_doc(doc)
    assert any("cat" in p for p in problems)


def test_validate_flags_continuation_without_start():
    doc = _flow_doc([
        {"ph": "t", "id": 9, "ts": 2.0},
        {"ph": "f", "id": 10, "ts": 3.0},
    ])
    problems = validate_chrome_doc(doc)
    assert any("no start" in p and "9" in p for p in problems)
    assert any("no start" in p and "10" in p for p in problems)


def test_validate_flags_bind_id_mismatch():
    doc = _flow_doc([
        {"ph": "s", "id": 3},
        {"ph": "f", "id": 3, "bind_id": 4, "ts": 2.0},
    ])
    problems = validate_chrome_doc(doc)
    assert any("bind_id" in p for p in problems)


def test_tracer_flow_events_export_with_ids():
    tr = Tracer(pid=2)
    tid = tr.tid("t")
    tr.flow_event("s", tid, 1.0, 42)
    tr.flow_event("t", tid, 2.0, 42)
    tr.flow_event("f", tid, 3.0, 42)
    doc = chrome_doc([tr])
    flow = [e for e in doc["traceEvents"] if e.get("ph") in "stf"]
    assert [e["ph"] for e in flow] == ["s", "t", "f"]
    assert all(e["id"] == 42 for e in flow)
    assert flow[-1]["bp"] == "e"  # flow-end binds enclosing slice
    assert validate_chrome_doc(doc) == []
