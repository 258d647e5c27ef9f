"""Live inspection & control plane: watchdog, mailbox, attach, reports.

Covers the :mod:`repro.obs.live` control plane (unix-socket endpoint,
``control.json`` discovery, child command mailboxes), the parent's
:class:`~repro.obs.telemetry.RunWatch` (health states and alerts, the
bounded heartbeat history, staleness rendering, the shapes it reports),
and the ``run_report.json`` builder — plus end-to-end tests that attach to a
real running multiprocess simulation, dump a partial trace, stop it
gracefully, and pin that control commands never perturb the determinism
digest.
"""

import json
import tempfile
import threading
import time

import pytest

from repro.bench.mp import AUDIT_WINDOW_PS, mp_audit_ledger, pipeline_specs
from repro.channels.channel import ChannelEnd
from repro.channels.messages import RawMsg
from repro.kernel.component import Component
from repro.kernel.simtime import MS, NS, SEC, US
from repro.obs.audit import AuditCollector
from repro.obs.inspect.attach import render_status, _parse_commands
from repro.obs.live import (CONTROL_FILE, CONTROL_SCHEMA, ChildMailbox,
                            ControlClient, ControlError, ControlPlane,
                            read_control_file, socket_path_for,
                            wait_for_control)
from repro.obs.telemetry import (HEALTH_DONE, HEALTH_FAILED, HEALTH_OK,
                                 HEALTH_STALE, HEALTH_STALLED,
                                 HEALTH_STARTING, MAX_HEARTBEATS,
                                 RUN_REPORT_SCHEMA, STALL_INTERVALS,
                                 Heartbeat, RunWatch, build_run_report,
                                 write_run_report)
from repro.obs.flows import install_flow_recorder, uninstall_flow_recorder
from repro.obs.install import TraceRecorder
from repro.obs.trace import Tracer, load_trace, validate_chrome_doc
from repro.parallel import procrunner
from repro.parallel.procrunner import ProcessRunner

from .pins import as_pinned, pinned
from .test_determinism_guard import assert_same_timeline


def hb(comp, sim_ps=0, wall_s=0.0, eps=1000.0, fill=0.1, waiting=False,
       events=10):
    return Heartbeat(comp=comp, wall_s=wall_s, sim_ps=sim_ps, events=events,
                     events_per_sec=eps, ring_fill=fill, waiting=waiting)


class FakeClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t


# -- the watch: bounded history + staleness ----------------------------------

def test_history_is_bounded_ring_drops_oldest():
    """The cap drops the *oldest* beat, not the newest (regression).

    The old implementation stopped appending at the cap, silently
    discarding every new beat — the report then showed only the start of
    the run while claiming to be recent history.
    """
    watch = RunWatch(["a"])
    for i in range(MAX_HEARTBEATS + 6):
        watch.note(hb("a", sim_ps=i))
    assert len(watch.history) == MAX_HEARTBEATS
    assert [h["sim_ps"] for h in watch.history][:4] == [6, 7, 8, 9]
    assert watch.history[-1]["sim_ps"] == MAX_HEARTBEATS + 5


def test_history_unbounded_below_cap():
    watch = RunWatch(["a"])
    for i in range(5):
        watch.note(hb("a", sim_ps=i))
    assert [h["sim_ps"] for h in watch.history] == [0, 1, 2, 3, 4]


def test_status_line_marks_stale_components():
    clock = FakeClock()
    watch = RunWatch(["a", "b"], clock=clock)
    watch.note(hb("a", sim_ps=5 * US, eps=1234.0))
    watch.note(hb("b", sim_ps=5 * US))
    clock.t += 10.0
    watch.note(hb("b", sim_ps=6 * US))  # b beats again; a goes silent
    watch.tick()
    line, badge = watch.status_line().split("  [!] ")
    assert "a: stale(10.0s)" in line
    assert "stale" not in line.split("|")[1]  # b renders normally
    assert "ev/s" in line
    assert badge == "a:stale"


def test_status_line_fresh_component_shows_rate():
    watch = RunWatch(["a"])
    watch.note(hb("a", sim_ps=5 * US, eps=1234.0))
    line = watch.status_line()
    assert "1,234" in line and "stale" not in line


def test_age_s_none_before_first_beat():
    assert RunWatch(["a"]).status(US)["a"] == {"state": HEALTH_STARTING}


# -- the watch: health states and alerts --------------------------------------

def make_monitor(clock):
    return RunWatch(["a", "b"], hb_interval_s=0.1, clock=clock)


def test_monitor_starting_then_ok():
    clock = FakeClock()
    mon = make_monitor(clock)
    assert mon.states == {"a": HEALTH_STARTING, "b": HEALTH_STARTING}
    mon.note(hb("a", sim_ps=1 * US, wall_s=0.1))
    mon.tick()
    assert mon.states["a"] == HEALTH_OK
    assert mon.states["b"] == HEALTH_STARTING
    assert not mon.report()["degraded"] and "[!]" not in mon.status_line()


def test_monitor_flags_stall_and_recovery():
    clock = FakeClock()
    mon = make_monitor(clock)
    sim_ps = 5 * US
    for i in range(STALL_INTERVALS + 1):  # beats arrive, sim time frozen
        clock.t += 0.1
        mon.note(hb("a", sim_ps=sim_ps, wall_s=0.1 * (i + 1), waiting=True))
        mon.tick()
    assert mon.states["a"] == HEALTH_STALLED
    assert mon.report()["degraded"]
    assert "a:stalled" in mon.status_line()
    stall_alerts = [al for al in mon.alerts if al["kind"] == "stalled"]
    assert len(stall_alerts) == 1  # rising edge only, not once per beat
    assert stall_alerts[0]["comp"] == "a"
    # progress resumes -> ok + a recovery alert
    clock.t += 0.1
    mon.note(hb("a", sim_ps=sim_ps + US, wall_s=0.7))
    mon.tick()
    assert mon.states["a"] == HEALTH_OK
    assert any(al["kind"] == "recovered" for al in mon.alerts)


def test_monitor_flags_stale_after_silence():
    clock = FakeClock()
    mon = make_monitor(clock)
    mon.note(hb("a", sim_ps=1 * US, wall_s=0.1))
    mon.tick()
    clock.t += mon.stale_after_s + 1.0  # silence beyond the threshold
    mon.tick()
    assert mon.states["a"] == HEALTH_STALE
    assert any(al["kind"] == "stale" and al["comp"] == "a"
               for al in mon.alerts)


def test_monitor_flags_never_beating_child_after_grace():
    clock = FakeClock()
    mon = make_monitor(clock)
    clock.t += mon.stale_after_s + 1.0
    mon.tick()
    assert mon.states["a"] == HEALTH_STALE
    assert mon.states["b"] == HEALTH_STALE


def test_monitor_backpressure_alert_on_rising_edge():
    clock = FakeClock()
    mon = make_monitor(clock)
    for i in range(3):  # full ring across several beats: one alert
        clock.t += 0.1
        mon.note(hb("a", sim_ps=US * (i + 1), wall_s=0.1 * (i + 1),
                    fill=0.95))
        mon.tick()
    assert [al["kind"] for al in mon.alerts] == ["backpressure"]
    # drains, then fills again -> second episode, second alert
    clock.t += 0.1
    mon.note(hb("a", sim_ps=5 * US, wall_s=0.4, fill=0.2))
    mon.tick()
    clock.t += 0.1
    mon.note(hb("a", sim_ps=6 * US, wall_s=0.5, fill=0.95))
    mon.tick()
    assert [al["kind"] for al in mon.alerts] == ["backpressure",
                                                 "backpressure"]


def test_monitor_done_and_failed_are_terminal():
    clock = FakeClock()
    mon = make_monitor(clock)
    mon.note_done("a")
    mon.note_done("b", error="RuntimeError: boom")
    assert mon.states["a"] == HEALTH_DONE
    assert mon.states["b"] == HEALTH_FAILED
    assert mon.report()["degraded"] and "b:failed" in mon.status_line()
    clock.t += 10.0
    mon.tick()  # terminal states never regress to stale
    assert mon.states["a"] == HEALTH_DONE


def test_monitor_report_shape():
    clock = FakeClock()
    mon = make_monitor(clock)
    rep = mon.report()
    assert rep["watchdog"]["stall_intervals"] == STALL_INTERVALS == 4
    assert rep["watchdog"]["stale_after_s"] == 2.0
    assert rep["components"] == {"a": HEALTH_STARTING, "b": HEALTH_STARTING}
    assert rep["degraded"] is False
    assert rep["alerts"] == []
    json.dumps(rep)  # must be JSON-serializable as-is


def test_monitor_default_stale_threshold_scales_with_interval():
    assert RunWatch(["a"], hb_interval_s=0.25).stale_after_s == 2.0
    assert RunWatch(["a"], hb_interval_s=1.0).stale_after_s == 8.0


def watch_shapes() -> dict:
    """The pin ``parent_run_watch``: one fixed beat sequence through a
    watch on a fake clock — ``a`` progresses and fills its ring once,
    ``b`` stalls, ``c`` goes silent (stale), ``d`` fails — and what the
    control ``status`` reply (all but the wall-clock ``elapsed_s``), the
    ``health`` report, the heartbeat history and the status line read at
    the end."""
    clock = FakeClock()
    watch = RunWatch(["a", "b", "c", "d"], hb_interval_s=0.25, clock=clock)
    for i in range(1, 13):
        clock.t = 100.0 + 0.25 * i
        watch.note(Heartbeat("a", 0.25 * i, i * US, 10 * i, 1000.0 * i,
                             0.95 if i in (3, 4) else 0.5))
        watch.note(Heartbeat("b", 0.25 * i, min(i, 2) * US, 10 * min(i, 2),
                             1000.0 if i <= 2 else 0.0, 0.1, waiting=i > 2))
        if i <= 2:
            watch.note(Heartbeat("c", 0.25 * i, i * US, 5 * i, 500.0, 0.0))
        if i <= 4:
            watch.note(Heartbeat("d", 0.25 * i, i * US, 7 * i, 700.0, 0.3))
        watch.tick()
        if i == 4:
            watch.note_done("d", "RuntimeError: boom")
    with tempfile.TemporaryDirectory() as rundir:
        reply = ControlPlane(rundir, 20 * US, watch, cmd_queues={},
                             reply_q=None).status_reply()
    assert reply.pop("elapsed_s") >= 0
    return as_pinned({"status": reply, "report": watch.report(),
                      "history": list(watch.history),
                      "status_line": watch.status_line()})


def test_watch_shapes_match_the_parent():
    """The status reply, its per-component entries, the health report and
    the heartbeat rows keep every key and value for the same beats."""
    assert watch_shapes() == pinned("parent_run_watch")


# -- run report schema --------------------------------------------------------

def test_schema_registry_is_single_source():
    # every versioned document constant re-exports the central registry
    from repro.obs.schema import (ALL_SCHEMAS, AUDIT_SCHEMA,
                                  RUN_REPORT_SCHEMA as CENTRAL)
    from repro.obs.metrics import METRICS_SCHEMA
    from repro.obs.timeline import TIMELINE_SCHEMA
    from repro.obs.trace import TRACE_SCHEMA
    from repro.obs.audit import AUDIT_SCHEMA as AUDIT_REEXPORT
    from repro.parallel.advisor import PARTITION_SCHEMA

    assert RUN_REPORT_SCHEMA is CENTRAL
    assert AUDIT_REEXPORT is AUDIT_SCHEMA
    assert ALL_SCHEMAS == {
        "run_report": RUN_REPORT_SCHEMA, "timeline": TIMELINE_SCHEMA,
        "audit": AUDIT_SCHEMA, "trace": TRACE_SCHEMA,
        "metrics": METRICS_SCHEMA, "control": CONTROL_SCHEMA,
        "partition": PARTITION_SCHEMA,
    }


def test_run_report_v4_roundtrip(tmp_path):
    """Every v4 field keeps its meaning in a v5 report, and it round-trips
    through the file."""
    components = {
        "good": {"events": 42, "wall_seconds": 1.5, "wait_seconds": 0.5,
                 "work_cycles": 9.0, "error": None,
                 "outputs": {"log": [1, 2]}, "transport": {}},
        "bad": {"events": 0, "wall_seconds": 0.0, "wait_seconds": 0.0,
                "work_cycles": 0.0, "error": "RuntimeError: boom",
                "outputs": {}, "transport": {}},
    }
    watch = RunWatch(["good", "bad"])
    watch.note(hb("good", sim_ps=3 * US))
    watch.note_done("good")
    watch.note_done("bad", error="RuntimeError: boom")
    report = build_run_report("mp", 10 * US, 2.0, components, watch)
    assert report["schema"] == RUN_REPORT_SCHEMA == 5
    assert report["mode"] == "mp"      # v5 field; prior fields unchanged
    assert report["timeline"] is None  # v3 field; v2 fields unchanged
    assert report["audit"] is None     # v4 field; prior fields unchanged
    assert list(report["components"]) == ["bad", "good"]
    assert report["components"]["good"]["events"] == 42
    assert report["components"]["good"]["outputs"] == {"log": [1, 2]}
    assert report["components"]["good"]["error"] is None
    assert report["components"]["bad"]["error"] == "RuntimeError: boom"
    assert report["trace"] is None  # references come with write_run
    assert report["health"]["components"]["bad"] == HEALTH_FAILED
    assert report["heartbeats"][0]["comp"] == "good"

    path = tmp_path / "run_report.json"
    write_run_report(str(path), report)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(report, default=str))
    assert loaded["schema"] == 5
    assert loaded["health"]["degraded"] is True


def test_run_report_health_defaults_to_null():
    report = build_run_report("fast", 1 * US, 0.1, {})
    assert report["schema"] == 5
    assert report["health"] is None
    assert report["audit"] is None
    assert report["heartbeats"] == []


# -- child mailbox (no processes) ---------------------------------------------

class FakeEnd:
    def __init__(self, name):
        self.name = name

    def counters(self):
        return {"tx_msgs": 7, "rx_msgs": 5}


class FakeComp:
    name = "x"
    events_processed = 99
    work_cycles = 123.0
    now = 5 * US  # advance() leaves a component's clock at its commit
    ends = (FakeEnd("x.e"),)


def make_mailbox(**kw):
    import queue
    cmd_q, reply_q = queue.Queue(), queue.Queue()
    box = ChildMailbox("x", cmd_q, reply_q, FakeComp(), **kw)
    return box, cmd_q, reply_q


def test_mailbox_idle_poll_is_cheap_and_false():
    box, _, reply_q = make_mailbox()
    assert box.poll(5 * US) is False
    assert reply_q.empty()


def test_mailbox_metrics_snapshot_at_commit_horizon():
    box, cmd_q, reply_q = make_mailbox(
        transport_stats=lambda: {"frames_out": 3})
    cmd_q.put({"cmd": "metrics", "req": 7})
    assert box.poll(5 * US) is False
    req, comp, payload = reply_q.get_nowait()
    assert (req, comp) == (7, "x")
    assert payload == {"component.x.events": 99.0,
                       "component.x.work_cycles": 123.0,
                       "component.x.sim_ps": float(5 * US),
                       "channel.x.x.e.tx_msgs": 7.0,
                       "channel.x.x.e.rx_msgs": 5.0,
                       "transport.x.frames_out": 3.0}


def test_mailbox_stop_acks_then_reports_stop():
    box, cmd_q, reply_q = make_mailbox()
    cmd_q.put({"cmd": "stop", "req": 1})
    assert box.poll(3 * US) is True
    assert box.poll(3 * US) is True  # sticky
    _, _, payload = reply_q.get_nowait()
    assert payload == {"stopping_at_ps": 3 * US}


def test_mailbox_dump_trace_without_tracer_is_an_error_reply():
    box, cmd_q, reply_q = make_mailbox()
    cmd_q.put({"cmd": "dump-trace", "req": 2})
    box.poll(0)
    _, _, payload = reply_q.get_nowait()
    assert "error" in payload


def test_mailbox_set_flow_sample_without_recorder():
    box, cmd_q, reply_q = make_mailbox()
    cmd_q.put({"cmd": "set-flow-sample", "n": 4, "req": 3})
    box.poll(0)
    _, _, payload = reply_q.get_nowait()
    assert "error" in payload  # no recorder installed in this process


def test_mailbox_survives_bad_command():
    box, cmd_q, reply_q = make_mailbox()
    cmd_q.put({"cmd": "no-such", "req": 4})
    assert box.poll(0) is False
    _, _, payload = reply_q.get_nowait()
    assert "unhandled" in payload["error"]


def test_retune_sample_validates():
    from repro.obs.flows import retune_sample
    with pytest.raises(ValueError):
        retune_sample(0)
    assert retune_sample(4) is False  # nothing installed here


# -- control plane protocol (no child processes) ------------------------------

def test_socket_path_relocates_when_rundir_too_long(tmp_path):
    short = socket_path_for(str(tmp_path))
    assert short.startswith(str(tmp_path))
    deep = tmp_path / ("x" * 120)
    relocated = socket_path_for(str(deep))
    assert not relocated.startswith(str(deep))
    assert len(relocated.encode()) <= 100


def test_wait_for_control_times_out_with_hint(tmp_path):
    with pytest.raises(ControlError, match="control endpoint"):
        wait_for_control(str(tmp_path), timeout_s=0.15, poll_s=0.02)


@pytest.fixture
def plane(tmp_path):
    watch = RunWatch(["a", "b"], hb_interval_s=0.05)
    plane = ControlPlane(str(tmp_path), 10 * US, watch, cmd_queues={},
                         reply_q=None, reply_timeout_s=0.2)
    plane.start()
    yield plane
    plane.close()


def test_control_discovery_file_and_ping(plane, tmp_path):
    doc = read_control_file(str(tmp_path))
    assert doc["schema"] == CONTROL_SCHEMA
    assert doc["components"] == ["a", "b"]
    assert doc["until_ps"] == 10 * US
    with ControlClient.attach(str(tmp_path)) as client:
        assert client.ping()["ok"] is True


def test_control_status_reply_structure(plane, tmp_path):
    plane.watch.note(hb("a", sim_ps=5 * US, eps=50.0, waiting=True))
    plane.watch.tick()
    plane.watch.note_done("b")
    with ControlClient.attach(str(tmp_path)) as client:
        reply = client.status()
    assert reply["ok"] and reply["schema"] == CONTROL_SCHEMA
    a = reply["components"]["a"]
    assert a["state"] == HEALTH_OK
    assert a["sim_ps"] == 5 * US
    assert a["progress"] == 0.5
    assert a["waiting"] is True
    assert reply["components"]["b"]["state"] == HEALTH_DONE
    assert reply["done"] == ["b"] and reply["running"] == ["a"]
    assert reply["health"]["components"]["a"] == HEALTH_OK
    # the reply renders (pure function used by the live view)
    text = render_status(reply)
    assert "a" in text and "50" in text


def test_control_unknown_command_and_bad_json(plane, tmp_path):
    with ControlClient.attach(str(tmp_path)) as client:
        reply = client.request("frobnicate")
        assert reply["ok"] is False and "unknown command" in reply["error"]
        client._sock.sendall(b"this is not json\n")
        reply = json.loads(client._file.readline())
        assert reply["ok"] is False


def test_control_dump_trace_without_tracing_fails_clean(plane, tmp_path):
    with ControlClient.attach(str(tmp_path)) as client:
        reply = client.dump_trace()
    assert reply["ok"] is False and "no trace recorder" in reply["error"]


def test_control_set_flow_sample_validates_n(plane, tmp_path):
    with ControlClient.attach(str(tmp_path)) as client:
        assert client.set_flow_sample(0)["ok"] is False
        assert client.request("set-flow-sample")["ok"] is False


def test_control_close_removes_discovery_and_socket(tmp_path):
    plane = ControlPlane(str(tmp_path), US, RunWatch(["a"]), cmd_queues={},
                         reply_q=None)
    plane.start()
    assert (tmp_path / CONTROL_FILE).exists()
    plane.close()
    assert not (tmp_path / CONTROL_FILE).exists()
    with pytest.raises(ControlError):
        ControlClient.attach(str(tmp_path))


def test_attach_rejects_corrupt_control_file(tmp_path):
    # a half-written/corrupt control.json must fail with a clean
    # ControlError (one-line CLI message), never a raw JSONDecodeError
    (tmp_path / CONTROL_FILE).write_text("{not json")
    with pytest.raises(ControlError, match="no usable"):
        ControlClient.attach(str(tmp_path))


def test_parse_commands():
    assert _parse_commands([]) == []
    assert _parse_commands(["status", "stop"]) == [("status", {}),
                                                   ("stop", {})]
    assert _parse_commands(["set-flow-sample", "8"]) == [
        ("set-flow-sample", {"n": 8})]
    with pytest.raises(ValueError):
        _parse_commands(["set-flow-sample"])
    with pytest.raises(ValueError):
        _parse_commands(["set-flow-sample", "many"])


def test_render_status_handles_starting_components():
    text = render_status({"until_ps": US, "elapsed_s": 0.0, "running": ["a"],
                          "done": [], "components": {"a": {"state":
                                                           "starting"}}})
    assert "starting" in text


# -- end to end against real child processes ----------------------------------

@pytest.mark.slow
def test_attach_status_dump_trace_and_graceful_stop(tmp_path, monkeypatch):
    """Attach to a live 4-process run: status, partial trace dump, stop.

    The horizon is far beyond what the run could cover in the test
    budget, so a clean finish proves the graceful-stop path (children
    break at their next quiescent horizon and report results normally).
    """
    monkeypatch.setattr(procrunner, "HB_INTERVAL_S", 0.05)
    specs, channels = pipeline_specs(4)
    runner = ProcessRunner(specs, channels)
    runner.recorders.append(TraceRecorder())
    rundir = tmp_path / "run"
    out: dict = {}

    def drive():
        out["results"] = runner.run(1 * SEC, timeout_s=120,
                                    rundir=str(rundir), control=True)

    t = threading.Thread(target=drive)
    t.start()
    try:
        wait_for_control(str(rundir), timeout_s=20.0)
        with ControlClient.attach(str(rundir)) as client:
            # status: all four components, progressing
            deadline = time.monotonic() + 30
            while True:
                reply = client.status()
                assert reply["ok"]
                assert set(reply["components"]) == {"s0", "s1", "s2", "s3"}
                if any(c.get("sim_ps", 0) > 0
                       for c in reply["components"].values()):
                    break
                assert time.monotonic() < deadline, "no progress observed"
                time.sleep(0.05)
            # live metrics snapshot straight from the children
            mreply = client.metrics()
            assert mreply["ok"] and not mreply["missing"]
            metrics = mreply["snapshot"]["metrics"]
            assert any(k.startswith("component.s0.") for k in metrics)
            # partial trace dump of the run so far, without stopping
            dreply = client.dump_trace()
            assert dreply["ok"] and not dreply["errors"]
            assert dreply["path"] == str(rundir / "traces" /
                                         "trace.partial.json")
            doc = load_trace(dreply["path"])
            assert validate_chrome_doc(doc) == []
            assert doc["traceEvents"]
            # graceful stop: every running child acks
            sreply = client.stop()
            assert sreply["ok"] and not sreply["missing"]
    finally:
        t.join(timeout=120)
    assert not t.is_alive()
    results = out["results"]
    assert set(results) == {"s0", "s1", "s2", "s3"}
    assert all(r.error is None for r in results.values())
    assert all(r.events > 0 for r in results.values())
    # the run stopped early: nobody reached the 1s horizon
    report = json.loads((rundir / "run_report.json").read_text())
    assert report["schema"] == RUN_REPORT_SCHEMA
    assert report["health"] is not None
    assert report["trace"] == "trace.json"
    # control endpoint is gone after the run
    assert not (rundir / CONTROL_FILE).exists()


@pytest.mark.slow
def test_control_commands_do_not_perturb_digest(tmp_path, monkeypatch):
    """Determinism pin: a control-plane run, with commands landing
    mid-run, produces bit-identical event timelines to a control-free
    run of the same model."""
    monkeypatch.setattr(procrunner, "HB_INTERVAL_S", 0.05)
    base = mp_audit_ledger(4, 2 * MS)

    rundir = tmp_path / "run"
    issued = {"n": 0}
    stop_poking = threading.Event()

    def poke():
        try:
            client = ControlClient.attach(str(rundir), wait_s=20.0)
        except ControlError:
            return
        with client:
            while not stop_poking.is_set():
                try:
                    client.status()
                    client.metrics()
                    client.dump_trace()
                    client.set_flow_sample(3)
                    issued["n"] += 4
                except ControlError:
                    return
                time.sleep(0.02)

    specs, channels = pipeline_specs(4)
    runner = ProcessRunner(specs, channels)
    audit = AuditCollector(window_ps=AUDIT_WINDOW_PS)
    runner.recorders += [audit, TraceRecorder()]
    t = threading.Thread(target=poke)
    # every child traces every flow, so set-flow-sample has a recorder
    # to retune
    install_flow_recorder(Tracer(), sample_n=1)
    t.start()
    try:
        runner.run(2 * MS, timeout_s=120, rundir=str(rundir), control=True)
    finally:
        uninstall_flow_recorder()
        stop_poking.set()
        t.join(timeout=30)
    assert issued["n"] >= 4, "no control commands landed during the run"
    assert_same_timeline(base, audit.to_ledger())


class Wedge(Component):
    """Sleeps inside an event callback once: heartbeats stop (stale)."""

    def __init__(self, name, sleep_s):
        super().__init__(name)
        self.sleep_s = sleep_s
        self.wedged = False
        self.end = self.attach_end(
            ChannelEnd(f"{name}.e", latency=500 * NS), self.on_msg)

    def on_msg(self, msg):
        if not self.wedged:
            self.wedged = True
            time.sleep(self.sleep_s)


class Chatter(Component):
    """Streams messages at the wedge; blocks on sync when it wedges."""

    def __init__(self, name):
        super().__init__(name)
        self.end = self.attach_end(
            ChannelEnd(f"{name}.e", latency=500 * NS), self.on_msg)

    def start(self):
        self.call_after(0, self.fire, 0)

    def fire(self, i):
        self.end.send(RawMsg(payload=i), self.now)
        self.call_after(100 * NS, self.fire, i + 1)

    def on_msg(self, msg):
        pass


def make_wedge(name, sleep_s):
    return Wedge(name, sleep_s)


def make_chatter(name):
    return Chatter(name)


@pytest.mark.slow
def test_wedged_child_detected_and_reported_in_health(tmp_path, monkeypatch):
    """Stalled-worker injection: a deliberately wedged child turns up in
    the ``health`` section of ``run_report.json`` within the watchdog
    window — the silent child as *stale*, its blocked partner as
    *stalled* — and the run still completes once the wedge clears.  The
    wedge outlasts the staleness threshold (2 s at a 50 ms beat) by 1 s."""
    from repro.parallel.procrunner import ProcChannel, ProcSpec
    monkeypatch.setattr(procrunner, "HB_INTERVAL_S", 0.05)
    runner = ProcessRunner(
        [ProcSpec("wedge", make_wedge, ("wedge", 3.0)),
         ProcSpec("chatter", make_chatter, ("chatter",))],
        [ProcChannel("wedge", "wedge.e", "chatter", "chatter.e")])
    results = runner.run(50 * US, timeout_s=60, rundir=str(tmp_path))
    assert all(r.error is None for r in results.values())
    report = json.loads((tmp_path / "run_report.json").read_text())
    assert report["schema"] == RUN_REPORT_SCHEMA
    health = report["health"]
    kinds = {(a["comp"], a["kind"]) for a in health["alerts"]}
    assert ("wedge", "stale") in kinds
    assert ("chatter", "stalled") in kinds
    # both finished: terminal states, not frozen alarm states
    assert health["components"] == {"wedge": HEALTH_DONE,
                                    "chatter": HEALTH_DONE}
