"""Integration tests for the real multi-process runtime."""

import json
import os
import signal
import time

import pytest

from repro.channels.channel import ChannelEnd
from repro.channels.messages import RawMsg
from repro.kernel.component import Component
from repro.kernel.simtime import MS, NS, US
from repro.obs.telemetry import HEALTH_DONE, HEALTH_FAILED
from repro.parallel.procrunner import ProcChannel, ProcSpec, ProcessRunner
from repro.parallel.simulation import Simulation


class Pinger(Component):
    def __init__(self, name, initiator=False, limit=30, sync_interval=None):
        super().__init__(name)
        self.end = self.attach_end(
            ChannelEnd(f"{name}.e", latency=500 * NS,
                       sync_interval=sync_interval), self.on_msg)
        self.initiator = initiator
        self.limit = limit
        self.log = []

    def start(self):
        if self.initiator:
            self.call_after(0, self.fire, 0)

    def fire(self, i):
        self.end.send(RawMsg(payload=i), self.now)

    def on_msg(self, msg):
        self.log.append((self.now, msg.payload))
        if msg.payload < self.limit:
            self.call_after(100 * NS, self.fire, msg.payload + 1)

    def collect_outputs(self):
        return {"log": self.log}


def make_pinger(name, initiator=False):
    return Pinger(name, initiator)


class LagPinger(Pinger):
    """Records, at the start of every sync round, how far the promise the
    peer has lags the one this component could give (commit + latency)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lags = []

    def advance(self, target):
        if self._started:  # the previous round's flush is done
            self.lags.append(self.now + self.end.latency
                             - self.end._promise_published)
        return super().advance(target)

    def collect_outputs(self):
        return {"log": self.log, "lags": self.lags}


def make_lag_pinger(name, initiator, sync_interval):
    return LagPinger(name, initiator, sync_interval=sync_interval)


class Ticker(Component):
    """No channel ends at all: only local events."""

    def start(self):
        self.call_after(0, self.tick)

    def tick(self):
        self.call_after(100 * NS, self.tick)


def make_ticker(name):
    return Ticker(name)


class Broken(Component):
    def start(self):
        raise RuntimeError("boom")


def make_broken(name):
    return Broken(name)


def fast_oracle(until_ps):
    """The same two pingers in one fast-mode process."""
    sim = Simulation(mode="fast")
    a = sim.add(Pinger("a", True))
    b = sim.add(Pinger("b"))
    sim.connect(a.end, b.end)
    sim.run(until_ps)
    return a, b


@pytest.mark.slow
def test_mp_matches_inproc():
    runner = ProcessRunner(
        [ProcSpec("a", make_pinger, ("a", True)),
         ProcSpec("b", make_pinger, ("b",))],
        [ProcChannel("a", "a.e", "b", "b.e")],
    )
    results = runner.run(until_ps=1 * MS, timeout_s=60)
    a, b = fast_oracle(1 * MS)
    assert results["a"].outputs["log"] == a.log
    assert results["b"].outputs["log"] == b.log
    assert results["a"].events == a.events_processed


@pytest.mark.slow
def test_mp_reports_counters_and_waits():
    runner = ProcessRunner(
        [ProcSpec("a", make_pinger, ("a", True)),
         ProcSpec("b", make_pinger, ("b",))],
        [ProcChannel("a", "a.e", "b", "b.e")],
    )
    results = runner.run(until_ps=500 * US, timeout_s=60)
    ca = results["a"].end_counters["a.e"]
    assert ca["tx_msgs"] > 0
    assert ca["tx_syncs"] > 0
    assert results["a"].wall_seconds > 0


def test_duplicate_names_rejected():
    spec = ProcSpec("a", make_pinger, ("a",))
    with pytest.raises(ValueError):
        ProcessRunner([spec, spec], [])


@pytest.mark.slow
def test_child_error_propagates():
    runner = ProcessRunner([ProcSpec("bad", make_broken, ("bad",))], [])
    with pytest.raises(RuntimeError, match="boom"):
        runner.run(until_ps=1 * US, timeout_s=30)


@pytest.mark.parametrize("sync_interval", [None, 125 * NS],
                         ids=["default", "below-latency"])
def test_children_sync_every_interval(sync_interval):
    """A child publishes after every ``sync_interval`` of simulated
    progress instead of running to its input horizon first, so two
    symmetric peers execute the same window concurrently."""
    until = 100 * US
    interval = sync_interval or 500 * NS
    runner = ProcessRunner(
        [ProcSpec("a", make_lag_pinger, ("a", True, sync_interval)),
         ProcSpec("b", make_lag_pinger, ("b", False, sync_interval))],
        [ProcChannel("a", "a.e", "b", "b.e")],
    )
    results = runner.run(until_ps=until, timeout_s=60)
    for name, comp in zip("ab", fast_oracle(until)):
        res = results[name]
        assert res.outputs["log"] == comp.log
        assert res.transport["batches_out"] >= until // interval - 1
        assert len(res.outputs["lags"]) >= until // interval - 1
        assert max(res.outputs["lags"]) <= interval


def test_component_without_ends_runs_to_the_end():
    results = ProcessRunner([ProcSpec("t", make_ticker, ("t",))], []).run(
        until_ps=10 * US, timeout_s=30)
    assert results["t"].events == 101  # ticks at 0, 100 ns, ..., 10 us
    assert results["t"].wait_seconds == 0


def test_run_shorter_than_one_interval():
    runner = ProcessRunner(
        [ProcSpec("a", make_pinger, ("a", True)),
         ProcSpec("b", make_pinger, ("b",))],
        [ProcChannel("a", "a.e", "b", "b.e")],
    )
    results = runner.run(until_ps=1, timeout_s=30)
    assert results["a"].events == 1 and results["b"].events == 0
    assert results["a"].end_counters["a.e"]["tx_msgs"] == 1


# -- process hygiene ---------------------------------------------------------

class SelfKiller(Pinger):
    """Kills its own process with ``SIGKILL`` at its tenth message."""

    def on_msg(self, msg):
        if msg.payload >= 10:
            os.kill(os.getpid(), signal.SIGKILL)
        super().on_msg(msg)


def make_self_killer(name):
    return SelfKiller(name, limit=10 ** 9)


def test_child_killed_by_a_signal_is_reported_at_once(tmp_path):
    """A child that dies without a result is named with the signal that
    killed it as soon as its pipe closes; the parent aborts the rings, so
    its blocked peer leaves at once instead of at ``timeout_s``."""
    runner = ProcessRunner(
        [ProcSpec("a", make_pinger, ("a", True)),
         ProcSpec("killer", make_self_killer, ("killer",))],
        [ProcChannel("a", "a.e", "killer", "killer.e")])
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="component failures") as err:
        runner.run(until_ps=1000 * MS, timeout_s=30, rundir=str(tmp_path))
    assert time.monotonic() - t0 < 10
    message = str(err.value)
    assert "'killer': 'killed by SIGKILL'" in message
    assert "a aborted" in message  # the peer left through its error path
    report = json.loads((tmp_path / "run_report.json").read_text())
    states = report["health"]["components"]
    assert states == {"a": HEALTH_FAILED, "killer": HEALTH_FAILED}


class Talker(Ticker):
    def start(self):
        print(f"hello from {self.name}")
        super().start()


def make_talker(name):
    return Talker(name)


def test_print_in_a_child_reaches_the_terminal(capfd):
    print("parent line, buffered before the fork", end="")
    ProcessRunner([ProcSpec("t", make_talker, ("t",))], []).run(
        until_ps=1 * US, timeout_s=30)
    out = capfd.readouterr().out
    assert "hello from t" in out
    # a child flushes only its own text, never the parent's inherited buffer
    assert out.count("parent line") == 1


class Hang(Component):
    """Writes its pid to ``path``, then sleeps past every deadline."""

    def __init__(self, name, path):
        super().__init__(name)
        self.path = path

    def start(self):
        with open(self.path, "w") as fh:
            fh.write(str(os.getpid()))
        time.sleep(60)


def make_hang(name, path):
    return Hang(name, path)


def test_parent_deadline_kills_and_reaps_every_child(tmp_path, monkeypatch):
    """The children still running at the parent's deadline are killed and
    reaped, and the run report names each as failed, with the deadline in
    its error."""
    from repro.parallel import procrunner
    monkeypatch.setattr(procrunner, "_PARENT_GRACE_S", 0.5)
    paths = [str(tmp_path / f"h{i}.pid") for i in range(2)]
    runner = ProcessRunner(
        [ProcSpec("h0", make_hang, ("h0", paths[0])),
         ProcSpec("h1", make_hang, ("h1", paths[1])),
         ProcSpec("t", make_ticker, ("t",))], [])
    rundir = tmp_path / "run"
    t0 = time.monotonic()
    with pytest.raises(TimeoutError, match=r"no result from \['h0', 'h1'\]"):
        runner.run(until_ps=1 * US, timeout_s=0.5, rundir=str(rundir))
    assert time.monotonic() - t0 < 10
    for path in paths:
        with open(path) as fh:
            pid = int(fh.read())
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(pid, 0)
    report = json.loads((rundir / "run_report.json").read_text())
    components = report["components"]
    assert sorted(components) == ["h0", "h1", "t"]
    assert components["t"]["error"] is None
    for name in ("h0", "h1"):
        assert "parent's deadline" in components[name]["error"]
    health = report["health"]
    assert health["components"] == {"h0": HEALTH_FAILED, "h1": HEALTH_FAILED,
                                    "t": HEALTH_DONE}
    assert health["degraded"]
    failed = [(a["comp"], a["detail"]) for a in health["alerts"]
              if a["kind"] == "failed"]
    assert [comp for comp, _ in failed] == ["h0", "h1"]
    assert all("parent's deadline" in detail for _, detail in failed)


class Flooder(Component):
    """Sends far more than a ring holds within one latency window; as
    ``crash_at`` is set, it instead raises at that time."""

    def __init__(self, name, crash_at=None):
        super().__init__(name)
        self.crash_at = crash_at
        self.end = self.attach_end(
            ChannelEnd(f"{name}.e", latency=1 * MS, sync_interval=1 * US),
            lambda msg: None)

    def start(self):
        if self.crash_at is None:
            self.call_after(0, self.fire)
        else:
            self.call_after(self.crash_at, self.crash)

    def fire(self):
        self.end.send(RawMsg(payload=b"x" * 10_000), self.now)
        self.call_after(100 * NS, self.fire)

    def crash(self):
        raise RuntimeError("gave up")


def make_flooder(name, crash_at=None):
    return Flooder(name, crash_at)


def test_flush_stuck_on_a_dead_peer_leaves_at_once():
    """The peer dies a millisecond before the flooder's horizon, so the
    flooder fills the ring and waits in its flush; it sees the abort word
    there and leaves long before its deadline."""
    runner = ProcessRunner(
        [ProcSpec("flood", make_flooder, ("flood",)),
         ProcSpec("peer", make_flooder, ("peer", 50 * US))],
        [ProcChannel("flood", "flood.e", "peer", "peer.e")])
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="run aborted, a peer failed"):
        runner.run(until_ps=10 * MS, timeout_s=30)
    assert time.monotonic() - t0 < 10
