"""Integration tests for the real multi-process runtime."""

import pytest

from repro.channels.channel import ChannelEnd
from repro.channels.messages import RawMsg
from repro.kernel.component import Component
from repro.kernel.simtime import MS, NS, US
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
