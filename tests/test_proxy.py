"""Tests for scale-out proxy components."""

import pytest

from repro.channels.channel import ChannelEnd
from repro.channels.messages import RawMsg
from repro.channels.trunk import TrunkEnd
from repro.kernel.component import Component
from repro.kernel.simtime import MS, NS, US
from repro.parallel.proxy import ProxyPair
from repro.parallel.simulation import Simulation


class Pinger(Component):
    def __init__(self, name, latency_ps, initiator=False, limit=10):
        super().__init__(name)
        self.end = self.attach_end(
            ChannelEnd(f"{name}.e", latency=latency_ps), self.on_msg)
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
            self.call_after(1 * US, self.fire, msg.payload + 1)


def run_pingpong(proxied: bool, latency_ps=25 * US, mode="fast"):
    sim = Simulation(mode=mode)
    a = sim.add(Pinger("a", latency_ps, initiator=True))
    b = sim.add(Pinger("b", latency_ps))
    if proxied:
        pair = ProxyPair("px", wire_latency_ps=10 * US)
        pair.register(sim)
        pair.splice(sim, a.end, b.end)
    else:
        sim.connect(a.end, b.end)
    sim.run(2 * MS)
    return a.log, b.log


def test_proxy_preserves_end_to_end_timing():
    direct = run_pingpong(proxied=False)
    proxied = run_pingpong(proxied=True)
    assert direct == proxied


def test_proxy_preserves_timing_under_strict_sync():
    fast = run_pingpong(proxied=True, mode="fast")
    strict = run_pingpong(proxied=True, mode="strict")
    assert fast == strict


def test_proxy_counts_forwarded_messages():
    sim = Simulation(mode="fast")
    a = sim.add(Pinger("a", 25 * US, initiator=True, limit=5))
    b = sim.add(Pinger("b", 25 * US))
    pair = ProxyPair("px", wire_latency_ps=10 * US)
    pair.register(sim)
    pair.splice(sim, a.end, b.end)
    sim.run(2 * MS)
    assert pair.a.forwarded > 0
    assert pair.b.forwarded > 0


def test_proxy_rejects_insufficient_latency_budget():
    sim = Simulation(mode="fast")
    a = sim.add(Pinger("a", 5 * US, initiator=True))
    b = sim.add(Pinger("b", 5 * US))
    pair = ProxyPair("px", wire_latency_ps=10 * US)
    pair.register(sim)
    with pytest.raises(ValueError, match="too small"):
        pair.splice(sim, a.end, b.end)


def test_proxy_rejects_asymmetric_channels():
    sim = Simulation(mode="fast")
    a = sim.add(Pinger("a", 25 * US, initiator=True))
    b = sim.add(Pinger("b", 30 * US))
    pair = ProxyPair("px", wire_latency_ps=10 * US)
    pair.register(sim)
    with pytest.raises(ValueError, match="asymmetric"):
        pair.splice(sim, a.end, b.end)
    # the proxy's trunk tags what it forwards: a trunk end's tags would be lost
    with pytest.raises(ValueError, match="trunk"):
        pair.splice(sim, TrunkEnd("t", 25 * US), b.end)


def test_proxy_validates_wire_latency():
    with pytest.raises(ValueError):
        ProxyPair("px", wire_latency_ps=0)


def test_proxy_multiplexes_multiple_channels():
    sim = Simulation(mode="fast")
    pair = ProxyPair("px", wire_latency_ps=10 * US)
    pair.register(sim)
    pingers = []
    for i in range(3):
        a = sim.add(Pinger(f"a{i}", 25 * US, initiator=True, limit=4))
        b = sim.add(Pinger(f"b{i}", 25 * US))
        pair.splice(sim, a.end, b.end)
        pingers.append((a, b))
    sim.run(2 * MS)
    for a, b in pingers:
        assert [p for _, p in b.log] == [0, 2, 4]
        assert b.log[0][0] == 25 * US
