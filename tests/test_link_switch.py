"""Tests for links (serialization/propagation) and switches (forwarding)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernel.simtime import NS, US
from repro.netsim.network import NetworkSim
from repro.netsim.packet import Packet
from repro.netsim.ptp_tc import install_transparent_clocks
from repro.parallel.simulation import Simulation


def run_net(net, until=1_000 * US):
    sim = Simulation(mode="fast")
    sim.add(net)
    sim.run(until)


def test_link_serialization_plus_propagation():
    net = NetworkSim("n")
    a = net.add_host("a", addr=1)
    b = net.add_host("b", addr=2)
    net.add_link(a, b, bandwidth_bps=1e9, latency_ps=10 * US)
    got = []
    b.stack.udp_socket(9, lambda pkt: got.append(net.now))
    sock = a.stack.udp_socket(8)

    def send():
        sock.sendto(2, 9, 1000 - 46)  # 1000-byte frame

    net.schedule(0, send)
    run_net(net)
    # 8000 bits at 1 Gbps = 8 us serialization + 10 us propagation
    assert got == [18 * US]


def test_link_queue_backpressure_serializes():
    net = NetworkSim("n")
    a = net.add_host("a", addr=1)
    b = net.add_host("b", addr=2)
    net.add_link(a, b, bandwidth_bps=1e9, latency_ps=1 * US)
    got = []
    b.stack.udp_socket(9, lambda pkt: got.append(net.now))
    sock = a.stack.udp_socket(8)

    def send_two():
        sock.sendto(2, 9, 1000 - 46)
        sock.sendto(2, 9, 1000 - 46)

    net.schedule(0, send_two)
    run_net(net)
    assert len(got) == 2
    # second packet waits for the first one's serialization
    assert got[1] - got[0] == 8 * US


def test_switch_forwards_by_fib():
    net = NetworkSim("n")
    h1 = net.add_host("h1", addr=1)
    h2 = net.add_host("h2", addr=2)
    sw = net.add_switch("sw")
    l1 = net.add_link(h1, sw, 10e9, 1 * US)
    l2 = net.add_link(sw, h2, 10e9, 1 * US)
    sw.add_route(2, l2.port_a)
    sw.add_route(1, l1.port_b)
    got = []
    h2.stack.udp_socket(9, lambda pkt: got.append(pkt.src))
    sock = h1.stack.udp_socket(8)
    net.schedule(0, lambda: sock.sendto(2, 9, 100))
    run_net(net)
    assert got == [1]
    assert sw.rx_packets == 1 and sw.tx_packets == 1


def test_switch_drops_unrouted():
    net = NetworkSim("n")
    h1 = net.add_host("h1", addr=1)
    sw = net.add_switch("sw")
    net.add_link(h1, sw, 10e9, 1 * US)
    sock = h1.stack.udp_socket(8)
    net.schedule(0, lambda: sock.sendto(99, 9, 100))
    run_net(net)
    assert sw.no_route_drops == 1


def test_ecmp_choice_is_deterministic_per_flow():
    net = NetworkSim("n")
    h1 = net.add_host("h1", addr=1)
    sw = net.add_switch("sw")
    h2 = net.add_host("h2", addr=2)
    net.add_link(h1, sw, 10e9, 1 * US)
    la = net.add_link(sw, h2, 10e9, 1 * US)
    lb = net.add_link(sw, h2, 10e9, 1 * US)
    sw.add_route(2, la.port_a)
    sw.add_route(2, lb.port_a)
    sock = h1.stack.udp_socket(8)

    def send_many():
        for _ in range(10):
            sock.sendto(2, 9, 100)

    net.schedule(0, send_many)
    run_net(net)
    # one flow -> one path: all ten packets on the same link
    counts = {la.dir_ab.tx_packets, lb.dir_ab.tx_packets}
    assert counts == {0, 10}


ECMP_RUN = """
from repro import US, Instantiation, System
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.topology import fat_tree

system = System.from_topospec(fat_tree(k=4), seed=1)
hosts = system.protocol_hosts()
server, sender, sink = hosts[0], hosts[1], hosts[-1]
addr = system.addr_of(server)
system.app(server, lambda h: KVServerApp())
for name in hosts[4:12]:
    system.app(name, lambda h: KVClientApp([addr], closed_loop_window=4))
system.app(sink, lambda h: BulkSink(port=5001))
system.app(sender, lambda h, d=system.addr_of(sink): BulkSender(d, 5001))
exp = Instantiation(system).build()
exp.run(200 * US)
(net,) = exp.network_components()
print([(link.dir_ab.tx_packets, link.dir_ba.tx_packets) for link in net.links])
"""


def test_ecmp_choice_does_not_depend_on_the_hash_seed():
    """UDP and TCP flows across a fat tree take the same equal-cost paths
    under any hash seed: every link direction sends as many packets in two
    interpreters with different ``PYTHONHASHSEED``s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    counts = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", ECMP_RUN], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        counts.append(proc.stdout)
    assert counts[0] == counts[1]


def test_pipeline_can_consume_packets():
    class Blackhole:
        def __init__(self):
            self.eaten = 0

        def process(self, switch, pkt, in_port):
            self.eaten += 1
            return None

    net = NetworkSim("n")
    h1 = net.add_host("h1", addr=1)
    sw = net.add_switch("sw")
    hole = Blackhole()
    sw.pipeline = hole
    net.add_link(h1, sw, 10e9, 1 * US)
    sock = h1.stack.udp_socket(8)
    net.schedule(0, lambda: sock.sendto(2, 9, 100))
    run_net(net)
    assert hole.eaten == 1
    assert sw.tx_packets == 0


def test_transparent_clock_accumulates_residence():
    class PtpPayload:
        ptp_event = True

    net = NetworkSim("n")
    h1 = net.add_host("h1", addr=1)
    sw = net.add_switch("sw")
    h2 = net.add_host("h2", addr=2)
    net.add_link(h1, sw, 10e9, 1 * US)
    l2 = net.add_link(sw, h2, 10e9, 1 * US)
    sw.add_route(2, l2.port_a)
    hooked = install_transparent_clocks(net)
    assert hooked >= 2  # both switch egress directions
    got = []
    h2.stack.udp_socket(9, lambda pkt: got.append(pkt.residence_ps))
    sock = h1.stack.udp_socket(8)
    net.schedule(0, lambda: sock.sendto(2, 9, 100, payload=PtpPayload()))
    run_net(net)
    assert len(got) == 1
    # residence includes at least the switch processing delay
    assert got[0] >= sw.proc_delay_ps


def test_duplicate_node_names_rejected():
    net = NetworkSim("n")
    net.add_host("x", addr=1)
    with pytest.raises(ValueError):
        net.add_switch("x")
