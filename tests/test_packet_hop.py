"""The per-packet hop: its kernel events, its calls, the route cache, late
pipelines.

A speed-up of the packet path must keep every packet's kernel events, at
the same timestamps.  The first test pins them for one switch hop, so a
change that drops or adds one fails here by name, not only as a digest
mismatch further up.  The call budget pins what the hop costs in between:
the Python frames and calls one datagram takes over idle lines.
"""

import sys
from collections import Counter

import pytest

from repro.kernel.simtime import NS, US
from repro.netsim.network import NetworkSim
from repro.netsim.packet import Packet
from repro.netsim.topology import instantiate, single_switch_rack
from repro.obs.audit import ComponentAuditor
from repro.parallel.simulation import Observer, Simulation

#: One 500 B UDP datagram (546 B frame, 436.8 ns at 10 Gb/s) from h1 over
#: sw (300 ns processing) to h2, 1 us links: every event and its time.
HOP_EVENTS = [
    ("send", 0),
    ("h1->sw tx_done", 436_800),
    ("sw delivery", 1_436_800),
    ("sw processing", 1_736_800),
    ("sw->h2 tx_done", 2_173_600),
    ("h2 delivery", 3_173_600),
]


class _EventTimes(Observer):
    """Records the timestamp of every executed event of the network,
    through its audit probe."""

    def start(self, sim, until_ps):
        (net,) = sim.components
        self.probe = ComponentAuditor.attach(net)

    def finish(self):
        self.probe.result()  # closes the last window and unhooks
        stamps = self.probe.payload().partition(":")[2].rstrip(";")
        self.times = [int(ts) for ts in stamps.split(",")]


def _line(latency=1 * US):
    net = NetworkSim("n")
    h1 = net.add_host("h1", addr=1)
    h2 = net.add_host("h2", addr=2)
    sw = net.add_switch("sw")
    l1 = net.add_link(h1, sw, 10e9, latency)
    l2 = net.add_link(sw, h2, 10e9, latency)
    sw.add_route(1, l1.port_b)
    sw.add_route(2, l2.port_a)
    return net, h1, h2, sw


@pytest.mark.parametrize("mode", ["fast", "strict"])
def test_one_switch_hop_costs_six_events(mode):
    net, h1, h2, sw = _line()
    arrivals = []
    h2.stack.udp_socket(9, lambda pkt: arrivals.append(net.now))
    sock = h1.stack.udp_socket(8)
    net.schedule(0, lambda: sock.sendto(2, 9, 500))
    sim = Simulation(mode=mode)
    sim.add(net)
    events = _EventTimes()
    sim.observers.append(events)
    sim.run(100 * US)
    assert list(zip((name for name, _ in HOP_EVENTS), events.times)) \
        == HOP_EVENTS
    assert net.events_processed == len(HOP_EVENTS)
    assert arrivals == [3_173_600]


#: What one 500 B UDP datagram costs over host -> switch -> host on idle
#: lines, as ``sys.setprofile`` sees it: its Python frames by name, and
#: every call (frames and C functions).  An idle line takes the packet
#: straight onto the wire (one ``pass_through``, no enqueue / ``_tx_next``
#: / dequeue) and a protocol host computes no cost (no ``charge``).  Lower
#: the pin when a change takes a frame out; never raise it for a frame.
HOP_FRAMES = {
    "sendto": 1, "alloc": 1, "__init__": 1, "now": 1, "tx": 1,
    "transmit": 2, "pass_through": 2, "post_at": 5, "peek_ts": 1,
    "_tx_done": 2, "receive": 2, "forward": 1, "handle_packet": 1,
    "_deliver": 1, "<lambda>": 1,
}
HOP_CALLS = 40


def _hop_calls(datagrams):
    """Frames by name and total calls of a run of ``datagrams`` datagrams,
    10 us apart, so every line is idle when each one arrives."""
    net, h1, h2, sw = _line()
    h2.stack.udp_socket(9, lambda pkt: None)
    sock = h1.stack.udp_socket(8)
    for i in range(datagrams):
        net.schedule(i * 10 * US, sock.sendto, 2, 9, 500)
    sim = Simulation(mode="fast")
    sim.add(net)
    frames = Counter()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            frames[frame.f_code.co_name] += 1
            calls += 1
        elif event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        sim.run(100 * US)
    finally:
        sys.setprofile(None)
    assert sw.tx_packets == datagrams
    return frames, calls


def test_an_idle_hop_stays_inside_its_call_budget():
    (frames1, calls1), (frames2, calls2) = _hop_calls(1), _hop_calls(2)
    frames = frames2 - frames1
    assert not {"enqueue", "_tx_next", "dequeue", "charge"} & set(frames)
    assert dict(frames) == HOP_FRAMES
    assert calls2 - calls1 == HOP_CALLS


def _event_objects(mode, datagrams):
    """``Event`` objects a run of ``datagrams`` paced datagrams builds.

    1 ms links keep every datagram of a run in flight at once, so a kernel
    event per packet would need one ``Event`` per datagram in flight; the
    sender's own timer is one handle, re-armed from the pool."""
    net, h1, h2, sw = _line(latency=1000 * US)
    arrivals = []
    h2.stack.udp_socket(9, lambda pkt: arrivals.append(net.now))
    sock = h1.stack.udp_socket(8)

    def send(left):
        sock.sendto(2, 9, 500)
        if left > 1:
            net.call_after(500 * NS, send, left - 1)

    net.schedule(0, send, datagrams)
    sim = Simulation(mode=mode)
    sim.add(net)
    stats = sim.run(3000 * US)
    assert len(arrivals) == datagrams
    assert stats.event_allocations == net.queue.allocations
    return net.queue.allocations


@pytest.mark.parametrize("mode", ["fast", "strict"])
def test_no_event_object_per_packet(mode):
    """A packet's hop events are posts: 100x the datagrams, same
    ``Event`` count."""
    assert _event_objects(mode, 10) == _event_objects(mode, 1000)


def _star(batched):
    net = NetworkSim("n")
    hosts = [net.add_host(f"h{i}", addr=i) for i in (1, 2, 3)]
    sw = net.add_switch("sw")
    links = [net.add_link(sw, h, 10e9, 1 * US) for h in hosts]
    for h, link in zip(hosts, links):
        sw.add_route(h.addr, link.port_a)
    if batched:
        net.enable_batching()
    return net, hosts, sw, links


@pytest.mark.parametrize("batched", [False, True])
def test_interleaved_destinations_share_the_route_cache(batched):
    net, (h1, h2, h3), sw, links = _star(batched)
    got = {2: [], 3: []}
    h2.stack.udp_socket(9, lambda pkt: got[2].append(pkt.dst))
    h3.stack.udp_socket(9, lambda pkt: got[3].append(pkt.dst))
    sock = h1.stack.udp_socket(8)

    def burst():
        for _ in range(4):
            sock.sendto(2, 9, 500)
            sock.sendto(3, 9, 500)

    net.schedule(0, burst)
    sim = Simulation(mode="fast")
    sim.add(net)
    sim.run(100 * US)
    # both destinations stay cached while they alternate
    assert sw._route_cache == {2: links[1].dir_ab, 3: links[2].dir_ab}
    # and every packet left through its FIB port
    assert got == {2: [2] * 4, 3: [3] * 4}
    assert [link.dir_ab.tx_packets for link in links] == [0, 4, 4]
    assert sw.tx_packets == 8


def test_pipeline_attached_after_construction_runs_per_packet():
    seen = []

    class Counting:
        def process(self, switch, pkt, in_port):
            seen.append((switch.net.now, pkt.dst, in_port.index))
            return [pkt]

    # ``instantiate`` sets ``switch.pipeline`` after ``add_switch``
    build = instantiate(single_switch_rack(
        servers=1, clients=1, pipeline_factory=lambda switch: Counting()))
    net = build.net
    server, client = net.nodes["server0"], net.nodes["client0"]
    arrivals = []
    server.stack.udp_socket(9, lambda pkt: arrivals.append(net.now))
    sock = client.stack.udp_socket(8)
    net.schedule(0, lambda: [sock.sendto(server.addr, 9, 500)
                             for _ in range(3)])
    sim = Simulation(mode="fast")
    sim.add(net)
    sim.run(100 * US)
    assert len(seen) == 3 and len(arrivals) == 3
    assert all(dst == server.addr and port == 1 for _, dst, port in seen)
    # processing runs proc_delay after each wire arrival, as without one
    assert seen[0][0] == 436_800 + 1 * US + 300 * NS
    assert arrivals[0] == 3_173_600


def test_sending_out_an_unlinked_port_still_raises():
    net = NetworkSim("n")
    host = net.add_host("h", addr=1)
    sw = net.add_switch("sw")
    host.new_port()
    sw.add_route(2, sw.new_port())
    with pytest.raises(RuntimeError, match="h port 0: not linked"):
        host.tx(Packet(1, 2, 100))
    with pytest.raises(RuntimeError, match="sw port 0: not linked"):
        sw.forward(Packet(1, 2, 100))
    assert not sw._route_cache
