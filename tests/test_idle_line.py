"""An idle line is a wire: the pass-through equals the queued round trip.

A packet that finds its egress line idle is admitted and started in one
step (``DropTailQueue.pass_through``, then ``_tx_done`` posted at the
serialization end) instead of ``enqueue`` → ``_tx_next`` → ``dequeue``.
The property here: over one line, with bursts of mixed sizes and gaps, a
capacity small enough to drop and ECN thresholds including 0 and 1, every
observable equals a reference that forces every packet through the queue —
per direction the :class:`QueueStats`, ``tx_packets`` / ``tx_bytes``, every
delivery and its time, every ``on_tx_start`` call, the trace and flow
records, and the audit ledger.  Drop-tail and RED queues, batched or not,
tracing and the flows recorder on or off.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.simtime import NS, US
from repro.netsim.link import LinkDirection
from repro.netsim.network import NetworkSim
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue, RedQueue
from repro.obs.audit import AuditCollector
from repro.obs.flows import (_ACTIVE as _FLOWS, install_flow_recorder,
                             uninstall_flow_recorder)
from repro.obs.install import install_network_tracer
from repro.obs.recorder import ProbeDriver
from repro.obs.trace import Tracer
from repro.parallel.simulation import Simulation

from .test_determinism_guard import assert_same_timeline


def _queued_transmit(self, pkt):
    """``LinkDirection.transmit`` before the idle-line step (reference):
    every packet is enqueued, and an idle line starts its head through
    ``_tx_next``, which dequeues it."""
    if self._run:
        self._settle(self.net.now)
    if not self.queue.enqueue(pkt):
        self._drop(pkt)
        return
    rec = _FLOWS[0]
    if rec is not None and pkt.flow:
        rec.hop(pkt.flow, "enq", self.net.name, self.net.now,
                at=self.label)
    if self.batched and self.on_tx_start is None:
        self._assign(pkt, rec)
        return
    if not self.busy:
        if self.obs is not None:
            self._busy_since = self.net.now
            self._busy_pkts = self.tx_packets
        self._tx_next()


#: one burst: (gap before it in ns, sender address, payload sizes, ECT)
_bursts = st.lists(
    st.tuples(st.integers(0, 3_000), st.sampled_from([1, 2]),
              st.lists(st.integers(1, 1_400), min_size=1, max_size=6),
              st.booleans()),
    min_size=1, max_size=8)


def _run_line(bursts, *, red, capacity, ecn, batched, trace, flows, hook):
    net = NetworkSim("n")
    h1 = net.add_host("h1", addr=1)
    h2 = net.add_host("h2", addr=2)
    link = net.add_link(h1, h2, 10e9, 1 * US, queue_capacity_bytes=capacity,
                        ecn_threshold_pkts=ecn)
    directions = (link.dir_ab, link.dir_ba)
    if red:
        for d in directions:
            d.queue = RedQueue(capacity, min_th=0.5, max_th=2.0, max_p=0.5,
                               weight=0.5, rng=random.Random(7))
    if batched:
        net.enable_batching()
    tracer = Tracer()
    if trace:
        install_network_tracer(net, tracer)
    started = []
    if hook:
        for d in directions:
            d.on_tx_start = (lambda pkt, now, label=d.label:
                             started.append((label, now, pkt.size_bytes,
                                             pkt.ce)))
    arrivals = []
    for host in (h1, h2):
        host.stack.udp_socket(
            9, lambda pkt, name=host.name: arrivals.append(
                (name, net.now, pkt.size_bytes, pkt.ce)))
    socks = {1: h1.stack.udp_socket(8), 2: h2.stack.udp_socket(8)}

    def burst(src, sizes, ect):
        for size in sizes:
            socks[src].sendto(3 - src, 9, size, ect=ect)

    t = 0
    for gap, src, sizes, ect in bursts:
        t += gap * NS
        net.schedule(t, burst, src, sizes, ect)
    sim = Simulation(mode="fast")
    sim.add(net)
    audit = AuditCollector(window_ps=10 * US)
    sim.observers.append(ProbeDriver(audit))
    if flows:
        install_flow_recorder(tracer)
    try:
        sim.run(t + 100 * US)
    finally:
        uninstall_flow_recorder()
    lines = [(d.label, d.queue.stats, d.tx_packets, d.tx_bytes)
             for d in directions]
    return (lines, arrivals, started, tracer.records()), audit.to_ledger()


@given(_bursts, st.booleans(), st.integers(200, 6_000),
       st.sampled_from([None, 0, 1, 2]), st.booleans(), st.booleans(),
       st.booleans(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_an_idle_line_equals_the_queued_round_trip(
        bursts, red, capacity, ecn, batched, trace, flows, hook):
    options = dict(red=red, capacity=capacity, ecn=ecn, batched=batched,
                   trace=trace, flows=flows, hook=hook)
    got, got_ledger = _run_line(bursts, **options)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LinkDirection, "transmit", _queued_transmit)
        ref, ref_ledger = _run_line(bursts, **options)
    assert got == ref
    assert_same_timeline(ref_ledger, got_ledger)


def test_the_pass_through_keeps_the_queue_accounting():
    """Drop-tail's pass-through read field by field: ECN marked against
    depth 0, max depths of one packet, and a packet larger than the whole
    queue dropped, as by ``enqueue``; the queue stays empty."""
    q = DropTailQueue(capacity_bytes=1_000, ecn_threshold_pkts=0)
    pkt = Packet(1, 2, 600, ect=True)
    assert q.pass_through(pkt) and pkt.ce
    assert not q.pass_through(Packet(1, 2, 1_001))
    s = q.stats
    assert (s.enqueued, s.dequeued, s.dropped, s.ecn_marked,
            s.max_depth_pkts, s.max_depth_bytes) == (1, 1, 1, 1, 1, 600)
    assert len(q) == 0 and q.bytes_queued == 0
    unmarked = Packet(1, 2, 600, ect=True)
    assert DropTailQueue(ecn_threshold_pkts=1).pass_through(unmarked)
    assert not unmarked.ce
