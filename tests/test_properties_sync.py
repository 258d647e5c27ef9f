"""Property-based tests of the synchronization protocol.

The central correctness property of conservative synchronization: executing
with the strict per-channel sync protocol produces the exact same event
timeline as the oracle (fast-mode) execution — blocking only ever delays
*host* time, never changes simulated behaviour.

Scope of the guarantee: timestamps, per-channel FIFO order, and (via the
global send-order tie-break in ``ChannelEnd.send`` / ``poll_inputs``)
per-*sender* order are exact, even across a receiver's multiple input
channels.  Deliveries with identical stamps from *different* senders are
concurrent in the PDES sense — no causal order exists, and the fast oracle
breaks the tie by its global event sequence, which the sync protocol cannot
observe.  The equality property therefore quantifies over workloads without
such cross-sender timestamp collisions (``assume`` below discards the rest).
"""

from contextlib import contextmanager
from itertools import groupby

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.channels.channel import ChannelEnd, connect
from repro.channels.messages import RawMsg
from repro.kernel.component import Component
from repro.kernel.rng import make_rng
from repro.kernel.simtime import NS, US
from repro.parallel.shm_ring import ShmRing
from repro.parallel.simulation import Simulation


class RandomTalker(Component):
    """Sends messages to random peers at scripted times, logs receptions."""

    def __init__(self, name, script, reply_prob, seed):
        super().__init__(name)
        self.script = script  # list of (delay_ps, peer_index)
        self.reply_prob = reply_prob
        self.rng = make_rng(seed, name)
        self.peers = []  # ends, filled by builder
        self.log = []

    def start(self):
        t = 0
        for delay, peer in self.script:
            t += delay
            self.schedule(t, self._send, peer, t)

    def _send(self, peer, tag):
        end = self.peers[peer % len(self.peers)]
        end.send(RawMsg(payload=(self.name, tag)), self.now)

    def on_msg(self, msg):
        self.log.append((self.now, msg.payload))
        if self.rng.random() < self.reply_prob and len(self.log) < 500:
            peer = self.rng.randrange(len(self.peers))
            self.call_after(50 * NS, self._send, peer, len(self.log))


def build_and_run(mode, n_comps, scripts, latencies, reply_prob):
    sim = Simulation(mode=mode)
    comps = []
    for i in range(n_comps):
        comp = RandomTalker(f"c{i}", scripts[i], reply_prob, seed=7)
        sim.add(comp)
        comps.append(comp)
    # fully connect in a ring plus chords for interesting topologies
    pairs = [(i, (i + 1) % n_comps) for i in range(n_comps)]
    if n_comps > 3:
        pairs.append((0, n_comps // 2))
    for idx, (a, b) in enumerate(pairs):
        lat = latencies[idx % len(latencies)]
        ea = ChannelEnd(f"c{a}->c{b}", latency=lat)
        eb = ChannelEnd(f"c{b}->c{a}", latency=lat)
        comps[a].attach_end(ea, comps[a].on_msg)
        comps[b].attach_end(eb, comps[b].on_msg)
        comps[a].peers.append(ea)
        comps[b].peers.append(eb)
        sim.connect(ea, eb)
    sim.run(200 * US)
    return [c.log for c in comps]


@st.composite
def workload(draw):
    n_comps = draw(st.integers(min_value=2, max_value=5))
    scripts = []
    for _ in range(n_comps):
        n_sends = draw(st.integers(min_value=0, max_value=8))
        script = [
            (draw(st.integers(min_value=0, max_value=20_000)) * NS,
             draw(st.integers(min_value=0, max_value=3)))
            for _ in range(n_sends)
        ]
        scripts.append(script)
    n_lats = draw(st.integers(min_value=1, max_value=3))
    latencies = [draw(st.integers(min_value=100, max_value=5_000)) * NS
                 for _ in range(n_lats)]
    reply_prob = draw(st.sampled_from([0.0, 0.3, 0.8]))
    return n_comps, scripts, latencies, reply_prob


def _has_concurrent_cross_sender_deliveries(logs):
    """True if any receiver saw equal-timestamp messages from two senders.

    Such deliveries are concurrent — the protocol defines no order between
    them (see module docstring) — so the exact-equality property does not
    apply to workloads containing them.
    """
    for log in logs:
        for _ts, run in groupby(log, key=lambda entry: entry[0]):
            senders = {payload[0] for _, payload in run}
            if len(senders) > 1:
                return True
    return False


@given(workload())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_strict_sync_equals_oracle_for_any_workload(wl):
    n_comps, scripts, latencies, reply_prob = wl
    fast = build_and_run("fast", n_comps, scripts, latencies, reply_prob)
    assume(not _has_concurrent_cross_sender_deliveries(fast))
    strict = build_and_run("strict", n_comps, scripts, latencies, reply_prob)
    assert fast == strict


def test_same_stamp_cross_channel_deliveries_match_send_order():
    """Regression: equal-stamp messages on *different* channels of one
    receiver must dispatch in send order, not channel attach order.

    With two components the builder wires two channel pairs, so each talker
    owns two peer ends.  c0's burst makes c1 emit two replies in the same
    event round at the same time over different ends; both arrive at c0 with
    identical stamps.  Strict mode used to dispatch them in ``ends`` order
    (whichever channel was attached first), diverging from the fast oracle.
    """
    wl = (2, [[(0, 0), (0, 0), (0, 0), (0, 0)], []], [100_000], 0.3)
    n_comps, scripts, latencies, reply_prob = wl
    fast = build_and_run("fast", n_comps, scripts, latencies, reply_prob)
    strict = build_and_run("strict", n_comps, scripts, latencies, reply_prob)
    assert fast == strict


@given(workload())
@settings(max_examples=10, deadline=None)
def test_strict_sync_stamps_monotonic(wl):
    """After any strict run, every end's counters are consistent."""
    n_comps, scripts, latencies, reply_prob = wl
    sim = Simulation(mode="strict")
    comps = []
    for i in range(n_comps):
        comp = RandomTalker(f"c{i}", scripts[i], reply_prob, seed=7)
        sim.add(comp)
        comps.append(comp)
    ends = []
    for i in range(n_comps):
        a, b = i, (i + 1) % n_comps
        ea = ChannelEnd(f"e{a}-{b}", latency=latencies[0])
        eb = ChannelEnd(f"e{b}-{a}", latency=latencies[0])
        comps[a].attach_end(ea, comps[a].on_msg)
        comps[b].attach_end(eb, comps[b].on_msg)
        comps[a].peers.append(ea)
        comps[b].peers.append(eb)
        sim.connect(ea, eb)
        ends.extend((ea, eb))
    sim.run(100 * US)
    for end in ends:
        # everything sent was received by the peer (sync + data)
        assert end.tx_msgs >= 0
        assert end._out_last_stamp >= 0  # at least one sync went out
    # Messages whose delivery stamp is >= the end horizon are legitimately
    # still in flight when the run stops (events strictly before the
    # horizon execute; the rest stay queued).  Drain them so the assertion
    # is the real conservation law: nothing sent is ever *lost*.
    until = 100 * US
    for end in ends:
        for msg in end.poll():
            assert msg.stamp >= until, \
                f"{end.name}: undelivered message inside the horizon"
    total_tx = sum(e.tx_msgs for e in ends)
    total_rx = sum(e.rx_msgs for e in ends)
    assert total_tx == total_rx


# -- the contract every transport shares ---------------------------------------

@contextmanager
def wired_pair(transport, latency):
    """A ``ChannelEnd`` pair over the in-process queue or real shm rings."""
    a = ChannelEnd("a", latency=latency)
    b = ChannelEnd("b", latency=latency)
    if transport == "fifo":
        connect(a, b)
        yield a, b
        return
    with ShmRing.create(1 << 16) as ab, ShmRing.create(1 << 16) as ba:
        a.wire(out_q=ab, in_q=ba, peer_name="b")
        b.wire(out_q=ba, in_q=ab, peer_name="a")
        yield a, b


@pytest.mark.parametrize("transport", ["fifo", "shm-batched"])
@given(ops=st.lists(st.tuples(st.sampled_from(["send", "sync", "poll"]),
                              st.integers(min_value=0, max_value=3_000)),
                    max_size=60),
       latency=st.integers(min_value=1, max_value=2_000))
@settings(max_examples=40, deadline=None)
def test_any_interleaving_of_send_sync_poll_keeps_the_contract(
        transport, ops, latency):
    """Whatever the transport does with a promise (queue field, frame
    header, marker frame, deferral), after a final poll the receiver has
    every data message in send order, a horizon equal to the largest stamp
    the sender produced, and as many syncs counted as the sender emitted."""
    with wired_pair(transport, latency) as (a, b):
        now = 0
        sent, got, top = [], [], 0
        for op, gap in ops:
            now += gap
            if op == "send":
                a.send(RawMsg(payload=len(sent)), now=now)
                sent.append(now + latency)
                top = now + latency
            elif op == "sync":
                a.maybe_sync(commit=now)
                top = max(top, now + latency)
            else:
                a.flush()
                before = b.horizon()
                got.extend(b.poll())
                assert before <= b.horizon() <= top
        a.flush(blocked=True)  # batched transports may defer idle promises
        got.extend(b.poll())
        assert b.horizon() == top
        assert b.rx_syncs == a.tx_syncs
        assert [m.payload for m in got] == list(range(len(sent)))
        assert [m.stamp for m in got] == sent
        assert (a.tx_msgs, b.rx_msgs) == (len(sent), len(sent))
