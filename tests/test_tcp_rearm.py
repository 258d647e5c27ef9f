"""TCP's retransmission timer is re-armed in place, and ``_on_data`` has an
in-order case: both must be pure cost changes.

Count-based (no wall clock): the re-armed RTO keeps the event heap at the
size of the live system, and the outcome of a run — event total and every
delivery sample — equals a run with the old ``cancel`` + ``timer`` arm
patched back in.  ``_on_data`` is compared with its old body, kept here as
the reference, over generated arrival orders.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.kernel.component import Component
from repro.kernel.simtime import MS, US
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.packet import Packet
from repro.netsim.topology import dumbbell
from repro.netsim.transport import costs
from repro.netsim.transport.tcp import MSS, TcpConnection
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.system import System


# -- the RTO timer ------------------------------------------------------------

def _old_arm_rto(self):
    """``_arm_rto`` as it was before ``postpone`` (reference)."""
    self._cancel_rto()
    self._rto_timer = self.env.timer(self.rto, self._on_rto)


def run_dctcp_dumbbell(until, detailed=()):
    """The fig6 shape: 2 long DCTCP flows over an ECN-marking bottleneck;
    the pairs listed in ``detailed`` run on qemu hosts (mixed fidelity)."""
    system = System.from_topospec(
        dumbbell(pairs=2, ecn_threshold_pkts=15), seed=1)
    for i in range(2):
        if i in detailed:
            system.set_simulator(f"snd{i}", "qemu")
            system.set_simulator(f"rcv{i}", "qemu")
        system.app(f"rcv{i}", lambda h: BulkSink(variant="dctcp"))
        system.app(f"snd{i}", lambda h, a=system.addr_of(f"rcv{i}"),
                   d=i * 350 * US: BulkSender(
                       a, total_bytes=64 * 1024 * 1024, variant="dctcp",
                       start_delay_ps=d))
    exp = Instantiation(system).build()
    stats = exp.run(until).stats
    deliveries = {f"rcv{i}": (exp.app(f"rcv{i}").delivered,
                              exp.app(f"rcv{i}").samples) for i in range(2)}
    return stats, deliveries


def test_rearmed_rto_leaves_no_tombstones(monkeypatch):
    stats, deliveries = run_dctcp_dumbbell(4 * MS)
    assert stats.peak_heap < 128
    assert stats.event_allocations < 128
    assert stats.cancelled_ratio < 0.001
    assert stats.postponed > 1_000
    assert all(d > 0 for d, _ in deliveries.values())

    monkeypatch.setattr(TcpConnection, "_arm_rto", _old_arm_rto)
    old_stats, old_deliveries = run_dctcp_dumbbell(4 * MS)
    assert old_stats.peak_heap > 1_000 and old_stats.postponed == 0
    assert stats.events == old_stats.events
    assert deliveries == old_deliveries


def test_rearmed_rto_same_outcome_on_detailed_hosts(monkeypatch):
    """Mixed fidelity: pair 0's stacks re-arm through ``SimOS.postpone``,
    which must reach the shared queue fast mode swapped in after build."""
    stats, deliveries = run_dctcp_dumbbell(1 * MS, detailed=(0,))
    assert stats.postponed > 100
    assert all(d > 0 for d, _ in deliveries.values())

    monkeypatch.setattr(TcpConnection, "_arm_rto", _old_arm_rto)
    old_stats, old_deliveries = run_dctcp_dumbbell(1 * MS, detailed=(0,))
    assert old_stats.postponed == 0
    assert stats.per_component_events == old_stats.per_component_events
    assert deliveries == old_deliveries


class _Env(Component):
    """Bare stack environment: a component's clock and timers; transmitted
    packets are collected instead of sent."""

    def __init__(self):
        super().__init__("env")
        self.sent = []

    def tx(self, pkt):
        self.sent.append(pkt)

    def charge(self, instructions):
        pass


def _connection(env, **kwargs):
    stack = SimpleNamespace(env=env, addr=1, fluid_ctl=None,
                            models_cost=True)
    conn = TcpConnection(stack, local_port=5001, peer=2, peer_port=5002,
                         **kwargs)
    conn.state = "established"
    return conn


def test_rto_that_shrank_fires_at_the_earlier_deadline():
    env = _Env()
    fired = []
    env.queue.trace = lambda owner, ts: fired.append(ts)
    conn = _connection(env)
    conn._arm_rto()  # INIT_RTO: deadline 10 ms
    env.now = 2 * MS
    conn.rto = 1 * MS  # an RTT sample collapsed the RTO
    conn._arm_rto()  # deadline 3 ms: earlier, so not a postpone
    assert env.queue.postponed_total == 0 and len(env.queue) == 1
    env.now = 2 * MS + 1
    conn._arm_rto()  # later again: moved in place
    assert env.queue.postponed_total == 1 and len(env.queue) == 1
    env.queue.run_until(20 * MS)
    assert fired == [3 * MS + 1]
    assert conn.timeouts == 1 and conn._rto_timer is None


# -- the receive path ---------------------------------------------------------

def _old_on_data(self, pkt, length):
    """``TcpConnection._on_data`` before the in-order case (reference)."""
    if self.state == "syn_rcvd":
        self.state = "established"
        self._cancel_rto()
        self._try_send()
    self.env.charge(costs.TCP_RX_INSTR
                    + int(costs.COPY_INSTR_PER_BYTE * length))
    self._last_pkt_ce = pkt.ce
    seq = pkt.seq
    if seq + length > self.rcv_nxt:
        self._ooo[seq] = max(self._ooo.get(seq, 0), length)
        advanced = False
        while True:
            hit = None
            for s, ln in self._ooo.items():
                if s <= self.rcv_nxt < s + ln or s == self.rcv_nxt:
                    hit = (s, ln)
                    break
            if hit is None:
                break
            s, ln = hit
            del self._ooo[s]
            new_edge = max(self.rcv_nxt, s + ln)
            self.delivered_bytes += new_edge - self.rcv_nxt
            self.rcv_nxt = new_edge
            advanced = True
        if advanced and self.on_delivered is not None:
            self.on_delivered(self.delivered_bytes)
    ece = self._last_pkt_ce if self.variant == "dctcp" else False
    self._emit("A", ack=self.rcv_nxt, ece=ece)
    self._maybe_finish()


@st.composite
def arrivals(draw):
    """A byte stream cut into segments, delivered in a generated order:
    in order, locally reordered, with duplicates and with retransmits that
    overlap a segment boundary."""
    lengths = draw(st.lists(st.sampled_from([1, 100, MSS]),
                            min_size=1, max_size=24))
    segs, seq = [], 0
    for ln in lengths:
        segs.append((seq, ln))
        seq += ln
    order = list(segs)
    for i in draw(st.lists(st.integers(0, len(segs) - 1), max_size=8)):
        j = draw(st.integers(0, len(segs) - 1))
        order[i], order[j] = order[j], order[i]  # reorder
    for i in draw(st.lists(st.integers(0, len(segs) - 1), max_size=6)):
        s, ln = segs[i]
        back = draw(st.integers(0, min(s, 50)))
        order.insert(draw(st.integers(0, len(order))),
                     (s - back, ln + back + draw(st.integers(0, 50))))
    return order, draw(st.sampled_from(["newreno", "dctcp"]))


@given(arrivals())
@settings(max_examples=200, deadline=None)
def test_on_data_matches_the_old_body(case):
    order, variant = case

    def receive(on_data):
        env = _Env()
        conn = _connection(env, variant=variant, is_client=False)
        delivered = []
        conn.on_delivered = delivered.append
        for n, (seq, length) in enumerate(order):
            pkt = Packet(src=2, dst=1, size_bytes=length + 60, proto="tcp",
                         seq=seq, flags="A", data_len=length, ce=n % 3 == 0)
            on_data(conn, pkt, length)
        acks = [(p.ack, p.ece) for p in env.sent]
        return conn.rcv_nxt, conn.delivered_bytes, delivered, acks, conn._ooo

    assert receive(TcpConnection._on_data) == receive(_old_on_data)
