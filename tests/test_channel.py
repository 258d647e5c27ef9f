"""Tests for SplitSim channels and the conservative sync protocol.

The protocol runs in ``Component.advance`` only, so these tests drive it
there: :func:`publish` records a promise the way a sender's step does, and
:func:`receive` is one receiving step.  Other test modules use both.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.channels.channel import ChannelEnd, connect
from repro.channels.messages import RawMsg
from repro.kernel.component import Component
from repro.kernel.simtime import NS, TIME_INFINITY, US


def make_pair(latency=1 * US):
    a = ChannelEnd("a", latency=latency)
    b = ChannelEnd("b", latency=latency)
    connect(a, b)
    return a, b


def owner_of(end):
    """``end``'s component; for an end without one, a bare component that
    collects the end's deliveries in ``got``."""
    if end.owner is None:
        comp = Component(f"{end.name}.owner")
        comp.got = []
        comp.attach_end(end, comp.got.append)
    return end.owner


def publish(end, commit):
    """Record the promise ``commit + latency`` on ``end`` as its owner's
    step does.  The end's inbox promises everything first, so the step
    commits to ``commit`` whatever the peer has published."""
    end.inbox.promise = TIME_INFINITY
    owner_of(end).advance(commit)


def receive(end):
    """One receiving step of ``end``'s owner: the ring drain the runner
    does before a step (ring ends only), then ``advance(0)``, which reads
    the inbox and posts the deliveries.  They run at once; returns the
    messages delivered, in order."""
    comp = owner_of(end)
    if end.out_batch is not None:
        end.receive()
    comp.advance(0)
    comp.queue.run_until(TIME_INFINITY)
    got = list(comp.got)
    comp.got.clear()
    return got


def horizon(end):
    """The input horizon ``end``'s owner recorded at its last step."""
    return end.owner.input_horizon()


def test_latency_must_be_positive():
    with pytest.raises(ValueError):
        ChannelEnd("bad", latency=0)


def test_send_stamps_delivery_time():
    a, b = make_pair(latency=3 * NS)
    a.send(RawMsg(payload="x"), now=10 * NS)
    msgs = receive(b)
    assert len(msgs) == 1
    assert msgs[0].stamp == 13 * NS
    assert horizon(b) == 13 * NS


def test_stamps_monotonic_enforced():
    a, b = make_pair()
    a.send(RawMsg(), now=100)
    with pytest.raises(AssertionError):
        # channel-end API requires non-decreasing send times
        a.send(RawMsg(), now=-(2 * US))


def test_sync_raises_peer_horizon():
    a, b = make_pair(latency=5 * NS)
    publish(a, 0)
    receive(b)
    assert horizon(b) == 5 * NS
    publish(a, 20 * NS)
    receive(b)
    assert horizon(b) == 25 * NS


def test_sync_not_resent_for_same_commit():
    a, b = make_pair()
    publish(a, 100)
    publish(a, 100)
    assert a.tx_syncs == 1


def test_data_message_also_advances_horizon():
    a, b = make_pair(latency=1 * NS)
    a.send(RawMsg(), now=50)
    receive(b)
    assert horizon(b) == 50 + 1 * NS
    # a sync for an older commit is suppressed (stamp not newer)
    publish(a, 40)
    assert a.tx_syncs == 0


def test_poll_filters_syncs_and_counts():
    a, b = make_pair()
    a.send(RawMsg(payload=1), now=0)
    publish(a, 10 * NS)
    a.send(RawMsg(payload=2), now=20 * NS)
    data = receive(b)
    assert [m.payload for m in data] == [1, 2]
    assert b.rx_msgs == 2
    assert b.rx_syncs == 1
    assert a.tx_msgs == 2
    assert a.tx_syncs == 1


def test_unsynchronized_end_has_infinite_horizon():
    a, b = make_pair()
    b.synchronized = False
    receive(b)
    assert horizon(b) == TIME_INFINITY
    publish(b, 100)  # no promise when unsynchronized
    assert b.tx_syncs == 0


def test_counters_snapshot_keys():
    a, _ = make_pair()
    snap = a.counters()
    for key in ("tx_msgs", "rx_msgs", "tx_syncs", "rx_syncs",
                "wait_polls", "wait_cycles", "tx_bytes"):
        assert key in snap


def test_note_wait_accumulates():
    a, _ = make_pair()
    a.note_wait(10)
    a.note_wait(15)
    assert a.wait_polls == 2
    assert a.wait_cycles == 25


@given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=100),
       st.integers(min_value=1, max_value=10**4))
@settings(max_examples=50)
def test_delivery_stamps_sorted_and_complete(send_gaps, latency):
    """Any non-decreasing send schedule yields sorted, complete delivery."""
    a, b = make_pair(latency=latency)
    now = 0
    sent = []
    for i, gap in enumerate(send_gaps):
        now += gap
        a.send(RawMsg(payload=i), now=now)
        sent.append(now + latency)
    got = receive(b)
    assert [m.payload for m in got] == list(range(len(send_gaps)))
    assert [m.stamp for m in got] == sent
    assert sorted(sent) == sent
