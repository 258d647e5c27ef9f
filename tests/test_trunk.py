"""Tests for trunk channels (multiplexed sub-links)."""

import pytest

from repro.channels.channel import connect
from repro.channels.messages import EthMsg, RawMsg
from repro.channels.trunk import TrunkEnd
from repro.kernel.simtime import NS
from repro.netsim.packet import Packet

from .test_channel import horizon, publish, receive


def make_trunks():
    a = TrunkEnd("ta", latency=10 * NS)
    b = TrunkEnd("tb", latency=10 * NS)
    connect(a, b)
    return a, b


def test_mux_demux_roundtrip():
    a, b = make_trunks()
    got = {0: [], 1: []}
    b.port(0).on_receive(lambda m: got[0].append(m.payload))
    b.port(1).on_receive(lambda m: got[1].append(m.payload))
    pa0, pa1 = a.port(0), a.port(1)

    pa0.send(RawMsg(payload="x"), now=0)
    pa1.send(RawMsg(payload="y"), now=5)
    pa0.send(RawMsg(payload="z"), now=7)
    for msg in receive(b):
        b.dispatch(msg)
    assert got == {0: ["x", "z"], 1: ["y"]}


def test_inner_stamp_follows_trunk_stamp():
    a, b = make_trunks()
    seen = []
    b.port(3).on_receive(lambda m: seen.append(m.stamp))
    a.port(3).send(RawMsg(), now=100 * NS)
    for msg in receive(b):
        b.dispatch(msg)
    assert seen == [110 * NS]


def test_single_sync_covers_all_ports():
    """The whole point of trunking: one sync stream for N logical links."""
    a, b = make_trunks()
    for i in range(8):
        a.port(i)
    publish(a, 50 * NS)
    assert a.tx_syncs == 1
    receive(b)
    assert horizon(b) == 60 * NS


def test_unknown_subchannel_raises():
    a, b = make_trunks()
    a.port(0).send(RawMsg(), now=0)
    with pytest.raises(RuntimeError):
        for msg in receive(b):
            b.dispatch(msg)


def test_missing_handler_raises():
    a, b = make_trunks()
    b.port(0)  # allocated but no handler
    a.port(0).send(RawMsg(), now=0)
    with pytest.raises(RuntimeError):
        for msg in receive(b):
            b.dispatch(msg)


def test_port_reuse_and_counts():
    a, b = make_trunks()
    assert a.port(2) is a.port(2)
    b.port(2).on_receive(lambda m: None)
    a.port(2).send(RawMsg(), now=0)
    a.port(2).send(RawMsg(), now=1)
    for msg in receive(b):
        b.dispatch(msg)
    assert a.port(2).tx_msgs == 2
    assert b.port(2).rx_msgs == 2
    assert a.num_ports == 1 or a.num_ports >= 1  # port(2) only on this side


def test_trunk_end_tx_bytes_count_the_tag():
    # the message crosses as itself; the trunk end charges its 16-byte tag
    a, _ = make_trunks()
    msg = EthMsg(packet=Packet(src=1, dst=2, size_bytes=512))
    a.port(1).send(msg, now=0)
    assert msg.sub == 1
    assert a.tx_bytes == msg.wire_size() + 16


# -- trunk multiplexing over the real shm transport --------------------------

from repro.channels import wire
from repro.parallel.shm_ring import ShmRing


@pytest.fixture
def shm_trunks():
    a = TrunkEnd("ta", latency=10 * NS)
    b = TrunkEnd("tb", latency=10 * NS)
    with ShmRing.create(1 << 16) as ring_ab, \
            ShmRing.create(1 << 16) as ring_ba:
        a.wire(out_q=ring_ab, in_q=ring_ba, peer_name=b.name)
        b.wire(out_q=ring_ba, in_q=ring_ab, peer_name=a.name)
        yield a, b


def test_shm_mux_demux_roundtrip(shm_trunks):
    a, b = shm_trunks
    wire.reset_stats()
    got = {0: [], 1: []}
    b.port(0).on_receive(lambda m: got[0].append(m.payload))
    b.port(1).on_receive(lambda m: got[1].append(m.payload))
    a.port(0).send(RawMsg(payload=b"x"), now=0)
    a.port(1).send(RawMsg(payload=b"y"), now=5)
    a.port(0).send(RawMsg(payload=b"z"), now=7)
    a.flush()
    for msg in receive(b):
        b.dispatch(msg)
    assert got == {0: [b"x", b"z"], 1: [b"y"]}
    # trunk frames (and their nested RawMsg) stayed on the struct fast path
    assert wire.stats()["msg_pickle_fallbacks"] == 0


def test_shm_inner_stamp_follows_trunk_stamp(shm_trunks):
    a, b = shm_trunks
    seen = []
    b.port(3).on_receive(lambda m: seen.append(m.stamp))
    a.port(3).send(RawMsg(), now=100 * NS)
    a.flush()
    for msg in receive(b):
        b.dispatch(msg)
    assert seen == [110 * NS]


def test_shm_promise_piggybacks_on_data(shm_trunks):
    """With data pending, the sync promise rides the frames: no SyncMsg."""
    a, b = shm_trunks
    b.port(0).on_receive(lambda m: None)
    a.port(0).send(RawMsg(), now=0)
    publish(a, 50 * NS)
    a.flush()
    assert a.tx_syncs == 0  # coalesced away entirely
    for msg in receive(b):
        b.dispatch(msg)
    assert horizon(b) == 60 * NS
    assert b.rx_syncs == 0


def test_shm_idle_sync_forced_on_block(shm_trunks):
    """An idle sender's deferred promise is force-published when blocking."""
    a, b = shm_trunks
    publish(a, 0)  # first promise: always past the threshold
    a.flush()
    assert a.tx_syncs == 1
    receive(b)
    assert horizon(b) == 10 * NS
    publish(a, 2 * NS)  # small increment: deferred
    a.flush(blocked=False)
    receive(b)
    assert a.tx_syncs == 1 and horizon(b) == 10 * NS  # nothing published
    a.flush(blocked=True)  # about to block: promise must go out
    assert a.tx_syncs == 2
    receive(b)
    assert horizon(b) == 12 * NS


def test_shm_single_sync_covers_all_ports(shm_trunks):
    a, b = shm_trunks
    for i in range(8):
        a.port(i)
    publish(a, 50 * NS)
    a.flush(blocked=True)
    assert a.tx_syncs == 1
    receive(b)
    assert horizon(b) == 60 * NS
