"""Tests for packets and egress queue disciplines."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.netsim.packet import (HEADER_BYTES, MIN_FRAME_BYTES, PROTO_TCP,
                                 PROTO_UDP, _PROTO_KEY, Packet)
from repro.netsim.queues import DropTailQueue


def mk(size=200, ect=False, src=1, dst=2):
    return Packet(src=src, dst=dst, size_bytes=size, ect=ect)


def test_packet_minimum_frame_size():
    p = Packet(src=1, dst=2, size_bytes=10)
    assert p.size_bytes == MIN_FRAME_BYTES
    assert p.size_bits == MIN_FRAME_BYTES * 8


def test_packet_uids_unique():
    assert mk().uid != mk().uid


def test_flow_key_and_reply():
    p = Packet(src=1, dst=2, size_bytes=100, src_port=10, dst_port=20)
    r = p.clone_for_reply(64, payload="pong")
    assert r.src == 2 and r.dst == 1
    assert r.src_port == 20 and r.dst_port == 10
    assert p.flow_key() != r.flow_key()


def test_flow_key_protocol_ints_are_the_seed_zero_hashes():
    """``flow_key`` holds each protocol as a fixed int, which hashes to
    itself under every hash seed: the hash its string had under
    ``PYTHONHASHSEED=0`` with SipHash-1-3 (CPython 3.11+), so ECMP keeps the
    choices recorded there.  Older interpreters hash strings with another
    algorithm; only the fixed-int half is checked on them."""
    assert all(hash(v) == v for v in _PROTO_KEY.values())
    if sys.hash_info.algorithm != "siphash13":
        pytest.skip(f"strings hash with {sys.hash_info.algorithm}, "
                    "not the siphash13 the constants were taken from")
    proc = subprocess.run(
        [sys.executable, "-c", f"print(hash({PROTO_TCP!r}), "
                               f"hash({PROTO_UDP!r}))"],
        env=dict(os.environ, PYTHONHASHSEED="0"), capture_output=True,
        text=True, timeout=60)
    assert proc.stdout.split() == [str(_PROTO_KEY[PROTO_TCP]),
                                   str(_PROTO_KEY[PROTO_UDP])]


def test_queue_fifo():
    q = DropTailQueue()
    pkts = [mk() for _ in range(5)]
    for p in pkts:
        assert q.enqueue(p)
    out = [q.dequeue() for _ in range(5)]
    assert out == pkts
    assert q.dequeue() is None


def test_queue_drop_when_full():
    q = DropTailQueue(capacity_bytes=500)
    assert q.enqueue(mk(300))
    assert q.enqueue(mk(200))
    assert not q.enqueue(mk(64))
    assert q.stats.dropped == 1
    assert q.stats.enqueued == 2


def test_queue_rejects_bad_capacity():
    with pytest.raises(ValueError):
        DropTailQueue(capacity_bytes=0)


def test_ecn_marks_at_threshold():
    q = DropTailQueue(capacity_bytes=1 << 20, ecn_threshold_pkts=3)
    for i in range(3):
        q.enqueue(mk(ect=True))
    assert all(not p.ce for p in [q.peek()])
    marked = mk(ect=True)
    q.enqueue(marked)
    assert marked.ce
    assert q.stats.ecn_marked == 1


def test_ecn_ignores_non_ect_packets():
    q = DropTailQueue(capacity_bytes=1 << 20, ecn_threshold_pkts=0)
    p = mk(ect=False)
    q.enqueue(p)
    assert not p.ce
    assert q.stats.ecn_marked == 0


def test_ecn_disabled_by_default():
    q = DropTailQueue()
    for _ in range(100):
        q.enqueue(mk(ect=True))
    assert q.stats.ecn_marked == 0


def test_depth_stats_track_maximum():
    q = DropTailQueue()
    for _ in range(4):
        q.enqueue(mk(100))
    q.dequeue()
    assert q.stats.max_depth_pkts == 4
    assert q.stats.max_depth_bytes == 400


@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=64, max_value=1500)),
                max_size=200))
def test_byte_accounting_invariant(ops):
    """bytes_queued always equals the sum of queued packet sizes."""
    q = DropTailQueue(capacity_bytes=10_000)
    shadow = []
    for is_enqueue, size in ops:
        if is_enqueue:
            p = mk(size)
            if q.enqueue(p):
                shadow.append(p)
        else:
            got = q.dequeue()
            if shadow:
                assert got is shadow.pop(0)
            else:
                assert got is None
        assert q.bytes_queued == sum(p.size_bytes for p in shadow)
        assert len(q) == len(shadow)
