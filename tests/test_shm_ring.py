"""Tests for the shared-memory SPSC ring: single-process functional tests,
then its lifecycle across a fork."""

import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.channels.messages import RawMsg, SyncMsg
from repro.parallel.shm_ring import ShmRing


@pytest.fixture
def ring():
    r = ShmRing.create(size_bytes=4096)
    yield r
    r.close()


def test_fifo_order(ring):
    for i in range(10):
        assert ring.push(RawMsg(stamp=i, payload=i))
    for i in range(10):
        msg = ring.pop()
        assert msg.payload == i
    assert ring.pop() is None


def test_empty_flag(ring):
    assert ring.empty()
    ring.push(SyncMsg(stamp=5))
    assert not ring.empty()
    ring.pop()
    assert ring.empty()


def test_wraparound_many_messages(ring):
    """Push/pop far more bytes than capacity to exercise wrap markers."""
    payload = "x" * 200
    for i in range(500):
        assert ring.push(RawMsg(stamp=i, payload=(i, payload)))
        msg = ring.pop()
        assert msg.payload[0] == i


def test_full_ring_rejects_push(ring):
    big = "y" * 600
    pushed = 0
    while ring.push(RawMsg(payload=big)):
        pushed += 1
        assert pushed < 100  # must fill up eventually
    assert pushed >= 2
    # draining frees space
    ring.pop()
    assert ring.push(RawMsg(payload=big))


def test_interleaved_batches(ring):
    for batch in range(20):
        for i in range(7):
            ring.push(RawMsg(payload=(batch, i)))
        for i in range(7):
            assert ring.pop().payload == (batch, i)


@given(st.lists(st.binary(min_size=0, max_size=300), max_size=60))
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(blobs):
    ring = ShmRing.create(size_bytes=1 << 16)
    try:
        out = []
        for blob in blobs:
            assert ring.push(RawMsg(payload=blob))
        while True:
            msg = ring.pop()
            if msg is None:
                break
            out.append(msg.payload)
        assert out == blobs
    finally:
        ring.close()


# -- batched API -------------------------------------------------------------

def test_send_batch_recv_batch_fifo(ring):
    msgs = [RawMsg(stamp=i, payload=i) for i in range(25)]
    assert ring.send_batch(msgs) == 25
    got = ring.recv_batch()
    assert [m.payload for m, _ in got] == list(range(25))
    assert ring.recv_batch() == []


def test_promise_rides_last_frame(ring):
    msgs = [RawMsg(stamp=i) for i in range(5)]
    ring.send_batch(msgs, promise=999)
    promises = [p for _, p in ring.recv_batch()]
    assert promises == [0, 0, 0, 0, 999]


def test_push_carries_promise(ring):
    ring.push(SyncMsg(stamp=40), promise=40)
    ((msg, promise),) = ring.recv_batch()
    assert isinstance(msg, SyncMsg)
    assert msg.stamp == 40 and promise == 40


def test_recv_batch_max_msgs(ring):
    ring.send_batch([RawMsg(stamp=i) for i in range(10)])
    assert len(ring.recv_batch(max_msgs=3)) == 3
    assert len(ring.recv_batch()) == 7


def test_partial_batch_write_and_retry():
    with ShmRing.create(size_bytes=512) as ring:
        msgs = [RawMsg(stamp=i, payload=b"z" * 40) for i in range(40)]
        sent = ring.send_batch(msgs, promise=77)
        assert 0 < sent < len(msgs)
        got = ring.recv_batch()
        assert len(got) == sent
        # partial batch: the promise stays with the unsent tail
        assert all(p == 0 for _, p in got)
        # retry loop (what ChannelEnd.flush does): promise follows the tail
        done = sent
        got = []
        while done < len(msgs):
            n = ring.send_batch(msgs[done:], promise=77)
            assert n > 0  # consumer drained, so progress is guaranteed
            done += n
            got.extend(ring.recv_batch())
        assert [m.stamp for m, _ in got] == list(range(sent, len(msgs)))
        assert got[-1][1] == 77


def test_oversized_frame_raises(ring):
    with pytest.raises(ValueError):
        ring.push(RawMsg(payload=b"x" * 8192))


def test_batch_wraparound_roundtrip():
    with ShmRing.create(size_bytes=1024) as ring:
        sent_payloads, got_payloads = [], []
        for round_no in range(50):
            batch = [RawMsg(stamp=round_no * 8 + i, payload=(round_no, i))
                     for i in range(8)]
            n = ring.send_batch(batch)
            sent_payloads.extend(m.payload for m in batch[:n])
            got_payloads.extend(m.payload for m, _ in ring.recv_batch())
        assert got_payloads == sent_payloads
        assert len(got_payloads) >= 8 * 50 - 8


def test_transport_counters(ring):
    ring.send_batch([RawMsg(stamp=i) for i in range(6)])
    ring.push(RawMsg(stamp=6))
    ring.recv_batch()
    s = ring.stats()
    assert s["frames_out"] == 7
    assert s["batches_out"] == 2
    assert s["frames_in"] == 7
    assert s["batches_in"] == 1
    assert s["bytes_out"] == s["bytes_in"] > 0


# -- lifecycle ---------------------------------------------------------------

def _pop_within(ring, seconds):
    deadline = time.monotonic() + seconds
    while ring.empty():
        assert time.monotonic() < deadline, "nothing arrived"
        time.sleep(0.001)
    return ring.pop()


def test_ring_created_before_fork_is_shared_both_ways():
    down = ShmRing.create(size_bytes=4096)
    up = ShmRing.create(size_bytes=4096)
    pid = os.fork()
    if pid == 0:  # the child echoes what it reads, doubled
        code = 1
        try:
            up.push(RawMsg(payload=_pop_within(down, 10).payload * 2))
            code = 0
        finally:
            os._exit(code)
    down.push(RawMsg(payload="ping"))
    assert _pop_within(up, 10).payload == "pingping"
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    for ring in (down, up):
        ring.close()
        ring.close()  # idempotent


def _crashing_factory(name):
    raise RuntimeError("child construction failed")


def test_run_mp_never_creates_a_dev_shm_entry(monkeypatch):
    """The rings are anonymous mappings: a run, even one whose children
    crash, opens no named segment and leaves nothing in /dev/shm."""
    from repro.parallel.procrunner import (ProcChannel, ProcSpec,
                                           ProcessRunner)
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("no /dev/shm on this platform")
    posixshmem = pytest.importorskip("_posixshmem")

    def no_named_segment(*args, **kwargs):
        raise AssertionError("shm_open called")

    # the children inherit the patch through fork
    monkeypatch.setattr(posixshmem, "shm_open", no_named_segment)
    before = set(os.listdir("/dev/shm"))
    specs = [ProcSpec("a", _crashing_factory, ("a",)),
             ProcSpec("b", _crashing_factory, ("b",))]
    runner = ProcessRunner(specs, [ProcChannel("a", "a.e", "b", "b.e")])
    with pytest.raises(RuntimeError, match="component failures") as err:
        runner.run(until_ps=1000, timeout_s=30)
    assert "child construction failed" in str(err.value)
    assert set(os.listdir("/dev/shm")) <= before
