"""The mp child's step loop in one process: ``procrunner.Stepper``.

Rings are anonymous mappings, so steppers over the same rings run side
by side in this process, in whatever order a test scripts.  That makes
the protocol loop testable without fork: a generated interleaving of the
token pipeline must keep the strict run's event timeline, and each way a
child can end waiting (abort word, deadline, a ring its peer never
drains) is reached by construction, not by timing luck.
"""

import queue
import sys
import time
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.mp import (AUDIT_WINDOW_PS, inproc_audit_ledger,
                            pipeline_specs)
from repro.channels.channel import ChannelEnd
from repro.kernel.component import Component
from repro.kernel.simtime import MS, US
from repro.obs.audit import AuditCollector
from repro.obs.live import ChildMailbox
from repro.parallel import procrunner
from repro.parallel.procrunner import (ProcChannel, Stepper, _ring_pairs,
                                      _wire)
from repro.parallel.shm_ring import ShmRing

from .test_channel import publish
from .test_determinism_guard import assert_same_timeline
from .test_procrunner import Flooder, Pinger

DURATION = 50 * US
STAGES = 4
#: holds two pipeline data frames (53 bytes each): a stage that sends
#: more in one round leaves a tail for a later flush
SMALL_RING = 128
#: round-robin rounds that finish any order (~190 do over the small ring)
ROUNDS = 2_000


@pytest.fixture(scope="module")
def strict_ledger():
    return inproc_audit_ledger(STAGES, DURATION)


def run_scripted(order, ring_bytes):
    """Step the token pipeline's stages in ``order`` (stage indices; a
    finished stage is skipped), then round-robin until every stage is
    done.  No stepper ever waits: a blocked stage is simply stepped again
    later.  Returns the audit ledger and how many steps ended with frames
    left in a full ring."""
    specs, channels = pipeline_specs(STAGES)
    names = [s.name for s in specs]
    collector = AuditCollector(window_ps=AUDIT_WINDOW_PS)
    collector.begin(names, DURATION, "mp")
    rings = []
    try:
        wiring = _ring_pairs(channels, names, ring_bytes, rings)
        steppers = []
        for spec in specs:
            comp = spec.make()
            _wire(comp, wiring[spec.name])
            steppers.append(Stepper(comp, DURATION,
                                    probes=(collector.probe,)))
        done = [False] * STAGES
        tails = 0

        def step(i):
            nonlocal tails
            if not done[i]:
                done[i] = steppers[i].step() == "done"
                tails += any(e.out_batch for e in steppers[i].comp.ends)

        for i in order:
            step(i)
        for _ in range(ROUNDS):
            if all(done):
                break
            for i in range(STAGES):
                step(i)
        commits = [stepper.commit for stepper in steppers]
        assert all(done), f"the pipeline stalls at commits {commits}"
        for stepper in steppers:
            collector.note_result(stepper.comp.name,
                                  stepper.finish().get("audit"))
    finally:
        for ring in rings:
            ring.close()
    return collector.to_ledger(), tails


# a stage is often stepped several times in a row, blocked or not
runs = st.lists(st.tuples(st.integers(0, STAGES - 1), st.integers(1, 6)),
                max_size=80).map(
    lambda runs: [i for i, times in runs for _ in range(times)])


@given(order=runs, ring_bytes=st.sampled_from([SMALL_RING, 1 << 16]))
@example(order=[0] * 40 + [3, 2, 1] * 5, ring_bytes=SMALL_RING)
@settings(max_examples=50, deadline=None)
def test_any_scripted_interleaving_keeps_the_strict_timeline(
        strict_ledger, order, ring_bytes):
    """Steppers over shared rings, stepped in a generated order with
    repeated steps of blocked stages and (over a small ring) flushes that
    leave a tail for a later step, execute the strict run's events."""
    ledger, _ = run_scripted(order, ring_bytes)
    assert_same_timeline(strict_ledger, ledger)


def test_a_small_ring_makes_a_flush_late(strict_ledger):
    """Stage 0 injects four tokens in its first round past its start: a
    two-frame ring keeps the rest in ``out_batch``, and they go out at
    later steps."""
    ledger, tails = run_scripted([], SMALL_RING)
    assert tails >= 1
    assert_same_timeline(strict_ledger, ledger)


#: What one idle step of a one-end component over a ring costs, in the
#: steady state where every step drains the peer's marker frame and sends
#: its own, as ``sys.setprofile`` sees it: its Python frames by name, and
#: every call (frames and C functions).  The protocol is the component's
#: step (``advance``) alone; the ring adds its drain (``receive``) and
#: ``flush``.  Lower the pin when a change takes a frame out; never raise
#: it for a frame.
IDLE_STEP_FRAMES = {
    "step": 1, "receive": 1, "recv_batch": 1, "_read_u64": 2, "decode": 1,
    "dec": 1, "__init__": 1, "_write_u64": 2, "advance": 1, "flush": 1,
    "send_batch": 1, "encode": 1, "enc": 1, "beat": 1,
}
IDLE_STEP_CALLS = 37


def test_an_idle_ring_step_stays_inside_its_call_budget():
    comps = [Component(name) for name in ("a", "b")]
    for comp in comps:
        comp.attach_end(ChannelEnd(f"{comp.name}.e", latency=1 * US))
    rings = []
    try:
        wiring = _ring_pairs([ProcChannel("a", "a.e", "b", "b.e")],
                             ["a", "b"], 1 << 16, rings)
        steppers = []
        for comp in comps:
            _wire(comp, wiring[comp.name])
            steppers.append(Stepper(comp, 1 * MS))
        for _ in range(3):
            for stepper in steppers:
                stepper.step()
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
            state = steppers[0].step()
        finally:
            sys.setprofile(None)
    finally:
        for ring in rings:
            ring.close()
    assert state == "progressed" and steppers[0].commit == 3 * US
    assert dict(frames) == IDLE_STEP_FRAMES
    assert calls == IDLE_STEP_CALLS


# -- waiting, in one process -------------------------------------------------

class Beats:
    """A heartbeat sink (the child's pipe up) that calls ``on_waiting`` at
    the first heartbeat sent while waiting."""

    def __init__(self, on_waiting=None):
        self.beats = []
        self.on_waiting = on_waiting

    def put(self, hb):
        self.beats.append(hb)
        if hb.waiting and self.on_waiting is not None:
            self.on_waiting()
            self.on_waiting = None


@contextmanager
def mute_peer(end, promise=None):
    """Wire ``end`` over two rings to a peer end that nobody steps or
    drains; the peer publishes a promise for ``promise`` first if given.
    Yields the two rings."""
    peer = ChannelEnd("peer.e", latency=end.latency)
    with ShmRing.create(1 << 16) as out, ShmRing.create(1 << 16) as back:
        end.wire(out_q=out, in_q=back, peer_name=peer.name)
        end.peer_comp_name = "peer"
        peer.wire(out_q=back, in_q=out, peer_name=end.name)
        if promise is not None:
            publish(peer, promise)
            peer.flush(blocked=True)
        yield out, back


@pytest.fixture
def every_beat(monkeypatch):
    """A heartbeat at every chance (each step and backoff step)."""
    monkeypatch.setattr(procrunner, "HB_INTERVAL_S", 0.0)


def test_a_full_ring_beats_and_answers_stop_like_a_blocked_input(every_beat):
    """The flooder's first round overfills a ring its peer never drains:
    the step reports blocked with the tail kept, and the wait sends
    ``waiting`` heartbeats, answers a mailbox ``stop`` and ends the run."""
    flood = Flooder("flood")
    cmds, replies = queue.Queue(), queue.Queue()
    beats = Beats(lambda: cmds.put({"cmd": "stop", "req": 1}))
    with mute_peer(flood.end, promise=10 * MS):
        stepper = Stepper(flood, 10 * MS, beats=beats,
                          mailbox=ChildMailbox("flood", cmds, replies, flood))
        assert stepper.step() == "blocked"
        assert flood.end.out_batch  # the ring took only part of the round
        assert stepper.wait() is False  # stopped
    assert [hb.waiting for hb in beats.beats] == [False, True]
    assert replies.get_nowait() == (1, "flood",
                                    {"stopping_at_ps": stepper.commit})
    assert flood.end.wait_polls == 1 and stepper.wait_ns > 0


def test_an_abort_while_waiting_raises(every_beat):
    a = Pinger("a", initiator=True)
    with mute_peer(a.end) as rings:
        stepper = Stepper(a, 1 * MS, beats=Beats(
            lambda: [ring.abort() for ring in rings]))
        assert stepper.step() == "blocked"  # no promise from the peer
        with pytest.raises(RuntimeError, match=r"^a aborted at commit=0: "
                           "run aborted, a peer failed$"):
            stepper.wait()


def test_a_peer_that_never_steps_raises_at_the_deadline():
    a = Pinger("a", initiator=True)
    with mute_peer(a.end):
        stepper = Stepper(a, 1 * MS, timeout_s=0.05)
        assert stepper.step() == "blocked"
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match=r"^a stuck at commit=0$"):
            stepper.wait()
    assert 0.0 < time.monotonic() - t0 < 1.0


def test_a_full_ring_whose_peer_is_aborted_raises(every_beat):
    flood = Flooder("flood")
    with mute_peer(flood.end, promise=10 * MS) as rings:
        stepper = Stepper(flood, 10 * MS, beats=Beats(
            lambda: [ring.abort() for ring in rings]))
        assert stepper.step() == "blocked"
        with pytest.raises(RuntimeError, match=r"^flood aborted at commit="
                           r"1000000: run aborted, a peer failed$"):
            stepper.wait()
