"""Event-queue hot-path semantics: cancellation, pooling, fused drains.

These pin down the behaviours the tuple-heap/free-list kernel must keep:
cancellation bookkeeping is identical through ``Event.cancel`` and
``EventQueue.cancel``, released events are recycled without changing
execution order, the fused ``run_until`` drain matches the classic peek/pop
loop event for event, and ``postpone`` is indistinguishable — in executed
order, ``_seq`` and ``len()`` — from the ``cancel`` + ``schedule`` pair it
replaces.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.kernel.component import Component
from repro.kernel.events import EventQueue
from repro.parallel.simulation import Simulation


def test_len_counts_only_live_events():
    q = EventQueue()
    evs = [q.schedule(i, lambda: None) for i in range(5)]
    assert len(q) == 5
    q.cancel(evs[2])
    assert len(q) == 4
    evs[3].cancel()  # Event.cancel delegates to the same bookkeeping
    assert len(q) == 3
    assert q.cancelled_total == 2


def test_event_cancel_and_queue_cancel_are_equivalent():
    q = EventQueue()
    a = q.schedule(10, lambda: None)
    b = q.schedule(10, lambda: None)
    q.cancel(a)
    b.cancel()
    assert a.cancelled and b.cancelled
    assert len(q) == 0
    assert q.cancelled_total == 2
    # double-cancel (either way) must not decrement twice
    q.cancel(a)
    b.cancel()
    assert len(q) == 0
    assert q.cancelled_total == 2


def test_cancelled_event_at_heap_top_is_skipped():
    q = EventQueue()
    fired = []
    first = q.schedule(1, fired.append, "first")
    q.schedule(2, fired.append, "second")
    q.cancel(first)
    assert q.peek_ts() == 2
    q.run_until(10)
    assert fired == ["second"]


def test_cancel_then_reschedule_same_timestamp():
    q = EventQueue()
    fired = []
    ev = q.schedule(5, fired.append, "a")
    q.cancel(ev)
    q.schedule(5, fired.append, "b")
    q.run_until(5)
    assert fired == ["b"]


def test_pool_reuses_released_instances():
    q = EventQueue()
    ev = q.schedule(1, lambda: None)
    q.run_until(1)
    assert q.allocations == 1
    ev2 = q.schedule(2, lambda: None)
    assert ev2 is ev  # recycled instance
    assert q.allocations == 1
    assert q.pool_reuse == 1


def test_stale_handle_cancel_is_noop_until_reuse():
    q = EventQueue()
    fired = []
    stale = q.schedule(1, fired.append, 1)
    q.run_until(1)
    # the handle is dead: cancelling it must not disturb the queue
    stale.cancel()
    assert q.cancelled_total == 0
    q.schedule(2, fired.append, 2)
    q.run_until(2)
    assert fired == [1, 2]


def test_release_is_idempotent():
    q = EventQueue()
    q.schedule(1, lambda: None)
    ev = q.pop()
    q.release(ev)
    q.release(ev)
    assert len(q._pool) == 1


def test_run_until_inclusive_bound_and_owner_accounting():
    class Owner:
        name = "o"
        now = 0
        events_processed = 0
        work_cycles = 0.0
        cycles_per_event = 7.0
        recorder = None

    q = EventQueue()
    owner = Owner()
    seen = []
    for ts in (1, 2, 3):
        q.schedule_at(owner, ts, seen.append, ts)
    assert q.run_until(2) == 2
    assert seen == [1, 2]
    assert owner.now == 2
    assert owner.events_processed == 2
    assert owner.work_cycles == 14.0
    assert len(q) == 1
    assert q.executed == 2


def test_idle_run_until_leaves_heap_and_stats_untouched():
    """Nothing due: no pop + push-back (which reorders the heap array)."""
    q = EventQueue()
    for ts in (10, 20, 15, 30, 25):
        q.schedule(ts, lambda: None)
    heap, stats = list(q._heap), q.stats()
    for _ in range(3):
        assert q.run_until(9) == 0
    assert q._heap == heap
    assert q.stats() == stats
    assert len(q) == 5
    assert EventQueue().run_until(9) == 0


def test_idle_run_until_still_recycles_cancelled_heads():
    q = EventQueue()
    dead = q.schedule(5, lambda: None)
    live = q.schedule(10, lambda: None)
    q.cancel(dead)
    assert q.run_until(9) == 0
    assert [entry[2] for entry in q._heap] == [live]
    assert q._pool == [dead]
    assert len(q) == 1 and q.executed == 0


def test_stats_dict_consistency():
    q = EventQueue()
    evs = [q.schedule(i, lambda: None) for i in range(8)]
    q.cancel(evs[0])
    q.run_until(100)
    q.schedule(200, lambda: None)  # served from the pool
    s = q.stats()
    assert s["allocations"] == 8
    assert s["pool_reuse"] == 1
    assert s["cancelled_total"] == 1
    assert s["executed"] == 7
    assert 0.0 < s["pool_reuse_rate"] < 1.0
    assert 0.0 < s["cancelled_ratio"] < 1.0
    assert s["peak_heap"] >= 1


class ReferenceQueue:
    """Straightforward heap-of-events model (the pre-optimization shape)."""

    def __init__(self):
        self._heap = []
        self._seq = 0

    def schedule(self, ts, fn, *args):
        entry = {"ts": ts, "seq": self._seq, "fn": fn, "args": args,
                 "cancelled": False}
        self._seq += 1
        heapq.heappush(self._heap, (ts, entry["seq"], entry))
        return entry

    def cancel(self, entry):
        entry["cancelled"] = True

    def run_until(self, until_ps):
        order = []
        while self._heap:
            ts, seq, entry = self._heap[0]
            if entry["cancelled"]:
                heapq.heappop(self._heap)
                continue
            if ts > until_ps:
                break
            heapq.heappop(self._heap)
            order.append((ts, seq))
            entry["fn"](*entry["args"])
        return order


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                          st.booleans()),
                min_size=1, max_size=60),
       st.integers(min_value=0, max_value=60))
@settings(max_examples=200, deadline=None)
def test_property_identical_timelines_vs_reference(ops, bound):
    """Optimized queue and the reference execute identical (ts, seq) orders.

    Each op schedules an event; ops flagged True cancel the previously
    scheduled event (exercising lazy-cancellation interleavings).
    """
    ref, opt = ReferenceQueue(), EventQueue()
    executed = []
    ref_prev = opt_prev = None
    for ts, do_cancel in ops:
        r = ref.schedule(ts, lambda: None)
        o = opt.schedule(ts, executed.append, (ts, r["seq"]))
        if do_cancel and ref_prev is not None:
            ref.cancel(ref_prev)
            opt.cancel(opt_prev)
        ref_prev, opt_prev = r, o

    ref_exec = ref.run_until(bound)
    assert opt.run_until(bound) == len(ref_exec)
    assert executed == ref_exec


# -- postpone ---------------------------------------------------------------

def test_postponed_event_fires_once_at_the_new_time():
    q = EventQueue()
    fired = []
    q.trace = lambda owner, ts: fired.append(ts)
    ev = q.schedule(10, fired.append, "timer")
    q.schedule(15, fired.append, "other")
    assert q.postpone(ev, 20) is True
    assert q.postpone(ev, 30) is True
    assert len(q) == 2 and len(q._heap) == 2
    # the stale entry surfaces at 10: re-keyed, not executed, not traced
    assert q.run_until(12) == 0
    assert fired == [] and q.executed == 0 and len(q) == 2
    assert q.run_until(29) == 1
    assert q.run_until(100) == 1
    assert fired == [15, "other", 30, "timer"]
    assert len(q) == 0 and not q._heap and q.cancelled_total == 0


def test_postpone_refusals_change_nothing():
    q = EventQueue()
    fired = []
    ev = q.schedule(10, fired.append, "a")
    q.postpone(ev, 20)
    before = (q._seq, q.postponed_total, ev.ts, ev.seq, len(q))
    assert q.postpone(ev, 19) is False  # earlier than the current deadline
    assert (q._seq, q.postponed_total, ev.ts, ev.seq, len(q)) == before
    dead = q.schedule(5, fired.append, "b")
    q.cancel(dead)
    assert q.postpone(dead, 50) is False  # cancelled
    q.run_until(30)
    assert fired == ["a"]
    seq = q._seq
    assert q.postpone(ev, 50) is False  # fired, and by now pooled
    assert q.postpone(dead, 50) is False
    assert q._seq == seq and len(q) == 0 and q.run_until(100) == 0


def test_postpone_to_the_same_time_takes_the_later_place():
    """Equal-time re-arm orders like cancel + schedule: behind its peers."""
    q = EventQueue()
    fired = []
    ev = q.schedule(10, fired.append, "timer")
    q.schedule(10, fired.append, "peer")
    assert q.postpone(ev, 10) is True
    q.run_until(10)
    assert fired == ["peer", "timer"]


def test_cancel_after_postpone_leaves_no_live_event():
    q = EventQueue()
    fired = []
    ev = q.schedule(10, fired.append, "x")
    assert q.postpone(ev, 20)
    q.cancel(ev)
    q.cancel(ev)  # idempotent, as for a plain event
    assert len(q) == 0 and q.cancelled_total == 1
    assert q.peek_ts() is None
    assert q.run_until(100) == 0 and fired == []
    assert not q._heap and q._pool == [ev]


def test_postponed_head_through_peek_and_pop():
    q = EventQueue()
    ev = q.schedule(10, lambda: None)
    other = q.schedule(15, lambda: None)
    q.postpone(ev, 20)
    assert q.peek_ts() == 15
    assert q.pop() is other
    assert q.peek_ts() == 20
    assert q.pop() is ev and ev.ts == 20 and not ev.cancelled
    assert q.pop() is None and len(q) == 0


def test_fast_mode_migration_keeps_a_postponed_pre_run_event():
    """``Simulation._wire`` moves pre-run events to the shared queue."""
    comp = Component("c")
    fired = []
    ev = comp.schedule(10, lambda: fired.append(comp.now))
    assert comp.postpone(ev, 25)
    sim = Simulation(mode="fast")
    sim.add(comp)
    stats = sim.run(100)
    assert fired == [25] and stats.events == 1


def test_rearming_one_timer_keeps_one_heap_entry():
    q = EventQueue()
    fired = []
    timer = q.schedule(100, fired.append, "rto")
    deepest = 0
    for now in range(1, 10_001):
        q.schedule(now, fired.append, now)  # the ACK that re-arms
        q.run_until(now)
        assert q.postpone(timer, now + 100)
        deepest = max(deepest, len(q._heap))
    assert deepest <= 2 and q.allocations == 2
    q.run_until(20_000)
    assert fired[-2:] == [10_000, "rto"] and len(fired) == 10_001


def test_postpones_stay_out_of_the_schedule_ratios():
    q = EventQueue()
    evs = [q.schedule(10 + i, lambda: None) for i in range(4)]
    q.cancel(evs[0])
    for _ in range(96):
        q.postpone(evs[1], 50)
    s = q.stats()
    assert s["postponed_total"] == 96
    assert s["allocations"] == 4 and s["pool_reuse"] == 0
    assert s["cancelled_ratio"] == 0.25  # of 4 schedules, not of 100 seqs
    q.run_until(100)
    q.schedule(200, lambda: None)
    assert q.stats()["pool_reuse_rate"] == 1 / 5


class _TimerProgram:
    """Runs a step program on one queue; ``use_postpone`` picks how a
    pending timer is re-armed.  Handles follow the lifetime rule: a timer's
    callback clears its own slot."""

    def __init__(self, use_postpone):
        self.q = EventQueue()
        self.use_postpone = use_postpone
        self.now = 0
        self.handles = {}
        self.log = []
        self.q.trace = lambda owner, ts: self.log.append(ts)

    def _fire(self, timer):
        self.handles[timer] = None
        self.log.append(("fired", timer))

    def step(self, op, timer, delta):
        q, ev = self.q, self.handles.get(timer)
        if op == "run":
            self.now += delta
            self.log.append(("ran", q.run_until(self.now), len(q)))
        elif op == "cancel":
            if ev is not None:
                q.cancel(ev)
                self.handles[timer] = None
        else:  # "arm": schedule, or re-arm if pending
            ts = self.now + delta
            if ev is not None:
                if self.use_postpone and q.postpone(ev, ts):
                    return
                q.cancel(ev)
            self.handles[timer] = q.schedule(ts, self._fire, timer)


@given(st.lists(st.tuples(st.sampled_from(["arm", "arm", "arm", "cancel", "run"]),
                          st.integers(min_value=0, max_value=5),
                          st.integers(min_value=0, max_value=12)),
                min_size=1, max_size=120))
@settings(max_examples=300, deadline=None)
def test_property_postpone_equals_cancel_plus_schedule(program):
    """The same program, re-arming by ``cancel`` + ``schedule`` on one queue
    and by ``postpone`` on the other: same executed ``(ts, timer)`` sequence,
    same count and ``len()`` at every drain boundary, same final ``_seq``."""
    ref, opt = _TimerProgram(False), _TimerProgram(True)
    for op, timer, delta in program + [("run", 0, 50)]:
        ref.step(op, timer, delta)
        opt.step(op, timer, delta)
    assert opt.log == ref.log
    assert opt.q._seq == ref.q._seq
    assert opt.q.executed == ref.q.executed
    assert len(opt.q) == len(ref.q) == 0
