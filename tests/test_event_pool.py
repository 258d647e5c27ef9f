"""Event-queue hot-path semantics: cancellation, pooling, fused drains.

These pin down the behaviours the tuple-heap/free-list kernel must keep:
cancellation bookkeeping is identical through ``Event.cancel`` and
``EventQueue.cancel``, released events are recycled without changing
execution order, and the fused ``pop_until``/``run_until`` drains match the
classic peek/pop loop event for event.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.kernel.events import Event, EventQueue


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


def test_pop_until_respects_bound_and_order():
    q = EventQueue()
    for ts in (30, 10, 20):
        q.schedule(ts, lambda: None)
    assert q.pop_until(5) is None
    assert q.pop_until(25).ts == 10
    assert q.pop_until(25).ts == 20
    assert q.pop_until(25) is None
    assert q.peek_ts() == 30


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
    ref_prev = opt_prev = None
    for ts, do_cancel in ops:
        r = ref.schedule(ts, lambda: None)
        o = opt.schedule(ts, lambda: None)
        if do_cancel and ref_prev is not None:
            ref.cancel(ref_prev)
            opt.cancel(opt_prev)
        ref_prev, opt_prev = r, o

    ref_exec = ref.run_until(bound)
    executed = []
    while True:
        ev = opt.pop_until(bound)
        if ev is None:
            break
        executed.append((ev.ts, ev.seq))
        opt.release(ev)
    assert executed == ref_exec
