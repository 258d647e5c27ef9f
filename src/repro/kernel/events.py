"""Discrete-event machinery: events, the event queue, and cancellation.

The queue is a binary heap of ``(timestamp, sequence, event)`` tuples.  The
sequence number breaks timestamp ties in insertion order, which makes
simulations deterministic: two events scheduled for the same picosecond
always execute in the order they were scheduled.

Hot-path design (this loop bounds overall simulator throughput):

* Heap entries are plain tuples, so ``heapq`` sift compares machine ints via
  tuple comparison instead of calling rich-comparison dunders on event
  objects.
* ``Event`` is a ``__slots__`` class and instances are recycled through a
  per-queue free list: an event returns to the pool after its callback runs
  (or after its cancelled carcass is dropped from the heap top).
* ``run_until`` fuses the classic ``peek_ts`` + ``pop`` pair into one scan
  over dead heap entries and inlines the per-event accounting of
  :class:`~repro.kernel.component.Component`.
* :meth:`EventQueue.postpone` re-arms a pending event for a later time in
  place: the event takes the fresh ``(ts, seq)`` a ``cancel`` + ``schedule``
  pair would have given its replacement, so execution order — ties included
  — is the same, but the heap keeps one entry per timer instead of one
  tombstone per re-arm.  The stale entry is re-pushed under the new key when
  it surfaces, on the branch the drain already takes for cancelled entries.

**Pooled-event lifetime rule:** a handle returned by :meth:`EventQueue.schedule`
is only valid until the event fires or its cancellation is collected; it
stays valid across any number of :meth:`EventQueue.postpone` calls.  Do not
retain handles after the callback has run; clear stored handles inside the
callback (see ``TcpConnection._on_rto`` for the canonical pattern).
Cancelling or postponing an already-fired handle is a safe no-op *only*
until the pooled object is reused, so stale handles must not escape their
callback's turn.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: ``Event.cancelled`` marker of a postponed event: truthy, so the drain's
#: one ``if ev.cancelled:`` test catches it, and not ``True``, so it is told
#: apart from a dead one inside that branch.
_MOVED = 2


class Event:
    """A single scheduled callback.

    Events live in the heap inside ``(ts, seq, event)`` tuples; the object
    itself is never compared.  Use :meth:`cancel` rather than removing from
    the queue; cancelled events are skipped lazily when popped.

    ``cancelled`` has three states: ``False`` (pending, the heap entry
    carries this event's key), ``True`` (dead: cancelled, fired or pooled)
    and the truthy marker ``_MOVED`` (pending, but postponed: the heap entry
    is stale and ``ts`` / ``seq`` hold the key it is re-pushed under).
    """

    __slots__ = ("ts", "seq", "fn", "args", "cancelled", "owner", "_queue")

    def __init__(self, ts: int, seq: int, fn: Callable[..., None],
                 args: tuple = (), owner: Any = None,
                 queue: Optional["EventQueue"] = None) -> None:
        self.ts = ts
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.owner = owner
        self._queue = queue

    def cancel(self) -> None:
        """Cancel this event; delegates to the owning queue's bookkeeping."""
        queue = self._queue
        if queue is not None:
            queue.cancel(self)
        else:
            self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        state = " cancelled" if self.cancelled is True else ""
        return f"<Event ts={self.ts} seq={self.seq} fn={name}{state}>"


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects with a free list.

    Cancellation is lazy: cancelled events stay in the heap until they reach
    the top, at which point they are discarded (and recycled).  Postponing
    is lazy the same way: the entry stays under its old key until it reaches
    the top and is re-pushed under the new one.  ``len()`` reports only live
    events.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._pool: List[Event] = []
        #: optional per-executed-event hook ``trace(owner, ts)`` — used by
        #: the determinism guard; ``None`` costs one pointer test per event.
        self.trace: Optional[Callable[[Any, int], None]] = None
        #: observability hook: ``None`` (tracing disabled; one pointer test
        #: per *drain*) or a ``(Tracer, tid)`` pair installed by
        #: :mod:`repro.obs.install`.  A traced drain emits one span plus
        #: sampled queue-health counter tracks; it never changes event
        #: order, so the determinism guard holds with tracing on.
        self.obs: Optional[tuple] = None
        # -- lifetime statistics (surfaced through SimStats) --
        self.peak_heap = 0
        self.allocations = 0  # fresh Event objects constructed
        self.cancelled_total = 0  # events cancelled before firing
        self.postponed_total = 0  # postpone() calls that moved an event
        self.executed = 0  # events whose callback ran

    @property
    def pool_reuse(self) -> int:
        """Schedules served from the free list (derived, not hot-path kept)."""
        return self._seq - self.postponed_total - self.allocations

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # -- scheduling --------------------------------------------------------

    def schedule(self, ts: int, fn: Callable[..., None], *args: Any,
                 owner: Any = None) -> Event:
        """Insert a callback at absolute time ``ts`` and return its handle."""
        return self.schedule_at(owner, ts, fn, *args)

    def schedule_at(self, owner: Any, ts: int, fn: Callable[..., None],
                    *args: Any) -> Event:
        """:meth:`schedule` with a positional owner, for hot callers:
        keyword passing of ``owner`` is measurably slower on the per-message
        path (``call_after``, ``poll_inputs``, fast-mode channel delivery).
        """
        if ts < 0:
            raise ValueError(f"cannot schedule event at negative time {ts}")
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev.ts = ts
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
            ev.owner = owner
        else:
            ev = Event(ts, seq, fn, args, owner=owner, queue=self)
            self.allocations += 1
        self._live += 1
        heap = self._heap
        heapq.heappush(heap, (ts, seq, ev))
        # sampled high-water mark: every 256th schedule, cheap on the hot path
        if not seq & 255 and len(heap) > self.peak_heap:
            self.peak_heap = len(heap)
        return ev

    def cancel(self, ev: Event) -> None:
        """Cancel an event previously returned by :meth:`schedule`."""
        if ev.cancelled is not True:
            ev.cancelled = True
            self._live -= 1
            self.cancelled_total += 1

    def postpone(self, ev: Event, ts: int) -> bool:
        """Move a pending event to the later (or equal) time ``ts``, in place.

        Returns ``False`` and changes nothing when ``ev`` is no longer
        pending or ``ts`` lies before its current time — the caller then
        cancels and schedules as usual.  The event takes a fresh ``seq``,
        the one the replacement of a ``cancel`` + ``schedule`` pair would
        have been given, so it executes at exactly the same place in the
        ``(ts, seq)`` order; no heap entry is added, the stale one is
        re-keyed when it surfaces.
        """
        if ev.cancelled is True or ts < ev.ts:
            return False
        seq = self._seq
        self._seq = seq + 1
        ev.ts = ts
        ev.seq = seq
        ev.cancelled = _MOVED
        self.postponed_total += 1
        return True

    # -- pool --------------------------------------------------------------

    def _recycle(self, ev: Event) -> None:
        """Return a dead event to the free list, dropping its references."""
        ev.fn = _released
        ev.args = ()
        ev.owner = None
        ev.cancelled = True
        self._pool.append(ev)

    def release(self, ev: Event) -> None:
        """Explicitly return a popped event to the pool.

        Only call this on events obtained from :meth:`pop` after their
        callback has completed; the handle must not be used afterwards.
        Idempotent for already-released events.
        """
        if ev.fn is not _released:
            self._recycle(ev)

    # -- consuming ---------------------------------------------------------

    def peek_ts(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if empty.

        Settles the heap top on the way: dead entries are recycled and a
        postponed one is re-keyed, so afterwards ``heap[0]`` (if any) is
        the next live event under its true key.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[2]
            if not ev.cancelled:
                return entry[0]
            if ev.cancelled is True:
                heapq.heappop(heap)
                self._recycle(ev)
            else:
                ev.cancelled = False
                heapq.heapreplace(heap, (ev.ts, ev.seq, ev))
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty.

        The caller owns the returned event until it hands it back via
        :meth:`release` (optional — unreleased events are simply collected
        by the garbage collector, forgoing reuse).
        """
        if self.peek_ts() is None:
            return None
        self._live -= 1
        return heapq.heappop(self._heap)[2]

    def run_until(self, until_ps: int) -> int:
        """Execute every live event with ``ts <= until_ps``; return the count.

        The fused fast drain: one heap scan per event, owner clock update,
        default per-event work accounting, callback invocation, and recycling
        all inlined with hoisted lookups.  Events must carry an ``owner``
        component (the coordinator and :meth:`Component.advance` guarantee
        this); ownerless events are executed without accounting.
        """
        # nothing due: leave the heap as it is (dead heads are still
        # recycled, a postponed one re-keyed), so an idle drain costs no
        # pop + push-back
        nxt = self.peek_ts()
        if nxt is None or nxt > until_ps:
            return 0
        heap = self._heap
        pop = heapq.heappop
        pool = self._pool
        trace = self.trace
        steps = 0
        last_ts = nxt
        while heap:
            # pop-first: cheaper than peek-then-pop per event; overshooting
            # the bound costs a single push-back per non-empty drain instead
            entry = pop(heap)
            ev = entry[2]
            if ev.cancelled:
                if ev.cancelled is True:
                    ev.fn = _released
                    ev.args = ()
                    ev.owner = None
                    pool.append(ev)
                else:
                    # postponed: this entry is stale, re-key it
                    ev.cancelled = False
                    heapq.heappush(heap, (ev.ts, ev.seq, ev))
                continue
            ts = entry[0]
            if ts > until_ps:
                heapq.heappush(heap, entry)
                break
            steps += 1
            last_ts = ts
            owner = ev.owner
            if owner is not None:
                owner.now = ts
                owner.events_processed += 1
                cycles = owner.cycles_per_event
                owner.work_cycles += cycles
                recorder = owner.recorder
                if recorder is not None:
                    recorder.note_work(owner.name, ts, cycles)
            if trace is not None:
                trace(owner, ts)
            ev.fn(*ev.args)
            # recycle: the callback has returned, the handle is dead
            # (cancelled=True tombstones stale handles; owner is left set —
            # components outlive the run, so the reference is harmless)
            ev.fn = _released
            ev.args = ()
            ev.cancelled = True
            pool.append(ev)
        # live-count is settled once per drain, not per event; ``len()`` is
        # only meaningful at drain boundaries (nothing reads it mid-drain)
        self._live -= steps
        executed = self.executed + steps
        obs = self.obs
        if obs is not None:
            # one span per drain, first -> last executed timestamp; emitted
            # after the loop so the drain pays one local store per event
            tracer, tid = obs
            start_us = nxt / 1_000_000
            tracer.span(tid, "kernel", "drain", start_us,
                        last_ts / 1_000_000 - start_us, {"events": steps})
            if (executed ^ self.executed) >> 13:
                # queue-health sample, about every 8192 executed events
                tracer.counter(tid, "kernel", "kernel.queue",
                               last_ts / 1_000_000,
                               {"heap": len(heap), "pool": len(pool)})
        self.executed = executed
        return steps

    # -- statistics --------------------------------------------------------

    def stats(self) -> dict:
        """Lifetime counters for :class:`~repro.parallel.simulation.SimStats`."""
        # postpone() consumes a seq but is not a schedule
        scheduled = self._seq - self.postponed_total
        return {
            "peak_heap": self.peak_heap,
            "allocations": self.allocations,
            "pool_reuse": self.pool_reuse,
            "pool_reuse_rate": (self.pool_reuse / scheduled) if scheduled else 0.0,
            "cancelled_total": self.cancelled_total,
            "cancelled_ratio": (self.cancelled_total / scheduled) if scheduled else 0.0,
            "postponed_total": self.postponed_total,
            "executed": self.executed,
        }


def _released(*_args: Any) -> None:  # pragma: no cover - defensive sentinel
    """Sentinel callback marking a pooled (dead) event; must never fire."""
    raise AssertionError("released (pooled) event was invoked")
