"""Divergence auditor: the determinism digest and its per-epoch ledger.

This module is the one place the event timeline is hashed.  A run's
*root* is one SHA-256 over the *entire* event timeline (per-component
``name:ts,ts,...;`` payloads folded in sorted-name order); every
fast == strict == mp and recorder-on == off check compares roots, and the
pin ``golden_digest`` (``tests/pins.py``) is the golden workload's
fast-mode root, ``GOLDEN_DIGEST``.  The root proves *that* two runs diverged; the ledger
records *where*: a streaming ledger of per-component, per-epoch
subdigests that ``splitsim-inspect diff`` walks to the first divergent
``(epoch, component)``.

**Epochs are fixed simulated-time windows** (``window_ps`` wide, recorded
in the ledger header), *not* wall-clock heartbeat intervals or coordinator
round counts: a component executes its events in nondecreasing timestamp
order in every execution mode, so window boundaries — and therefore rows —
are identical between a fast-mode run, a strict in-process run, and a
multiprocess run.  Window ``e`` covers ``[e*window_ps, (e+1)*window_ps)``
and closes as soon as an event at or past its upper bound executes (or at
run end); empty windows produce no row.

**Per-epoch digests chain**: row ``e``'s digest is
``sha256(prev_digest | epoch | "ts,ts,...")`` over the window's timestamp
text, seeded with the empty string — so a single perturbed event changes
its own window's digest *and* every later one, and the first mismatching
row in a walk is exactly the first divergent window.

**The root is the golden fold, bit for bit**: each component's closed
window chunks concatenate (comma-joined) back into the exact
``name:ts,ts,...;`` payload, and :func:`fold_root` feeds those payloads
sha256 in sorted-name order — components with zero events are skipped
("only components that executed events").  ``GOLDEN_DIGEST`` was
captured by an independent hook before this module existed, so a root
equal to it proves both that the encoding is unchanged and that auditing
(one list append per event through the kernel's ``queue.trace`` hook,
which :meth:`ComponentAuditor.attach` installs in front of any hook
already there) moves no event.

One probe, one collector (see :mod:`repro.obs.recorder` for who drives
them): a :class:`ComponentAuditor` per component closes complete windows
on every beat — sync-round boundaries in process, telemetry heartbeats in
multiprocess children — and hands the freshly closed rows over; its result
carries the authoritative rows, the component digest and the full payload
(zlib-compressed when it crosses a process boundary) so the
:class:`AuditCollector` can fold the exact root.

Persistence is columnar JSONL (``audit.jsonl``): a header object, one
``{"c": comp_index, "e": epoch, "n": events, "d": digest, "t0": .., "t1": ..}``
row per non-empty (component, window), then a ``{"final": true, ...}``
trailer carrying the root and per-component digests.  The run report
references the ledger (schema 4's ``audit`` field).
"""

from __future__ import annotations

import hashlib
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..kernel.simtime import US, fmt_time
from .recorder import Collector, JsonlDoc, LoadedDoc
from .schema import AUDIT_SCHEMA

#: The header's ``kind`` marker (guards against loading arbitrary JSONL).
AUDIT_KIND = "splitsim-audit"

#: Default epoch width in simulated picoseconds (64 us).
DEFAULT_WINDOW_PS = 64 * US

#: In-process beat period in strict sync rounds.  The probes' results carry
#: every row anyway; in-process beats only bound the pending-timestamp
#: buffers, so they can be sparse (each flush has a fixed cost).
INPROC_BEAT_ROUNDS = 1024

_DOC = JsonlDoc(AUDIT_KIND, AUDIT_SCHEMA, "audit", "an audit ledger")


def chunk_digest(prev: str, epoch: int, chunk: str) -> str:
    """Chained digest of one window: ``sha256(prev | epoch | chunk)``."""
    return hashlib.sha256(f"{prev}|{epoch}|{chunk}".encode()).hexdigest()


def fold_root(payloads: Dict[str, str]) -> str:
    """The golden fold: sha256 over payloads in sorted-name order.

    ``payloads`` maps component name to its full ``name:ts,ts,...;``
    timeline payload; components with an empty timeline must already be
    absent (the guard only folds components that executed events).
    """
    digest = hashlib.sha256()
    for name in sorted(payloads):
        digest.update(payloads[name].encode())
    return digest.hexdigest()


@dataclass
class AuditRow:
    """One component's closed window: event count plus chained digest."""

    comp: str
    epoch: int
    n: int          # events executed in this window
    digest: str     # chained: sha256(prev_digest | epoch | "ts,ts,...")
    t0: int         # first event timestamp in the window
    t1: int         # last event timestamp in the window

    def to_wire(self) -> dict:
        """Compact dict for heartbeat piggyback / result shipping."""
        return {"e": self.epoch, "n": self.n, "d": self.digest,
                "t0": self.t0, "t1": self.t1}

    @classmethod
    def from_wire(cls, comp: str, w: dict) -> "AuditRow":
        return cls(comp=comp, epoch=w["e"], n=w["n"], digest=w["d"],
                   t0=w["t0"], t1=w["t1"])


def _owner_hook(prev):
    """A ``queue.trace`` hook appending each executed timestamp to its
    owner's probe buffer (``hook.appends[owner]``), then chaining ``prev``
    — so a hook installed before it (the work probe's) keeps working with
    auditing on.  By-owner dispatch serves private (strict,
    mp) and shared (fast) queues alike."""
    appends: Dict[object, object] = {}
    if prev is None:
        def hook(owner, ts):
            appends[owner](ts)
    else:
        def hook(owner, ts):
            appends[owner](ts)
            prev(owner, ts)
    hook.appends = appends
    hook.prev = prev
    return hook


class _Payload(str):
    """A component payload that zlib-compresses itself when pickled, i.e.
    only when it crosses a process boundary on a child's pipe."""

    def __reduce__(self):
        return _unpack_payload, (zlib.compress(self.encode()),)


def _unpack_payload(blob: bytes) -> str:
    return zlib.decompress(blob).decode()


class ComponentAuditor:
    """The audit probe: streaming per-component window state.

    The hot path is :attr:`buf` ``.append``, reached from the kernel's
    per-event ``queue.trace`` hook (:meth:`attach` installs it).  Window
    splitting, digest chaining, and payload accumulation all happen in
    batch at flush points (beats / run end) over the buffered,
    already-sorted timestamps.
    """

    name = "audit"

    __slots__ = ("comp", "window_ps", "buf", "rows", "chunks", "_prev",
                 "_taken", "_hooked")

    def __init__(self, comp: str, window_ps: int = DEFAULT_WINDOW_PS) -> None:
        if window_ps <= 0:
            raise ValueError("window_ps must be positive")
        self.comp = comp               # component name
        self.window_ps = window_ps
        self.buf: List[int] = []       # pending timestamps (nondecreasing)
        self.rows: List[AuditRow] = []
        self.chunks: List[str] = []    # closed-window timestamp text
        self._prev = ""                # chain seed for the next window
        self._taken = 0                # rows already shipped via take_rows
        self._hooked = None            # (queue, hook) while installed

    @classmethod
    def attach(cls, comp, window_ps: int = DEFAULT_WINDOW_PS
               ) -> "ComponentAuditor":
        """Audit a live component: hook its queue's per-event trace
        (call after wiring, before the run; :meth:`result` unhooks).

        Raises :class:`ValueError` when ``comp`` is already audited on
        its queue: a second probe would take over the first one's events
        and leave it a complete-looking ledger of nothing.
        """
        probe = cls(comp.name, window_ps)
        queue = comp.queue
        hook = queue.trace
        if getattr(hook, "appends", None) is None:
            hook = queue.trace = _owner_hook(hook)
        elif comp in hook.appends:
            raise ValueError(f"{comp.name} is already audited on its queue")
        hook.appends[comp] = probe.buf.append
        probe._hooked = (queue, hook)
        return probe

    def _flush_below(self, limit: Optional[int]) -> None:
        """Close every complete window strictly below ``limit`` (None=all).

        ``buf`` is trimmed in place — the installed trace hook holds a
        bound ``buf.append``, so the list's identity must never change.
        """
        buf = self.buf
        if not buf:
            return
        if limit is None:
            closed = buf[:]
            del buf[:]
        else:
            cut = bisect_left(buf, limit)
            if not cut:
                return
            closed = buf[:cut]
            del buf[:cut]
        w = self.window_ps
        i, n = 0, len(closed)
        while i < n:
            epoch = closed[i] // w
            j = bisect_left(closed, (epoch + 1) * w, i)
            group = closed[i:j]
            chunk = ",".join(map(str, group))
            self._prev = chunk_digest(self._prev, epoch, chunk)
            self.rows.append(AuditRow(self.comp, epoch, j - i, self._prev,
                                      group[0], group[-1]))
            self.chunks.append(chunk)
            i = j

    def flush_closed(self) -> None:
        """Close windows known complete: everything below the newest
        event's window (per-component timestamps are nondecreasing, so no
        earlier window can gain events)."""
        buf = self.buf
        if not buf:
            return
        limit = (buf[-1] // self.window_ps) * self.window_ps
        if limit > buf[0]:
            self._flush_below(limit)

    def finalize(self) -> None:
        """Close the trailing window at run end."""
        self._flush_below(None)

    def take_rows(self) -> List[dict]:
        """Rows closed since the previous take (heartbeat piggyback)."""
        rows = self.rows
        if self._taken >= len(rows):
            return []
        fresh = [r.to_wire() for r in rows[self._taken:]]
        self._taken = len(rows)
        return fresh

    def beat(self, commit_ps: int) -> Optional[List[dict]]:
        """Close complete windows; the freshly closed rows, if any."""
        self.flush_closed()
        return self.take_rows() or None

    def result(self) -> dict:
        """Close the trailing window, unhook, and ship the final state:
        every row, the component digest and the full payload."""
        self.finalize()
        if self._hooked is not None:
            queue, hook = self._hooked
            self._hooked = None
            if queue.trace is hook:  # a shared queue's first result unhooks
                queue.trace = hook.prev
        return {"rows": [r.to_wire() for r in self.rows],
                "digest": self.digest(),
                "payload": _Payload(self.payload()),
                "events": self.events}

    @property
    def events(self) -> int:
        return sum(r.n for r in self.rows) + len(self.buf)

    def payload(self) -> str:
        """The exact golden-fold payload: ``name:ts,ts,...;``."""
        return self.comp + ":" + ",".join(self.chunks) + ";"

    def digest(self) -> Optional[str]:
        """Component timeline digest (None when no events executed): the
        SHA-256 of :meth:`payload`, i.e. :func:`fold_root` over this
        component alone."""
        if not self.chunks:
            return None
        return hashlib.sha256(self.payload().encode()).hexdigest()


class AuditCollector(Collector):
    """Assembles the probes' rows and results into the ledger.

    Beat rows keep the ledger partially populated when a component never
    delivers its result (a crashed mp child); the result's row list is
    authoritative.  The root is computed — exactly the golden fold — only
    when every component's full payload arrived; otherwise the ledger is
    marked partial with a ``null`` root.
    """

    name = "audit"

    def __init__(self, window_ps: Optional[int] = None,
                 meta: Optional[dict] = None) -> None:
        super().__init__(meta)
        self.window_ps = DEFAULT_WINDOW_PS if window_ps is None else window_ps
        self._rows: Dict[Tuple[str, int], AuditRow] = {}
        self._results: Dict[str, dict] = {}  # final probe payloads

    def probe(self, comp) -> ComponentAuditor:
        return ComponentAuditor.attach(comp, self.window_ps)

    def begin(self, components: List[str], until_ps: int, mode: str) -> None:
        # sorted in every mode: readers index rows by name
        super().begin(sorted(components), until_ps, mode)

    def note(self, comp: str, beat, payload: List[dict]) -> None:
        """Consume freshly closed rows (a later copy of a row wins)."""
        for w in payload:
            row = AuditRow.from_wire(comp, w)
            self._rows[(comp, row.epoch)] = row

    def note_result(self, comp: str, payload: Optional[dict]) -> None:
        """Consume one component's authoritative final state (a component
        that never gets here keeps its beat rows; the ledger is partial)."""
        super().note_result(comp, payload)
        if payload is not None:
            self.note(comp, None, payload["rows"])
            self._results[comp] = payload

    def _executed(self) -> Dict[str, dict]:
        """Results of the components that executed events: the guard's
        fold skips the others entirely, so their empty ``name:;`` payload
        must not fold (or get a digest) either."""
        return {c: p for c, p in self._results.items()
                if p["digest"] is not None}

    def root_digest(self) -> Optional[str]:
        """The golden fold, or None while any component's payload is
        missing (crashed child / undelivered result)."""
        if self.partial:
            return None
        return fold_root({c: p["payload"]
                          for c, p in self._executed().items()})

    def component_digests(self) -> Dict[str, str]:
        return {c: p["digest"] for c, p in self._executed().items()}

    def sorted_rows(self) -> List[AuditRow]:
        return sorted(self._rows.values(), key=lambda r: (r.epoch, r.comp))

    def to_ledger(self) -> "AuditLedger":
        """In-memory ledger (no file round trip) for diffing in tests."""
        rows = self.sorted_rows()
        final = {"final": True, "root": self.root_digest(),
                 "components": self.component_digests(),
                 "events": sum(r.n for r in rows) if self.partial
                 else sum(p["events"] for p in self._results.values())}
        if self.partial:
            final["partial"] = self.partial
        header = {"kind": AUDIT_KIND, "schema": AUDIT_SCHEMA,
                  "mode": self.mode, "until_ps": self.until_ps,
                  "window_ps": self.window_ps,
                  "components": list(self.components),
                  "meta": dict(self.meta)}
        return AuditLedger(header, rows, final)

    def save(self, path: str) -> dict:
        """Persist as columnar JSONL — header, one row per non-empty
        (component, window), the final trailer; returns the header."""
        ledger = self.to_ledger()
        index = {c: i for i, c in enumerate(self.components)}
        _DOC.write(path, ledger.header,
                   [{"c": index[row.comp], **row.to_wire()}
                    for row in ledger.rows] + [ledger.final])
        return ledger.header


# -- persistence ---------------------------------------------------------------

class AuditLedger(LoadedDoc):
    """A loaded (or in-memory) audit document."""

    def __init__(self, header: dict, rows: List[AuditRow],
                 final: Optional[dict]) -> None:
        super().__init__(header, rows)
        self.final = final

    @property
    def window_ps(self) -> int:
        return self.header.get("window_ps", DEFAULT_WINDOW_PS)

    @property
    def root(self) -> Optional[str]:
        return (self.final or {}).get("root")

    @property
    def partial(self) -> List[str]:
        """The components whose result never arrived (empty: complete)."""
        return list((self.final or {}).get("partial", []))

    def component_digests(self) -> Dict[str, str]:
        return dict((self.final or {}).get("components", {}))

    def by_key(self) -> Dict[Tuple[int, str], AuditRow]:
        return {(r.epoch, r.comp): r for r in self.rows}

    def window_bounds(self, epoch: int) -> Tuple[int, int]:
        w = self.window_ps
        return epoch * w, (epoch + 1) * w


def load_audit(path: str) -> AuditLedger:
    """Load and validate an ``audit.jsonl`` document.

    Raises :class:`ValueError` on a malformed or wrong-kind document and
    propagates :class:`OSError` for unreadable paths.
    """
    finals: List[dict] = []

    def parse(header: dict, doc: dict) -> Optional[AuditRow]:
        if doc.get("final"):
            finals.append(doc)
            return None
        return AuditRow.from_wire(header["components"][doc["c"]], doc)

    header, rows = _DOC.read(path, parse)
    return AuditLedger(header, rows, finals[-1] if finals else None)


# -- cross-run diff ------------------------------------------------------------

#: Diff verdicts.
DIFF_IDENTICAL = "identical"
DIFF_DIVERGED = "diverged"
DIFF_INCOMPARABLE = "incomparable"


@dataclass
class AuditDivergence:
    """The first (epoch, component) where two ledgers disagree."""

    epoch: int
    comp: str
    row_a: Optional[AuditRow]
    row_b: Optional[AuditRow]
    window: Tuple[int, int] = (0, 0)

    def describe(self) -> str:
        lo, hi = self.window
        lines = [f"first divergence: epoch {self.epoch} "
                 f"[{fmt_time(lo)} .. {fmt_time(hi)}) "
                 f"component {self.comp}"]
        for label, row in (("A", self.row_a), ("B", self.row_b)):
            if row is None:
                lines.append(f"  {label}: (no events in this window)")
            else:
                lines.append(
                    f"  {label}: {row.n} events, first {fmt_time(row.t0)}, "
                    f"last {fmt_time(row.t1)}, digest {row.digest[:16]}...")
        return "\n".join(lines)


@dataclass
class AuditDiff:
    """Outcome of walking two ledgers against each other."""

    status: str
    problems: List[str] = field(default_factory=list)
    divergence: Optional[AuditDivergence] = None
    root_a: Optional[str] = None
    root_b: Optional[str] = None
    rows_compared: int = 0
    #: components whose end-of-run timeline digests differ (may be wider
    #: than the first divergence — chaining localizes the earliest only)
    mismatched_components: List[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return self.status == DIFF_IDENTICAL

    def to_dict(self) -> dict:
        out = {"status": self.status, "problems": list(self.problems),
               "roots": {"a": self.root_a, "b": self.root_b},
               "rows_compared": self.rows_compared,
               "mismatched_components": list(self.mismatched_components)}
        if self.divergence is not None:
            d = self.divergence
            out["first_divergence"] = {
                "epoch": d.epoch, "component": d.comp,
                "window_ps": list(d.window),
                "a": d.row_a.to_wire() if d.row_a else None,
                "b": d.row_b.to_wire() if d.row_b else None,
            }
        return out


def diff_ledgers(a: AuditLedger, b: AuditLedger) -> AuditDiff:
    """Walk two ledgers to the first divergent (epoch, component).

    Rows are compared in (epoch, component) order; the first key present
    in only one ledger, or present in both with a different digest or
    event count, is the divergence.  Ledgers recorded with different
    epoch widths cannot be row-compared (status ``incomparable``).
    """
    problems: List[str] = []
    if a.window_ps != b.window_ps:
        problems.append(f"window_ps differs: {a.window_ps} vs "
                        f"{b.window_ps} — re-record with matching --audit "
                        "windows to compare")
        return AuditDiff(DIFF_INCOMPARABLE, problems,
                         root_a=a.root, root_b=b.root)
    if a.until_ps != b.until_ps:
        problems.append(f"until_ps differs: {a.until_ps} vs {b.until_ps} "
                        "(runs of different duration diverge trivially)")
    only_a = set(a.components) - set(b.components)
    only_b = set(b.components) - set(a.components)
    if only_a:
        problems.append(f"components only in A: {sorted(only_a)}")
    if only_b:
        problems.append(f"components only in B: {sorted(only_b)}")

    rows_a, rows_b = a.by_key(), b.by_key()
    divergence = None
    compared = 0
    for key in sorted(set(rows_a) | set(rows_b)):
        ra, rb = rows_a.get(key), rows_b.get(key)
        if ra is not None and rb is not None and ra.digest == rb.digest \
                and ra.n == rb.n:
            compared += 1
            continue
        epoch, comp = key
        divergence = AuditDivergence(epoch=epoch, comp=comp, row_a=ra,
                                     row_b=rb,
                                     window=a.window_bounds(epoch))
        break

    da, db = a.component_digests(), b.component_digests()
    mismatched = sorted(n for n in set(da) | set(db)
                        if da.get(n) != db.get(n))
    roots_differ = (a.root is not None and b.root is not None
                    and a.root != b.root)
    status = DIFF_DIVERGED if (divergence is not None or roots_differ) \
        else DIFF_IDENTICAL
    return AuditDiff(status, problems, divergence,
                     root_a=a.root, root_b=b.root, rows_compared=compared,
                     mismatched_components=mismatched)
