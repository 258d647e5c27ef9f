"""Epoch-resolved metrics timeline: how a run's costs evolve over time.

End-of-run aggregates (registry snapshot, WTPG, profiler counters) say
*which* simulator bottlenecked a run; they cannot say *when* — whether the
imbalance is a warmup artifact, a steady-state property, or a drain tail.
This module records a per-sync-epoch time series instead: at every sampling
boundary each component contributes one row of *deltas* since its previous
row — events executed, work/wait/comm cycles, per-edge message and sync
counts, and selected registry counters (batched-drain and fluid-tier
activity for network partitions).

One probe, one collector (see :mod:`repro.obs.recorder` for who drives
them): an :class:`EpochTracker` per component turns cumulative counters
into a delta payload on every beat, and the :class:`TimelineCollector`
turns payloads into rows.

* **in-process strict mode** — beats happen every ``interval_rounds`` sync
  rounds (and once at completion), for all components at the same
  boundary, so their epoch counters advance together.
* **multiprocess** — beats are the children's telemetry heartbeats (plus
  one forced final beat); epoch counters are per component (heartbeats
  are not synchronized).

Both paths observe counters only — no event is scheduled or reordered, so
the determinism digest is bit-identical with the timeline on or off.

Persistence is columnar JSONL (``timeline.jsonl``): a header object naming
the schema, component and edge index tables, and the fixed column order,
then one object per (component, epoch) whose ``"r"`` value vector follows
:data:`ROW_COLUMNS`.  :func:`load_timeline` restores a :class:`Timeline`
with per-component phase detection (warmup / steady / drain) — the input
the partition advisor (:mod:`repro.parallel.advisor`) fits its cost model
on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from . import names
from .recorder import Collector, JsonlDoc

#: Schema version of the timeline document (header ``schema`` field;
#: re-exported from the central registry in :mod:`repro.obs.schema`).
from .schema import TIMELINE_SCHEMA

#: The header's ``kind`` marker (guards against loading arbitrary JSONL).
TIMELINE_KIND = "splitsim-timeline"

#: Conventional file name inside a run directory.
TIMELINE_FILE = "timeline.jsonl"

_DOC = JsonlDoc(TIMELINE_KIND, TIMELINE_SCHEMA, TIMELINE_FILE, "timeline",
                "a timeline document")

#: Default cap on retained rows (oldest dropped first, counted in header).
MAX_EPOCH_ROWS = 65536

#: Fixed column order of each row's ``"r"`` vector.  Append-only; any
#: reordering is a schema bump.
ROW_COLUMNS = ("epoch", "sim_ps", "wall_s", "events", "work_cycles",
               "wait_cycles", "comm_cycles", "events_per_sec", "ring_fill")

#: Epoch wait fraction above which the CLI overlays a stall marker.
STALL_FRACTION = 0.5

#: Ring occupancy at/above which the CLI overlays a backpressure marker.
BACKPRESSURE_FILL = 0.9


@dataclass
class EpochRow:
    """One component's deltas over one sampling epoch."""

    comp: str
    epoch: int
    sim_ps: int            # commit horizon at the sample point
    wall_s: float          # wall seconds since the run started
    events: int            # events executed this epoch
    work_cycles: float     # modeled work cycles this epoch
    wait_cycles: float     # sync-wait cycles this epoch (summed over ends)
    comm_cycles: float     # tx+rx cycles this epoch (summed over ends)
    events_per_sec: float  # instantaneous rate over the epoch
    ring_fill: Optional[float] = None  # mp only: max input-ring occupancy
    #: per-peer (messages, syncs) sent this epoch
    edges: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: selected registry counter deltas (``batch.*`` / ``fluid.*`` / ...)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def accounted_cycles(self) -> float:
        """Cycles the profiler can attribute (work + wait + comm)."""
        return self.work_cycles + self.wait_cycles + self.comm_cycles

    @property
    def wait_fraction(self) -> float:
        """Share of this epoch's cycles spent blocked on synchronization."""
        total = self.accounted_cycles
        return self.wait_cycles / total if total > 0 else 0.0


# -- cumulative component state & deltas --------------------------------------

def selected_counters(comp) -> Dict[str, float]:
    """Cumulative monotonic registry counters worth tracking per epoch.

    Mirrors the ``netsim.*`` counter subset of
    :func:`repro.obs.metrics.collect_simulation` for network partitions
    (batched-drain runs/packets, fluid-tier counters, total tx packets);
    keys are the suffixes relative to ``netsim.<net>.``.  Non-network
    components contribute nothing — their progress already lives in the
    row's fixed columns.
    """
    if getattr(comp, "links", None) is None:
        return {}
    out: Dict[str, float] = {"tx_packets": float(comp.total_tx_packets())}
    bstats = comp.batch_stats()
    if bstats["runs"]:
        for key in names.BATCH_COUNTER_KEYS:
            out[f"batch.{key}"] = float(bstats[key])
    if comp.fluid is not None:
        fstats = comp.fluid.stats()
        for key in names.FLUID_COUNTER_KEYS:
            out[f"fluid.{key}"] = float(fstats[key])
    return out


def _comp_state(comp) -> dict:
    """Snapshot of one component's cumulative counters."""
    wait = comm = 0.0
    edges: Dict[str, Tuple[int, int]] = {}
    for end in comp.ends:
        c = end.counters()
        wait += c["wait_cycles"]
        comm += c["tx_cycles"] + c["rx_cycles"]
        peer = end.peer_comp_name or end.peer_name
        msgs, syncs = edges.get(peer, (0, 0))
        edges[peer] = (msgs + c["tx_msgs"], syncs + c["tx_syncs"])
    return {"events": comp.events_processed, "work": comp.work_cycles,
            "wait": wait, "comm": comm, "edges": edges,
            "ctr": selected_counters(comp)}


class EpochTracker:
    """The timeline probe: one component's counter deltas per beat."""

    name = "timeline"

    def __init__(self, comp) -> None:
        self._comp = comp
        self._prev = _comp_state(comp)

    def beat(self, commit_ps: int) -> dict:
        cur = _comp_state(self._comp)
        prev = self._prev
        self._prev = cur
        edges = {}
        for peer, (msgs, syncs) in cur["edges"].items():
            pm, ps = prev["edges"].get(peer, (0, 0))
            edges[peer] = [msgs - pm, syncs - ps]
        counters = {key: value - prev["ctr"].get(key, 0.0)
                    for key, value in cur["ctr"].items()}
        return {"ps": commit_ps,
                "ev": cur["events"] - prev["events"],
                "wk": cur["work"] - prev["work"],
                "wt": cur["wait"] - prev["wait"],
                "cm": cur["comm"] - prev["comm"],
                "edges": edges, "ctr": counters}

    def result(self) -> None:
        """Nothing beyond the beats: the forced final beat closes the run."""


class TimelineCollector(Collector):
    """Assembles the probes' beat payloads into epoch rows."""

    name = "timeline"
    probe = EpochTracker

    def __init__(self, path: Optional[str] = None,
                 max_rows: int = MAX_EPOCH_ROWS,
                 meta: Optional[dict] = None) -> None:
        super().__init__(path, meta)
        #: bounded: the oldest rows are dropped first
        self.rows: Deque[EpochRow] = deque(maxlen=max_rows)
        self._epochs: Dict[str, int] = {}

    @property
    def dropped(self) -> int:
        """Rows pushed out of the bounded store (counted in the header)."""
        return sum(self._epochs.values()) - len(self.rows)

    def note(self, comp: str, beat, payload: dict) -> None:
        """One beat of one component becomes its next epoch's row."""
        epoch = self._epochs.get(comp, 0)
        self._epochs[comp] = epoch + 1
        self.rows.append(EpochRow(
            comp=comp, epoch=epoch, sim_ps=payload["ps"],
            wall_s=beat.wall_s, events=payload["ev"],
            work_cycles=payload["wk"], wait_cycles=payload["wt"],
            comm_cycles=payload["cm"], events_per_sec=beat.events_per_sec,
            ring_fill=beat.ring_fill,
            edges={p: (d[0], d[1]) for p, d in payload["edges"].items()},
            counters=dict(payload["ctr"])))

    def write(self, path: str) -> dict:
        """Persist as columnar JSONL (see :func:`save_timeline`)."""
        return save_timeline(path, list(self.rows), mode=self.mode,
                             until_ps=self.until_ps,
                             components=self.components,
                             meta=self.meta, dropped=self.dropped)


# -- persistence --------------------------------------------------------------

def save_timeline(path: str, rows: List[EpochRow], *, mode: str,
                  until_ps: int, components: Optional[List[str]] = None,
                  meta: Optional[dict] = None, dropped: int = 0) -> dict:
    """Write the columnar JSONL document; returns the header.

    One header line, then one object per row.

    The header indexes component and edge names so rows stay compact:
    ``{"c": comp_index, "r": [<ROW_COLUMNS values>], "e": {edge_index:
    [d_msgs, d_syncs]}, "k": {counter: delta}}`` with ``"e"``/``"k"``
    omitted when empty.
    """
    comps = list(components) if components is not None else \
        sorted({r.comp for r in rows})
    comp_index = {c: i for i, c in enumerate(comps)}
    edge_pairs = sorted({(r.comp, peer) for r in rows for peer in r.edges})
    edge_index = {pair: i for i, pair in enumerate(edge_pairs)}
    header = {"schema": TIMELINE_SCHEMA, "kind": TIMELINE_KIND,
              "mode": mode, "until_ps": until_ps,
              "columns": list(ROW_COLUMNS), "components": comps,
              "edges": [list(pair) for pair in edge_pairs],
              "dropped": dropped, "meta": dict(meta or {})}

    def docs():
        for row in rows:
            doc: Dict[str, Any] = {
                "c": comp_index[row.comp],
                "r": [row.epoch, row.sim_ps, round(row.wall_s, 6),
                      row.events, row.work_cycles, row.wait_cycles,
                      row.comm_cycles, round(row.events_per_sec, 3),
                      row.ring_fill],
            }
            edges = {str(edge_index[(row.comp, peer)]): [msgs, syncs]
                     for peer, (msgs, syncs) in sorted(row.edges.items())}
            if edges:
                doc["e"] = edges
            if row.counters:
                doc["k"] = {k: v for k, v in sorted(row.counters.items())}
            yield doc

    _DOC.write(path, header, docs())
    return header


def detect_phases(activity: List[float]) -> Tuple[int, int]:
    """Split an activity series into warmup / steady / drain segments.

    Returns ``(steady_start, steady_end)`` indices (half-open).  Steady is
    the span between the first and last epoch whose activity exceeds half
    the series median; everything before is warmup, everything after is
    drain.  Short series (< 4 epochs) or all-idle series are all steady —
    there is nothing to segment.
    """
    n = len(activity)
    if n < 4:
        return 0, n
    ordered = sorted(activity)
    median = ordered[n // 2]
    threshold = 0.5 * median
    active = [i for i, v in enumerate(activity) if v > threshold]
    if not active:
        return 0, n
    return active[0], active[-1] + 1


class Timeline:
    """A loaded timeline document: rows plus phase-aware accessors."""

    def __init__(self, header: dict, rows: List[EpochRow]) -> None:
        self.header = header
        self.rows = rows
        self._by_comp: Optional[Dict[str, List[EpochRow]]] = None

    @property
    def mode(self) -> str:
        return self.header.get("mode", "strict")

    @property
    def until_ps(self) -> int:
        return self.header.get("until_ps", 0)

    @property
    def components(self) -> List[str]:
        return list(self.header.get("components", []))

    @property
    def meta(self) -> dict:
        return self.header.get("meta", {})

    def by_component(self) -> Dict[str, List[EpochRow]]:
        """Rows grouped per component, ordered by epoch."""
        if self._by_comp is None:
            grouped: Dict[str, List[EpochRow]] = {c: [] for c in
                                                  self.components}
            for row in self.rows:
                grouped.setdefault(row.comp, []).append(row)
            for rows in grouped.values():
                rows.sort(key=lambda r: r.epoch)
            self._by_comp = grouped
        return self._by_comp

    def phases(self) -> Dict[str, Dict[str, int]]:
        """Per-component warmup/steady/drain epoch counts."""
        out = {}
        for comp, rows in self.by_component().items():
            lo, hi = detect_phases([r.work_cycles for r in rows])
            out[comp] = {"warmup": lo, "steady": hi - lo,
                         "drain": len(rows) - hi}
        return out

    def steady_rows(self, comp: str) -> List[EpochRow]:
        """This component's steady-phase rows (phase-aware fit input)."""
        rows = self.by_component().get(comp, [])
        lo, hi = detect_phases([r.work_cycles for r in rows])
        return rows[lo:hi]


def _parse_row(header: dict, doc: dict) -> EpochRow:
    r = doc["r"]
    row_edges = {}
    for idx, (msgs, syncs) in (doc.get("e") or {}).items():
        _, peer = header["edges"][int(idx)]
        row_edges[peer] = (msgs, syncs)
    return EpochRow(
        comp=header["components"][doc["c"]], epoch=r[0], sim_ps=r[1],
        wall_s=r[2], events=r[3], work_cycles=r[4], wait_cycles=r[5],
        comm_cycles=r[6], events_per_sec=r[7], ring_fill=r[8],
        edges=row_edges, counters=doc.get("k") or {})


def load_timeline(path: str) -> Timeline:
    """Load and validate a ``timeline.jsonl`` document.

    Raises :class:`ValueError` on a malformed or wrong-kind document and
    propagates :class:`OSError` for unreadable paths.
    """
    return Timeline(*_DOC.read(path, _parse_row))


def resolve_timeline_path(path: str) -> str:
    """Map a run directory to its ``timeline.jsonl`` (files pass through)."""
    return _DOC.resolve(path)
