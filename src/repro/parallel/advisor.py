"""Profiler-driven partition advisor: close the measure→place loop.

The paper's profiler identifies the bottleneck simulator; this module feeds
that measurement back into the decomposition.  From an epoch-resolved
timeline (:mod:`repro.obs.timeline`) it fits the per-epoch parameters of
the host-cycle cost model (:mod:`repro.parallel.costmodel`) — work cycles
per component, message/sync volume per directed channel edge — using only
the *steady* phase of the run (warmup and drain epochs would bias the
rates), then searches for a component→process assignment that minimizes
the predicted epoch makespan:

    makespan(assignment) = max over processes of
        sum(work of its components)
      + sum over cut edges touching it of
            msgs x msg_cycles + syncs x sync_cycles

charged to both endpoint processes, mirroring
:class:`~repro.parallel.model.ParallelExecutionModel`'s per-window
accounting.  The search is greedy agglomerative: start from the finest
assignment (one process per component) and repeatedly merge the pair of
connected processes whose merge shrinks the makespan most, until no
merge helps.  Co-locating chatty or sync-only components converts their
channel traffic into free in-process delivery, exactly the trade the
Fig. 9 partition strategies hand-tune.  The *naive* baseline the plan's
speedup is measured against is Fig. 9's ``s`` strategy — everything in
one process, i.e. no decomposition at all.

The resulting :class:`PartitionPlan` serializes to ``partition.json``;
``splitsim-inspect recommend`` renders it, and
``Instantiation(network_partition=partition_from_file(path))`` /
``splitsim-run --partition-file`` apply its switch-level assignment to the
next run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.timeline import Timeline
from ..profiler.postprocess import analyze
from .costmodel import CommCosts, Machine, PAPER_MACHINE

#: Schema version of ``partition.json``
#: (re-exported from the central registry in :mod:`repro.obs.schema`).
from ..obs.schema import PARTITION_SCHEMA

#: The document's ``kind`` marker.
PARTITION_KIND = "splitsim-partition"


@dataclass
class FittedCosts:
    """Steady-phase per-epoch cost-model parameters fitted from a timeline."""

    #: components in timeline order (the tie-break order for rankings)
    components: List[str]
    work: Dict[str, float]      # work cycles / epoch
    events: Dict[str, float]    # events / epoch
    #: directed edge -> (messages, syncs) per epoch
    edges: Dict[Tuple[str, str], Tuple[float, float]]
    #: per-component warmup/steady/drain epoch counts
    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)


def fit_costs(timeline: Timeline) -> FittedCosts:
    """Fit steady-phase per-epoch rates from a measured timeline."""
    by_comp = timeline.by_component()
    components = [c for c in timeline.components if by_comp.get(c)] or \
        sorted(by_comp)
    work: Dict[str, float] = {}
    events: Dict[str, float] = {}
    edges: Dict[Tuple[str, str], Tuple[float, float]] = {}
    phases = timeline.phases()
    for comp in components:
        steady = timeline.steady_rows(comp)
        n = max(1, len(steady))
        work[comp] = sum(r.work_cycles for r in steady) / n
        events[comp] = sum(r.events for r in steady) / n
        acc: Dict[str, Tuple[float, float]] = {}
        for row in steady:
            for peer, (msgs, syncs) in row.edges.items():
                m, s = acc.get(peer, (0.0, 0.0))
                acc[peer] = (m + msgs, s + syncs)
        for peer, (m, s) in acc.items():
            edges[(comp, peer)] = (m / n, s / n)
    return FittedCosts(components=components, work=work, events=events,
                       edges=edges,
                       phases={c: phases.get(c, {}) for c in components})


def predict_epoch_cycles(costs: FittedCosts, assignment: Dict[str, str],
                         comm: Optional[CommCosts] = None
                         ) -> Tuple[float, Dict[str, float]]:
    """Predicted per-epoch makespan of an assignment (cycles, per-process).

    Each process pays its components' work plus, for every channel edge
    cut by the assignment, the per-message and per-sync costs of the
    communication discipline — charged to *both* endpoint processes
    (sender enqueues, receiver dequeues), as in the virtual-time model.
    Intra-process edges are free.
    """
    if comm is None:
        comm = CommCosts.for_discipline("splitsim")
    missing = [c for c in costs.components if c not in assignment]
    if missing:
        raise ValueError(f"assignment misses components: {missing[:5]}")
    per_proc: Dict[str, float] = {}
    for comp in costs.components:
        group = assignment[comp]
        per_proc[group] = per_proc.get(group, 0.0) + costs.work[comp]
    for (a, b), (msgs, syncs) in costs.edges.items():
        ga, gb = assignment.get(a), assignment.get(b)
        if ga is None or gb is None or ga == gb:
            continue
        cut = msgs * comm.msg_cycles + syncs * comm.sync_cycles
        per_proc[ga] += cut
        per_proc[gb] += cut
    makespan = max(per_proc.values(), default=0.0)
    return makespan, per_proc


@dataclass
class PartitionPlan:
    """A recommended component→process assignment with its prediction."""

    assignment: Dict[str, str]
    n_procs: int
    naive_assignment: Dict[str, str]
    naive_cycles: float
    predicted_cycles: float
    per_process: Dict[str, float]
    bottleneck: str
    ranking: List[str]
    phases: Dict[str, Dict[str, int]]
    discipline: str = "splitsim"
    machine: Machine = PAPER_MACHINE
    switch_assignment: Optional[Dict[str, str]] = None

    @property
    def speedup(self) -> float:
        """Predicted makespan ratio naive (single-process) over
        recommended; >= 1.0 (the search falls back to naive when
        decomposition never pays off)."""
        if self.predicted_cycles <= 0:
            return 1.0
        return self.naive_cycles / self.predicted_cycles

    def to_dict(self) -> dict:
        return {
            "schema": PARTITION_SCHEMA,
            "kind": PARTITION_KIND,
            "discipline": self.discipline,
            "machine": {"cores": self.machine.cores,
                        "ghz": self.machine.ghz},
            "assignment": dict(self.assignment),
            "n_procs": self.n_procs,
            "naive": {"assignment": dict(self.naive_assignment),
                      "n_procs": len(set(self.naive_assignment.values())),
                      "epoch_cycles": self.naive_cycles},
            "predicted": {"epoch_cycles": self.predicted_cycles,
                          "speedup": self.speedup,
                          "per_process": dict(self.per_process)},
            "bottleneck": self.bottleneck,
            "ranking": list(self.ranking),
            "phases": self.phases,
            "switch_assignment": self.switch_assignment,
        }


def _merge_candidates(costs: FittedCosts,
                      assignment: Dict[str, str]) -> List[Tuple[str, str]]:
    """Distinct connected process pairs under the current assignment."""
    pairs = set()
    for (a, b) in costs.edges:
        ga, gb = assignment.get(a), assignment.get(b)
        if ga is None or gb is None or ga == gb:
            continue
        pairs.add((min(ga, gb), max(ga, gb)))
    return sorted(pairs)


def _switch_assignment(assignment: Dict[str, str],
                       net_switches: Dict[str, List[str]]
                       ) -> Optional[Dict[str, str]]:
    """Switch-level view of a plan, when the timeline recorded which
    switches each network partition carries.  Labels strip the ``net.``
    component prefix so they drop straight into
    ``Instantiation.network_partition``."""
    out: Dict[str, str] = {}
    for comp, switches in net_switches.items():
        group = assignment.get(comp)
        if group is None:
            return None
        label = group[4:] if group.startswith("net.") else group
        for sw in switches:
            out[sw] = label
    return out or None


def recommend_partition(timeline: Timeline, discipline: str = "splitsim",
                        machine: Machine = PAPER_MACHINE,
                        min_procs: int = 1) -> PartitionPlan:
    """Greedy agglomerative search for a better process assignment.

    Starts from the finest assignment (one process per component); each
    step applies the connected-process merge with the largest makespan
    reduction; stops when no merge improves (or ``min_procs`` would be
    violated).  Greedy is exact enough here: merge gains are dominated by
    the cut cost of the merged pair, which the makespan objective exposes
    directly.  The reported speedup compares against the *naive*
    single-process assignment (Fig. 9's ``s`` strategy).
    """
    costs = fit_costs(timeline)
    if not costs.components:
        raise ValueError("timeline has no component rows to fit")
    naive = {c: "all" for c in costs.components}
    comm = CommCosts.for_discipline(discipline)
    naive_cycles, _ = predict_epoch_cycles(costs, naive, comm)
    assignment = {c: c for c in costs.components}
    current, _ = predict_epoch_cycles(costs, assignment, comm)
    per_proc = None
    while len(set(assignment.values())) > max(1, min_procs):
        best: Optional[Tuple[float, str, str]] = None
        for ga, gb in _merge_candidates(costs, assignment):
            trial = {c: (ga if g == gb else g)
                     for c, g in assignment.items()}
            cycles, _ = predict_epoch_cycles(costs, trial, comm)
            if cycles < current and (best is None or cycles < best[0]):
                best = (cycles, ga, gb)
        if best is None:
            break
        current, ga, gb = best
        for c, g in assignment.items():
            if g == gb:
                assignment[c] = ga
    if current >= naive_cycles:
        # Decomposition never pays off for this workload (comm overhead
        # above the parallelism gain): recommend the naive assignment.
        # Ties go to naive too — fewer processes at the same cost.
        assignment = dict(naive)
    predicted_cycles, per_proc = predict_epoch_cycles(costs, assignment,
                                                      comm)
    # least-waiting first (the bottleneck leads): the profiler's analysis
    # of the same steady rows, so the ranking is the WTPG's
    steady = [row for comp in costs.components
              for row in timeline.steady_rows(comp)]
    ranking = analyze(steady).bottlenecks(len(costs.components))
    net_switches = (timeline.meta or {}).get("net_switches") or {}
    return PartitionPlan(
        assignment=assignment,
        n_procs=len(set(assignment.values())),
        naive_assignment=naive, naive_cycles=naive_cycles,
        predicted_cycles=predicted_cycles, per_process=per_proc,
        bottleneck=ranking[0], ranking=ranking, phases=costs.phases,
        discipline=discipline, machine=machine,
        switch_assignment=_switch_assignment(assignment, net_switches))


# -- persistence --------------------------------------------------------------

def write_partition(path: str, plan: PartitionPlan) -> dict:
    """Write ``partition.json``; returns the document."""
    doc = plan.to_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def load_partition(path: str) -> dict:
    """Load and validate a ``partition.json`` document.

    Raises :class:`ValueError` when malformed; :class:`OSError` when
    unreadable.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: bad partition document: "
                             f"{exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != PARTITION_KIND:
        raise ValueError(f"{path}: not a partition document "
                         f"(kind={doc.get('kind') if isinstance(doc, dict) else None!r})")
    if doc.get("schema") != PARTITION_SCHEMA:
        raise ValueError(f"{path}: partition schema "
                         f"{doc.get('schema')!r} != {PARTITION_SCHEMA}")
    if not isinstance(doc.get("assignment"), dict):
        raise ValueError(f"{path}: partition document has no assignment")
    return doc
