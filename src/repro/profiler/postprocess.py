"""Profiler post-processing: from epoch rows to metrics.

Mirrors the paper's §3.3.2.  The profiler's record is the epoch-timeline
row (:class:`~repro.obs.timeline.EpochRow`): one component's counter
deltas over one sampling epoch.  The post-processor sums a window of each
component's epochs (optionally dropping warm-up / cool-down epochs),
yielding:

* **simulation speed** — simulated seconds advanced per wall-clock second
  (identical across components since they are synchronized);
* per-component **efficiency** — fraction of host cycles spent on actual
  simulation work rather than waiting/sending/receiving in the adapters;
* per-edge **wait fractions** — the "who waits for whom" data that the
  wait-time profile graph (:mod:`repro.profiler.wtpg`) visualizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..kernel.simtime import SEC
from ..obs.timeline import EpochRow, wait_fraction


@dataclass
class ComponentMetrics:
    """Aggregated per-component view."""

    comp: str
    work_cycles: float = 0.0
    wait_cycles: float = 0.0
    comm_cycles: float = 0.0

    @property
    def accounted_cycles(self) -> float:
        """Every cycle the profiler can attribute (work + wait + comm)."""
        return self.work_cycles + self.wait_cycles + self.comm_cycles

    @property
    def efficiency(self) -> float:
        """Fraction of cycles not spent in adapter receive/transmit/sync."""
        total = self.accounted_cycles
        if total <= 0:
            return 1.0
        return self.work_cycles / total

    @property
    def wait_fraction(self) -> float:
        """Share of cycles spent blocked on synchronization."""
        return wait_fraction(self.work_cycles, self.wait_cycles,
                             self.comm_cycles)


@dataclass
class ProfileAnalysis:
    """Complete post-processed profile of one run."""

    sim_speed: float  # simulated seconds per wall second
    wall_seconds: float
    sim_seconds: float
    components: Dict[str, ComponentMetrics]
    #: (comp, peer) -> fraction of comp's cycles spent waiting on peer
    edge_wait_fraction: Dict[Tuple[str, str], float]

    def bottlenecks(self, top: int = 3) -> List[str]:
        """Components with the lowest wait fraction (i.e. the bottlenecks)."""
        ranked = sorted(self.components.values(), key=lambda c: c.wait_fraction)
        return [c.comp for c in ranked[:top]]

    def summary(self) -> str:
        """Human-readable overview of the whole analysis."""
        lines = [f"sim speed: {self.sim_speed:.4e} sim-s/wall-s "
                 f"({self.wall_seconds:.2f}s wall for {self.sim_seconds:.4f}s sim)"]
        for name in sorted(self.components):
            cm = self.components[name]
            lines.append(
                f"  {name}: efficiency={cm.efficiency:.2f} "
                f"wait={cm.wait_fraction:.2f} comm_cycles={cm.comm_cycles:.3g}"
            )
        return "\n".join(lines)


def analyze(rows: Iterable[EpochRow], drop_head: int = 0,
            drop_tail: int = 0) -> ProfileAnalysis:
    """Post-process epoch rows into metrics.

    Each component's rows, in epoch order, are summed over the epochs
    ``[drop_head, n - drop_tail)`` (all of them when that window is
    empty), as in the paper's dropping of warm-up and cool-down samples.
    Every component with rows is a WTPG node; its edges are its rows'
    per-peer waits.  Components keep the order of their first row, which
    breaks ties in :meth:`ProfileAnalysis.bottlenecks`.  A negative
    ``drop_head`` or ``drop_tail`` raises :class:`ValueError`.
    """
    if drop_head < 0 or drop_tail < 0:
        raise ValueError(f"epochs to drop must not be negative "
                         f"(drop_head={drop_head}, drop_tail={drop_tail})")
    by_comp: Dict[str, List[EpochRow]] = {}
    for row in rows:
        by_comp.setdefault(row.comp, []).append(row)

    comps: Dict[str, ComponentMetrics] = {}
    edge_wait: Dict[Tuple[str, str], float] = {}
    wall_s = 0.0
    sim_ps = 0
    for comp, series in by_comp.items():
        lo, hi = drop_head, len(series) - drop_tail
        if hi <= lo:
            lo, hi = 0, len(series)
        window = series[lo:hi]
        cm = comps[comp] = ComponentMetrics(
            comp, work_cycles=sum(r.work_cycles for r in window),
            wait_cycles=sum(r.wait_cycles for r in window),
            comm_cycles=sum(r.comm_cycles for r in window))
        waits: Dict[str, float] = {}
        for row in window:
            for peer, wait in row.edge_wait.items():
                waits[peer] = waits.get(peer, 0) + wait
        total = cm.accounted_cycles
        if total > 0:
            for peer, wait in waits.items():
                if peer:
                    edge_wait[(comp, peer)] = wait / total
        # rows carry wall and simulated time since the run started
        start, last = (series[lo - 1] if lo else None), window[-1]
        wall_s = max(wall_s, last.wall_s - (start.wall_s if start else 0.0))
        sim_ps = max(sim_ps, last.sim_ps - (start.sim_ps if start else 0))

    sim_seconds = sim_ps / SEC
    speed = sim_seconds / wall_s if wall_s > 0 else float("inf")
    return ProfileAnalysis(
        sim_speed=speed,
        wall_seconds=wall_s,
        sim_seconds=sim_seconds,
        components=comps,
        edge_wait_fraction=edge_wait,
    )
