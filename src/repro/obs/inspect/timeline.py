"""``splitsim-inspect timeline RUN`` and ``recommend RUN``.

``timeline`` renders the epoch-resolved metrics timeline (``splitsim-run
--timeline`` / ``Instantiation(timeline=True)``): per-epoch work activity
with warmup/steady/drain phase detection and a stall/backpressure overlay.
``recommend`` runs the partition advisor (:mod:`repro.parallel.advisor`)
over the same timeline and writes ``partition.json`` next to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from ...kernel.simtime import fmt_time
from ...parallel.advisor import recommend_partition, write_partition
from .. import rundir
from ..telemetry import BACKPRESSURE_FILL
from ..timeline import STALL_FRACTION
from .render import count, intensity_bar, write_json


def _sparkline(values: List[float], width: int = 48,
               marks: Optional[Dict[int, str]] = None) -> str:
    """Bucket a non-empty series into at most ``width`` intensity glyphs
    (each bucket shows its maximum).

    ``marks`` overlays single characters at specific bucket indices
    (stall/backpressure flags win over intensity glyphs).
    """
    n = len(values)
    width = min(width, n) or 1
    buckets = [max(values[i * n // width:
                          max(i * n // width + 1, (i + 1) * n // width)])
               for i in range(width)]
    bar = list(intensity_bar(buckets, max(buckets)))
    for idx, mark in (marks or {}).items():
        bar[min(width - 1, idx * width // n)] = mark
    return "".join(bar)


def timeline_warnings(tl) -> List[str]:
    """Data-quality warnings for a loaded timeline (currently: drops)."""
    dropped = tl.header.get("dropped", 0)
    if not dropped:
        return []
    total = len(tl.rows) + dropped
    return [f"{dropped} of {total} epoch rows dropped at the recorder's "
            f"bound ({dropped / total:.0%}) — oldest epochs are missing; "
            "raise max_rows or interval_rounds to keep the full run"]


def steady_means(tl, comp: str) -> Dict[str, float]:
    """Per-epoch means over one component's steady phase."""
    steady = tl.steady_rows(comp)
    n = max(1, len(steady))
    return {"steady_events_per_sec": sum(r.events_per_sec for r in steady) / n,
            "steady_work_cycles": sum(r.work_cycles for r in steady) / n,
            "steady_wait_fraction": sum(r.wait_fraction for r in steady) / n}


def render_timeline(tl, width: int = 48) -> str:
    """Text rendering of a loaded :class:`~repro.obs.timeline.Timeline`."""
    lines: List[str] = []
    header = tl.header
    lines.append(f"timeline: mode={tl.mode} until={fmt_time(tl.until_ps)} "
                 f"components={len(tl.components)} rows={len(tl.rows)}"
                 + (f" dropped={header.get('dropped')}"
                    if header.get("dropped") else ""))
    for warning in timeline_warnings(tl):
        lines.append(f"  warning: {warning}")
    phases = tl.phases()
    by_comp = tl.by_component()
    name_w = max((len(c) for c in tl.components), default=0)
    lines.append(f"  {'':<{name_w}}  work activity per epoch "
                 f"('!'=stalled >{STALL_FRACTION:.0%} wait, "
                 f"'^'=ring >= {BACKPRESSURE_FILL:.0%})")
    for comp in tl.components:
        rows = by_comp.get(comp, [])
        if not rows:
            lines.append(f"  {comp:<{name_w}}  (no rows)")
            continue
        marks: Dict[int, str] = {}
        for i, row in enumerate(rows):
            if row.ring_fill is not None and \
                    row.ring_fill >= BACKPRESSURE_FILL:
                marks[i] = "^"
            elif row.wait_fraction > STALL_FRACTION:
                marks[i] = "!"
        bar = _sparkline([r.work_cycles for r in rows], width, marks)
        ph = phases[comp]
        means = steady_means(tl, comp)
        lines.append(
            f"  {comp:<{name_w}} |{bar}| "
            f"w{ph['warmup']}/s{ph['steady']}/d{ph['drain']} "
            f"{means['steady_events_per_sec']:>10,.0f} ev/s "
            f"{means['steady_wait_fraction']:>5.1%} wait")
    return "\n".join(lines)


def _timeline_to_dict(tl) -> dict:
    """Machine-readable timeline summary (per-component steady rates)."""
    by_comp = tl.by_component()
    return {"mode": tl.mode, "until_ps": tl.until_ps,
            "rows": len(tl.rows), "dropped": tl.header.get("dropped", 0),
            "warnings": timeline_warnings(tl), "phases": tl.phases(),
            "components": {comp: {"epochs": len(by_comp.get(comp, [])),
                                  **steady_means(tl, comp)}
                           for comp in tl.components}}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsim-inspect timeline",
        description="Per-epoch view of a recorded metrics timeline: work "
                    "activity, phase detection, stall/backpressure "
                    "overlay.")
    parser.add_argument("timeline",
                        help="timeline.jsonl file or run directory")
    parser.add_argument("--width", type=count, default=48,
                        help="activity bar width in buckets (default 48)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable summary as JSON")
    args = parser.parse_args(argv)
    tl = rundir.load_timeline(args.timeline)
    print(render_timeline(tl, width=args.width))
    if args.json:
        write_json(args.json, _timeline_to_dict(tl))
    return 0


def render_plan(plan) -> str:
    """Human table for a :class:`~repro.parallel.advisor.PartitionPlan`."""
    lines: List[str] = []
    lines.append(f"recommended partition: {plan.n_procs} processes, "
                 f"predicted {plan.speedup:.2f}x over naive single-process "
                 f"({plan.naive_cycles:,.0f} -> "
                 f"{plan.predicted_cycles:,.0f} cycles/epoch)")
    groups: Dict[str, List[str]] = {}
    for comp, group in plan.assignment.items():
        groups.setdefault(group, []).append(comp)
    width = max((len(g) for g in groups), default=0)
    for group in sorted(groups):
        load = plan.per_process.get(group, 0.0)
        lines.append(f"  {group:<{width}}  {load:>14,.0f} cycles/epoch  "
                     f"{', '.join(sorted(groups[group]))}")
    lines.append(f"  bottleneck: {plan.bottleneck} "
                 f"(ranking: {', '.join(plan.ranking)})")
    if plan.switch_assignment:
        lines.append("  apply with: splitsim-run ... --partition-file "
                     "partition.json")
    return "\n".join(lines)


def recommend_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsim-inspect recommend",
        description="Fit the cost model from a recorded timeline and "
                    "recommend a component->process partition "
                    "(partition.json).")
    parser.add_argument("timeline",
                        help="timeline.jsonl file or run directory")
    parser.add_argument("--out", metavar="PATH",
                        help="partition.json destination (default: next to "
                             "the timeline)")
    parser.add_argument("--discipline", default="splitsim",
                        help="communication discipline for the cost model "
                             "(default splitsim)")
    parser.add_argument("--json", action="store_true",
                        help="print the plan as JSON instead of the table")
    args = parser.parse_args(argv)
    tl = rundir.load_timeline(args.timeline)
    try:
        plan = recommend_partition(tl, discipline=args.discipline)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out or rundir.partition_path(args.timeline)
    doc = write_partition(out, plan)
    print(json.dumps(doc, indent=2) if args.json else render_plan(plan))
    print(f"wrote {out}")
    return 0
