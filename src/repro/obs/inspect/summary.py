"""``splitsim-inspect RUN``: summarize a run's trace and epoch timeline.

Works on the structured trace of a run directory (``splitsim-run --trace``
in process or ``--control``, ``Instantiation(trace=True)``).  From the
trace it reports:

* **top spans** — where simulated/wall time went (kernel drains, link busy
  periods, waits), ranked by total duration;
* **fidelity tiers** — batched-drain runs and fluid-tier counters.

The wait analysis reads the epoch timeline in the trace's run directory
(``splitsim-run --timeline`` / ``--profile``), the profiler's one
counter record:

* **stall timeline** — when each simulator was blocked on synchronization
  (epochs above :data:`~repro.obs.timeline.STALL_FRACTION` wait, plus the
  multiprocess children's ``wait|`` spans);
* **per-edge wait histogram** — distribution of per-epoch wait increments
  per channel direction (exponential buckets);
* **WTPG** — the profiler's ``analyze`` over every epoch, the same
  analysis as ``splitsim-inspect profile RUN --drop-head 0``.

Without a timeline those sections print the loader's hint instead.
``splitsim-inspect profile RUN`` (:func:`profile_main`) prints the same
WTPG section after the profiler's speed and efficiency over a window of
epochs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Tuple

from ...profiler.postprocess import ProfileAnalysis, analyze
from ...profiler.wtpg import build_wtpg, save_dot, to_text
from .. import rundir
from ..metrics import Histogram
from ..timeline import STALL_FRACTION, EpochRow
from .render import count, intensity_bar, write_json
from .timeline import timeline_warnings


def top_spans(events: List[dict], top: int = 10) -> List[dict]:
    """Spans grouped by base name, ranked by total duration."""
    agg: Dict[str, dict] = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        key = f"{ev.get('cat', '')}/{ev['name'].split('|', 1)[0]}"
        entry = agg.setdefault(key, {"name": key, "count": 0,
                                     "total_us": 0.0, "max_us": 0.0})
        dur = ev.get("dur", 0.0)
        entry["count"] += 1
        entry["total_us"] += dur
        entry["max_us"] = max(entry["max_us"], dur)
    return sorted(agg.values(), key=lambda e: -e["total_us"])[:top]


def stall_points(events: List[dict],
                 rows: List[EpochRow]) -> List[Tuple[str, float]]:
    """(component, wall us) stall observations: epochs spent mostly
    waiting, at their end, and the trace's ``wait|`` spans."""
    points = [(row.comp, row.wall_s * 1e6) for row in rows
              if row.wait_fraction > STALL_FRACTION]
    for ev in events:
        name = ev.get("name", "")
        if ev.get("ph") == "X" and name.startswith("wait|"):
            points.append((name.split("|")[1], ev["ts"]))
    return points


def stall_timeline(events: List[dict], rows: List[EpochRow],
                   buckets: int = 48) -> str:
    """Per-component text timeline of synchronization stalls."""
    points = stall_points(events, rows)
    if not points:
        return "  (no stalls recorded)"
    t_lo = min(ts for _, ts in points)
    t_hi = max(ts for _, ts in points)
    width = max(t_hi - t_lo, 1e-9)
    per_comp: Dict[str, List[int]] = {}
    for comp, ts in points:
        row = per_comp.setdefault(comp, [0] * buckets)
        row[min(buckets - 1, int((ts - t_lo) / width * buckets))] += 1
    peak = max(max(row) for row in per_comp.values())
    lines = [f"  {comp:<24} |{intensity_bar(per_comp[comp], peak)}|"
             for comp in sorted(per_comp)]
    lines.append(f"  {'':<24}  {t_lo:.1f}us .. {t_hi:.1f}us "
                 f"(peak {peak} stalls/bucket)")
    return "\n".join(lines)


def edge_wait_histograms(rows: List[EpochRow]) -> Dict[str, Histogram]:
    """Per channel-direction histograms of per-epoch wait-cycle increments,
    over the rows the WTPG is built from."""
    out: Dict[str, Histogram] = {}
    for row in rows:
        for peer, wait in row.edge_wait.items():
            edge = f"{row.comp} -> {peer}"
            hist = out.setdefault(edge, Histogram(edge, start=1.0,
                                                  factor=4.0, buckets=16))
            if wait > 0:
                hist.observe(wait)
    return out


def fidelity_summary(events: List[dict]) -> Dict[str, Any]:
    """Aggregate fidelity-tier activity recorded in a trace.

    Batched link drains leave ``busy|<label>`` spans carrying a ``pkts``
    argument (one span per busy period); the fluid tier samples a
    ``fluid|<net>`` counter track from its rate-update loop.  Returns
    ``{"batch": {...}, "fluid": {net: last_sample}}`` with empty members
    when the corresponding tier never ran.
    """
    runs = [(ev.get("args") or {}).get("pkts") for ev in events
            if ev.get("ph") == "X" and ev.get("name", "").startswith("busy|")]
    runs = [pkts for pkts in runs if pkts is not None]
    batch = {"runs": len(runs), "packets": sum(runs),
             "max_run": max(runs)} if runs else {}
    # samples are cumulative; the latest per network wins
    fluid = {ev["name"].split("|", 1)[1]: ev.get("args") or {}
             for ev in events
             if ev.get("ph") == "C" and ev.get("name", "").startswith("fluid|")}
    return {"batch": batch, "fluid": fluid}


def _wtpg_section(analysis: ProfileAnalysis, dot: Optional[str],
                  top: Optional[int] = None,
                  label: str = "bottleneck ranking") -> dict:
    """Print the WTPG and the ``top`` bottlenecks (all by default) under
    ``label`` (and write ``dot``); returns the summary's ``bottlenecks``
    and ``edges``."""
    if not analysis.components:
        print("\n(no epoch rows recorded)")
        return {}
    graph = build_wtpg(analysis)
    print()
    print(to_text(graph, title="wait-time profile"))
    ranking = analysis.bottlenecks(top or len(analysis.components))
    print(f"\n{label}:", ", ".join(ranking))
    if dot:
        save_dot(graph, dot, title="SplitSim WTPG")
        print(f"wrote {dot}")
    return {"bottlenecks": ranking,
            "edges": {f"{src}->{dst}": frac for (src, dst), frac
                      in sorted(analysis.edge_wait_fraction.items())}}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsim-inspect",
        description="Summarize a SplitSim run: top spans from its trace; "
                    "stall timeline, per-edge wait histograms and the WTPG "
                    "from its epoch timeline. "
                    "Use the 'profile' subcommand for the profiler's "
                    "analysis of a window of epochs, "
                    "'flows' for causal flow analysis, "
                    "'attach' to inspect a running simulation live, "
                    "'timeline' for the epoch-resolved metrics view, "
                    "'recommend' for the partition advisor, "
                    "'diff' to localize a divergence between two audited "
                    "runs.")
    parser.add_argument("trace", help="Chrome-trace JSON file or run dir")
    parser.add_argument("--top", type=count, default=10,
                        help="span groups to list (default 10)")
    parser.add_argument("--buckets", type=count, default=48,
                        help="stall-timeline width in buckets")
    parser.add_argument("--dot", metavar="PATH",
                        help="write the WTPG as Graphviz DOT")
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable summary as JSON")
    args = parser.parse_args(argv)
    doc = rundir.load_trace(args.trace)
    events = doc["traceEvents"]
    meta = doc.get("otherData", {})
    print(f"{args.trace}: {len(events)} events, schema "
          f"{meta.get('schema', '?')}, clocks {meta.get('clock_domains', {})}"
          f", dropped {meta.get('dropped_records', 0)}")

    spans = top_spans(events, top=args.top)
    print("\ntop spans (by total duration):")
    for entry in spans:
        print(f"  {entry['name']:<28} n={entry['count']:<8} "
              f"total={entry['total_us']:>12.1f}us "
              f"max={entry['max_us']:.1f}us")
    if not spans:
        print("  (no spans recorded)")

    fid = fidelity_summary(events)
    if fid["batch"] or fid["fluid"]:
        print("\nfidelity tiers:")
        b = fid["batch"]
        if b:
            ppr = b["packets"] / b["runs"]
            print(f"  batched drain: {b['runs']} runs, {b['packets']} pkts "
                  f"({ppr:.1f} pkts/run, longest {b['max_run']})")
        for net_name, sample in sorted(fid["fluid"].items()):
            print(f"  fluid {net_name}: {sample.get('flows', 0)} active, "
                  f"{sample.get('promoted', 0)} promoted / "
                  f"{sample.get('demoted', 0)} demoted, "
                  f"{sample.get('bytes_modeled', 0):,} bytes modeled")

    summary: dict = {"top_spans": spans, "edges": {}, "bottlenecks": [],
                     "fidelity": fid}
    try:
        rows = rundir.load_timeline(rundir.run_dir(args.trace)).rows
    except rundir.RunDirError as exc:
        print(f"\n{exc}")
    else:
        print("\nstall timeline (wall clock):")
        print(stall_timeline(events, rows, buckets=args.buckets))
        hists = edge_wait_histograms(rows)
        print("\nper-edge wait histogram (cycle increments per epoch):")
        for edge in sorted(hists):
            h = hists[edge]
            print(f"  {edge:<32} n={h.count:<6} mean={h.mean:,.0f} "
                  f"p95={h.quantile(0.95):,.0f} max={h.max:,.0f}")
        if not hists:
            print("  (no channel ends recorded)")
        summary.update(_wtpg_section(analyze(rows), args.dot))

    if args.json:
        write_json(args.json, summary)
    return 0


def print_profile(analysis: ProfileAnalysis, dot=None, top=3) -> None:
    """The report of ``splitsim-inspect profile`` and ``splitsim-run
    --profile``: speed, efficiency, WTPG and ``top`` likely bottlenecks."""
    print(analysis.summary())
    _wtpg_section(analysis, dot, top, "likely bottlenecks")


def profile_main(argv: List[str]) -> int:
    """``splitsim-inspect profile RUN``: the profiler's analysis of a
    window of each component's epochs, its WTPG and the likeliest
    bottlenecks — the paper's post-processing script."""
    parser = argparse.ArgumentParser(
        prog="splitsim-inspect profile",
        description="Post-process a SplitSim run's epoch timeline into "
                    "profiler metrics and a wait-time profile graph.")
    parser.add_argument("timeline",
                        help="timeline.jsonl file or run directory")
    parser.add_argument("--drop-head", type=int, default=1,
                        help="warm-up epochs to drop per component")
    parser.add_argument("--drop-tail", type=int, default=0,
                        help="cool-down epochs to drop per component")
    parser.add_argument("--dot", metavar="PATH",
                        help="write the WTPG as Graphviz DOT to PATH")
    parser.add_argument("--bottlenecks", type=count, default=3,
                        help="how many bottleneck candidates to list")
    args = parser.parse_args(argv)
    timeline = rundir.load_timeline(args.timeline)
    if not timeline.rows:
        print(f"{args.timeline}: no epoch rows", file=sys.stderr)
        return 1
    for warning in timeline_warnings(timeline):
        print(f"warning: {warning}")
    try:
        analysis = analyze(timeline.rows, drop_head=args.drop_head,
                           drop_tail=args.drop_tail)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_profile(analysis, args.dot, args.bottlenecks)
    return 0
