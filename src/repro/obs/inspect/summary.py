"""``splitsim-inspect RUN``: summarize a run's Chrome trace.

Works on the structured traces written by ``splitsim-run --trace`` (or the
multiprocess runner's ``trace_dir``).  It reports:

* **top spans** — where simulated/wall time went (kernel drains, link busy
  periods, waits), ranked by total duration;
* **stall timeline** — when each simulator was blocked on synchronization;
* **per-edge wait histogram** — distribution of wait increments per channel
  direction (exponential buckets);
* **WTPG** — the wait-time profile graph of the trace's ``comp|``/``chan|``
  counter tracks, fed through the profiler's ``analyze``; it equals the
  profiler's timeline view of the same run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Tuple

from ...profiler.instrument import rows_from_trace
from ...profiler.postprocess import ProfileAnalysis, analyze
from ...profiler.wtpg import build_wtpg, save_dot, to_text
from .. import rundir
from ..metrics import Histogram
from .render import intensity_bar, write_json


def analysis_from_trace(doc: dict) -> ProfileAnalysis:
    """The profiler's analysis of a trace's ``comp|``/``chan|`` counter
    tracks — :func:`~repro.profiler.postprocess.analyze` over
    :func:`~repro.profiler.instrument.rows_from_trace`, so wait fractions
    and the bottleneck ranking equal the timeline's on the same run."""
    return analyze(rows_from_trace(doc))


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


def stall_points(events: List[dict]) -> List[Tuple[str, float]]:
    """(component, ts_us) stall observations from instants and wait spans."""
    points: List[Tuple[str, float]] = []
    for ev in events:
        name = ev.get("name", "")
        if ev.get("ph") == "i" and name.startswith("stall|"):
            points.append((name.split("|", 1)[1], ev["ts"]))
        elif ev.get("ph") == "X" and name.startswith("wait|"):
            points.append((name.split("|")[1], ev["ts"]))
    return points


def stall_timeline(events: List[dict], buckets: int = 48) -> str:
    """Per-component text timeline of synchronization stalls."""
    points = stall_points(events)
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


def edge_wait_histograms(doc: dict) -> Dict[str, Histogram]:
    """Per channel-direction histograms of per-epoch wait-cycle increments,
    over the rows the WTPG is built from (:func:`rows_from_trace`)."""
    out: Dict[str, Histogram] = {}
    for row in rows_from_trace(doc):
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


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsim-inspect",
        description="Summarize a SplitSim trace: top spans, stall timeline, "
                    "per-edge wait histograms, and the trace-derived WTPG. "
                    "Use the 'flows' subcommand for causal flow analysis, "
                    "'attach' to inspect a running simulation live, "
                    "'timeline' for the epoch-resolved metrics view, "
                    "'recommend' for the partition advisor, "
                    "'diff' to localize a divergence between two audited "
                    "runs.")
    parser.add_argument("trace", help="Chrome-trace JSON file or run dir")
    parser.add_argument("--top", type=int, default=10,
                        help="span groups to list (default 10)")
    parser.add_argument("--buckets", type=int, default=48,
                        help="stall-timeline width in buckets")
    parser.add_argument("--dot", metavar="PATH",
                        help="write the trace-derived WTPG as Graphviz DOT")
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

    print("\nstall timeline:")
    print(stall_timeline(events, buckets=args.buckets))

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

    hists = edge_wait_histograms(doc)
    print("\nper-edge wait histogram (cycle increments per sample):")
    for edge in sorted(hists):
        h = hists[edge]
        print(f"  {edge:<32} n={h.count:<6} mean={h.mean:,.0f} "
              f"p95={h.quantile(0.95):,.0f} max={h.max:,.0f}")
    if not hists:
        print("  (no channel tracks recorded)")

    analysis = analysis_from_trace(doc)
    summary: dict = {"top_spans": spans, "edges": {}, "bottlenecks": [],
                     "fidelity": fid}
    if analysis.components:
        graph = build_wtpg(analysis)
        print()
        print(to_text(graph, title="wait-time profile (from trace)"))
        ranking = analysis.bottlenecks(len(analysis.components))
        print("\nbottleneck ranking:", ", ".join(ranking))
        summary["bottlenecks"] = ranking
        summary["edges"] = {f"{src}->{dst}": frac for (src, dst), frac
                            in sorted(analysis.edge_wait_fraction.items())}
        if args.dot:
            save_dot(graph, args.dot, title="SplitSim WTPG (trace)")
            print(f"wrote {args.dot}")
    elif args.dot:
        print("no component tracks in trace; skipping --dot", file=sys.stderr)

    if args.json:
        write_json(args.json, summary)
    return 0
