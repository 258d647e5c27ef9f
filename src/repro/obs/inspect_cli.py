"""``splitsim-inspect``: summarize a SplitSim trace from the command line.

Where ``splitsim-profile`` post-processes *counter logs*, this tool works on
the structured traces written by ``splitsim-run --trace`` (or the
multiprocess runner's ``trace_dir``)::

    splitsim-inspect trace.json
    splitsim-inspect trace.json --dot wtpg.dot --json summary.json
    splitsim-inspect flows trace.json --top 5
    splitsim-inspect attach rundir                 # live status view
    splitsim-inspect attach rundir --json          # one-shot status JSON
    splitsim-inspect attach rundir dump-trace stop # scripted commands
    splitsim-inspect timeline rundir               # per-epoch view
    splitsim-inspect recommend rundir              # partition advisor
    splitsim-inspect diff runA runB                # localize a divergence

The ``flows`` subcommand post-processes causal flow-hop records
(``splitsim-run --flows N`` / ``Instantiation(flow_sample=N)``) into per-flow
latency waterfalls, an aggregate attribution histogram, and the
flow-derived bottleneck (see :mod:`repro.obs.flows`).

The ``timeline`` subcommand renders the epoch-resolved metrics timeline
(``splitsim-run --timeline`` / ``Instantiation(timeline=True)``): per-epoch
work activity with warmup/steady/drain phase detection and a
stall/backpressure overlay.  ``recommend`` runs the partition advisor
(:mod:`repro.parallel.advisor`) over the same file and writes
``partition.json`` next to it.

The ``diff`` subcommand walks two audit ledgers (``splitsim-run --audit``
/ :mod:`repro.obs.audit`) to the first divergent ``(epoch, component)``
and drills into run reports, metric timelines, and traces when both runs
carry them — turning a bare digest mismatch into a localized, bisectable
artifact.

The ``attach`` subcommand connects to a *running* multiprocess
simulation's control plane (``splitsim-run --control DIR`` /
``run_mp(control_dir=...)``; see :mod:`repro.obs.live`): a refreshing
live status view by default, ``--json`` for a one-shot machine-readable
snapshot, or positional commands (``status``, ``metrics``,
``dump-trace``, ``set-flow-sample N``, ``stop``, ``ping``) for
scripting.

It reports:

* **top spans** — where simulated/wall time went (kernel drains, link busy
  periods, waits), ranked by total duration;
* **stall timeline** — when each simulator was blocked on synchronization;
* **per-edge wait histogram** — distribution of wait increments per channel
  direction (exponential buckets);
* **WTPG** — the wait-time profile graph reconstructed from trace data
  (``comp|``/``chan|`` tracks), rather than from separate counter logs.
  The bottleneck ranking matches :mod:`repro.profiler` on the same run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import os

from ..kernel.simtime import fmt_time
from ..profiler.postprocess import (AdapterMetrics, ComponentMetrics,
                                    ProfileAnalysis)
from ..profiler.wtpg import build_wtpg, save_dot, to_text
from .flows import FlowReport, analyze_doc
from .live import ControlClient, ControlError
from .metrics import Histogram
from .trace import load_trace, validate_chrome_doc


# -- trace -> profile analysis ------------------------------------------------

def _counter_series(events: List[dict], prefix: str) -> Dict[str, List[dict]]:
    """Counter samples grouped by full track name, each sorted by ts."""
    series: Dict[str, List[dict]] = {}
    for ev in events:
        if ev.get("ph") == "C" and ev.get("name", "").startswith(prefix):
            series.setdefault(ev["name"], []).append(ev)
    for samples in series.values():
        samples.sort(key=lambda e: e["ts"])
    return series


def analysis_from_trace(doc: dict) -> ProfileAnalysis:
    """Reconstruct a :class:`ProfileAnalysis` from trace counter tracks.

    Uses the cumulative ``comp|<name>`` (events, work cycles) and
    ``chan|<comp>|<end>|<peer>`` (wait/tx/rx cycles) tracks emitted by the
    strict coordinator and the multiprocess children.  Differencing last
    minus first sample mirrors :func:`repro.profiler.postprocess.analyze`,
    so wait fractions — and therefore the bottleneck ranking — agree with
    the counter-based profiler on the same run.
    """
    events = doc.get("traceEvents", [])
    comps: Dict[str, ComponentMetrics] = {}
    edge_wait: Dict[Tuple[str, str], float] = {}

    for name, samples in _counter_series(events, "comp|").items():
        comp = name.split("|", 1)[1]
        first, last = samples[0]["args"], samples[-1]["args"]
        cm = comps.setdefault(comp, ComponentMetrics(comp=comp))
        cm.work_cycles = last.get("work_cycles", 0.0) - first.get("work_cycles", 0.0)
        cm.wall_ns = (samples[-1]["ts"] - samples[0]["ts"]) * 1e3

    chan_series = _counter_series(events, "chan|")
    for name, samples in chan_series.items():
        parts = name.split("|")
        if len(parts) != 4:
            continue
        _, comp, end_name, peer = parts
        first, last = samples[0]["args"], samples[-1]["args"]

        def diff(key: str) -> float:
            return last.get(key, 0.0) - first.get(key, 0.0)

        am = AdapterMetrics(
            comp=comp, adapter=end_name, peer=peer,
            wall_ns=(samples[-1]["ts"] - samples[0]["ts"]) * 1e3,
            wait_cycles=diff("wait_cycles"),
            tx_cycles=diff("tx_cycles"), rx_cycles=diff("rx_cycles"),
            tx_msgs=int(diff("tx_msgs")), rx_msgs=int(diff("rx_msgs")),
            tx_syncs=int(diff("tx_syncs")), rx_syncs=int(diff("rx_syncs")),
        )
        cm = comps.setdefault(comp, ComponentMetrics(comp=comp))
        cm.adapters.append(am)
        cm.wait_cycles += am.wait_cycles
        cm.comm_cycles += am.comm_cycles

    for comp, cm in comps.items():
        total = cm.accounted_cycles
        for am in cm.adapters:
            if total > 0 and am.peer:
                key = (comp, am.peer)
                edge_wait[key] = edge_wait.get(key, 0.0) + am.wait_cycles / total

    wall_ns = max((cm.wall_ns for cm in comps.values()), default=0.0)
    return ProfileAnalysis(
        sim_speed=0.0, wall_seconds=wall_ns / 1e9, sim_seconds=0.0,
        components=comps, edge_wait_fraction=edge_wait)


# -- span / stall summaries ---------------------------------------------------

def top_spans(events: List[dict], top: int = 10) -> List[dict]:
    """Spans grouped by base name, ranked by total duration."""
    agg: Dict[str, dict] = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        name = ev["name"].split("|", 1)[0]
        cat = ev.get("cat", "")
        entry = agg.setdefault(f"{cat}/{name}", {
            "name": f"{cat}/{name}", "count": 0,
            "total_us": 0.0, "max_us": 0.0})
        dur = ev.get("dur", 0.0)
        entry["count"] += 1
        entry["total_us"] += dur
        if dur > entry["max_us"]:
            entry["max_us"] = dur
    ranked = sorted(agg.values(), key=lambda e: -e["total_us"])
    return ranked[:top]


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
        idx = min(buckets - 1, int((ts - t_lo) / width * buckets))
        row[idx] += 1
    peak = max(max(row) for row in per_comp.values())
    glyphs = " .:*#"
    lines = []
    for comp in sorted(per_comp):
        row = per_comp[comp]
        bar = "".join(
            glyphs[min(len(glyphs) - 1,
                       (c * (len(glyphs) - 1) + peak - 1) // peak)]
            for c in row)
        lines.append(f"  {comp:<24} |{bar}|")
    lines.append(f"  {'':<24}  {t_lo:.1f}us .. {t_hi:.1f}us "
                 f"(peak {peak} stalls/bucket)")
    return "\n".join(lines)


def edge_wait_histograms(doc: dict) -> Dict[str, Histogram]:
    """Per channel-direction histograms of wait-cycle increments."""
    events = doc.get("traceEvents", [])
    out: Dict[str, Histogram] = {}
    for name, samples in _counter_series(events, "chan|").items():
        parts = name.split("|")
        if len(parts) != 4:
            continue
        edge = f"{parts[1]} -> {parts[3]}"
        hist = out.setdefault(edge, Histogram(edge, start=1.0, factor=4.0,
                                              buckets=16))
        prev = 0.0
        for sample in samples:
            cur = sample["args"].get("wait_cycles", 0.0)
            delta = cur - prev
            prev = cur
            if delta > 0:
                hist.observe(delta)
    return out


def fidelity_summary(events: List[dict]) -> Dict[str, Any]:
    """Aggregate fidelity-tier activity recorded in a trace.

    Batched link drains leave ``busy|<label>`` spans carrying a ``pkts``
    argument (one span per busy period); the fluid tier samples a
    ``fluid|<net>`` counter track from its rate-update loop.  Returns
    ``{"batch": {...}, "fluid": {net: last_sample}}`` with empty members
    when the corresponding tier never ran.
    """
    batch = {"runs": 0, "packets": 0, "max_run": 0}
    fluid: Dict[str, dict] = {}
    for ev in events:
        name = ev.get("name", "")
        ph = ev.get("ph")
        if ph == "X" and name.startswith("busy|"):
            pkts = (ev.get("args") or {}).get("pkts")
            if pkts is None:
                continue
            batch["runs"] += 1
            batch["packets"] += pkts
            if pkts > batch["max_run"]:
                batch["max_run"] = pkts
        elif ph == "C" and name.startswith("fluid|"):
            # samples are cumulative; keep the latest per network
            fluid[name.split("|", 1)[1]] = ev.get("args") or {}
    return {"batch": batch if batch["runs"] else {}, "fluid": fluid}


# -- flow rendering -----------------------------------------------------------

def _fmt_ps(ps: int) -> str:
    """Human-readable picosecond duration."""
    if ps >= 1_000_000_000:
        return f"{ps / 1e9:.3f}ms"
    if ps >= 1_000_000:
        return f"{ps / 1e6:.3f}us"
    if ps >= 1_000:
        return f"{ps / 1e3:.1f}ns"
    return f"{ps}ps"


def render_flow_report(rep: FlowReport, top: int = 5) -> str:
    """Text rendering: summary, attribution histogram, waterfalls."""
    lines: List[str] = []
    complete = rep.complete
    lines.append(f"flows: {len(rep.flows)} traced, {len(complete)} complete "
                 "(origin..done)")
    totals = rep.breakdown_totals()
    grand = sum(totals.values()) or 1
    lines.append("\nlatency attribution (complete flows):")
    for cat, ps in sorted(totals.items(), key=lambda kv: -kv[1]):
        frac = ps / grand
        bar = "#" * max(1, int(frac * 40)) if ps else ""
        lines.append(f"  {cat:<14} {_fmt_ps(ps):>12}  {frac:>6.1%} |{bar}")
    sync = rep.sync_wait_cycles()
    if sync:
        lines.append(f"  sync-wait      {sync:,.0f} cycles "
                     "(co-attributed, wall domain)")
    comp_time = rep.component_time()
    if comp_time:
        lines.append("\nper-component time on traced flows:")
        for comp, ps in sorted(comp_time.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {comp:<24} {_fmt_ps(ps):>12}")
        lines.append(f"  bottleneck: {rep.bottleneck()}")
    slowest = rep.slowest(top)
    if slowest:
        lines.append(f"\nslowest {len(slowest)} complete flows:")
    for fl in slowest:
        first = fl.first
        lines.append(f"\n  flow {fl.flow:#x} origin={first.track} "
                     f"end-to-end={_fmt_ps(fl.end_to_end_ps)} "
                     f"({len(fl.hops)} hops)")
        t0 = first.ps
        for hop in fl.hops:
            dur = f" (+{_fmt_ps(hop.dur_ps)} {hop.category})" \
                if hop.dur_ps else ""
            at = f" @{hop.at}" if hop.at and hop.at != hop.track else ""
            lines.append(f"    {_fmt_ps(hop.ps - t0):>12} {hop.kind:<10} "
                         f"{hop.track}{at}{dur}")
    return "\n".join(lines)


def _flows_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsim-inspect flows",
        description="Per-flow latency waterfalls, attribution histogram, "
                    "and flow-derived bottleneck from causal hop records.")
    parser.add_argument("trace", help="Chrome-trace JSON file or run dir")
    parser.add_argument("--top", type=int, default=5,
                        help="slowest flows to show (default 5)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable flow report")
    args = parser.parse_args(argv)
    doc = _load_doc(args.trace)
    if doc is None:
        return 1
    rep = analyze_doc(doc)
    if not rep.flows:
        print(f"error: {args.trace} has no flow-hop records — run with "
              "flow tracing on (splitsim-run --flows N or "
              "Instantiation(flow_sample=N))",
              file=sys.stderr)
        return 1
    print(render_flow_report(rep, top=args.top))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rep.to_dict(top=args.top), fh, indent=2)
        print(f"wrote {args.json}")
    return 0


# -- epoch timeline & partition advisor --------------------------------------

def _load_timeline(path: str):
    """Resolve and load a timeline; print the failure and return None."""
    from .timeline import load_timeline, resolve_timeline_path
    resolved = resolve_timeline_path(path)
    try:
        return load_timeline(resolved)
    except OSError as exc:
        if os.path.isdir(path):
            print(f"error: {path} has no timeline.jsonl — rerun with the "
                  "timeline on (splitsim-run --timeline, "
                  "Instantiation(timeline=True), or "
                  "run_mp(timeline_path=...))", file=sys.stderr)
        else:
            print(f"error reading {resolved}: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _sparkline(values: List[float], width: int = 48,
               marks: Optional[Dict[int, str]] = None) -> str:
    """Bucket a series into a fixed-width ``.:*#`` intensity bar.

    ``marks`` overlays single characters at specific bucket indices
    (stall/backpressure flags win over intensity glyphs).
    """
    if not values:
        return " " * width
    glyphs = " .:*#"
    n = len(values)
    width = min(width, n) or 1
    buckets: List[float] = []
    for i in range(width):
        lo = i * n // width
        hi = max(lo + 1, (i + 1) * n // width)
        buckets.append(max(values[lo:hi]))
    peak = max(buckets)
    bar = [
        glyphs[min(len(glyphs) - 1,
                   int(v / peak * (len(glyphs) - 1) + 0.999)) if peak > 0
               else 0]
        for v in buckets
    ]
    for idx, mark in (marks or {}).items():
        b = min(width - 1, idx * width // n)
        bar[b] = mark
    return "".join(bar)


def timeline_warnings(tl) -> List[str]:
    """Data-quality warnings for a loaded timeline (currently: drops)."""
    dropped = tl.header.get("dropped", 0)
    if not dropped:
        return []
    kept = len(tl.rows)
    total = kept + dropped
    frac = dropped / total if total else 0.0
    return [f"{dropped} of {total} epoch rows dropped at the recorder's "
            f"bound ({frac:.0%}) — oldest epochs are missing; raise "
            "max_rows or interval_rounds to keep the full run"]


def render_timeline(tl, width: int = 48) -> str:
    """Text rendering of a loaded :class:`~repro.obs.timeline.Timeline`."""
    from .timeline import BACKPRESSURE_FILL, STALL_FRACTION
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
        steady = tl.steady_rows(comp)
        n = max(1, len(steady))
        ev_s = sum(r.events_per_sec for r in steady) / n
        wait = sum(r.wait_fraction for r in steady) / n
        lines.append(
            f"  {comp:<{name_w}} |{bar}| "
            f"w{ph['warmup']}/s{ph['steady']}/d{ph['drain']} "
            f"{ev_s:>10,.0f} ev/s {wait:>5.1%} wait")
    return "\n".join(lines)


def _timeline_to_dict(tl) -> dict:
    """Machine-readable timeline summary (per-component steady rates)."""
    out = {"mode": tl.mode, "until_ps": tl.until_ps,
           "rows": len(tl.rows), "dropped": tl.header.get("dropped", 0),
           "warnings": timeline_warnings(tl),
           "phases": tl.phases(), "components": {}}
    for comp in tl.components:
        steady = tl.steady_rows(comp)
        n = max(1, len(steady))
        out["components"][comp] = {
            "epochs": len(tl.by_component().get(comp, [])),
            "steady_events_per_sec":
                sum(r.events_per_sec for r in steady) / n,
            "steady_work_cycles": sum(r.work_cycles for r in steady) / n,
            "steady_wait_fraction":
                sum(r.wait_fraction for r in steady) / n,
        }
    return out


def _timeline_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsim-inspect timeline",
        description="Per-epoch view of a recorded metrics timeline: work "
                    "activity, phase detection, stall/backpressure "
                    "overlay.")
    parser.add_argument("timeline",
                        help="timeline.jsonl file or run directory")
    parser.add_argument("--width", type=int, default=48,
                        help="activity bar width in buckets (default 48)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable summary as JSON")
    args = parser.parse_args(argv)
    tl = _load_timeline(args.timeline)
    if tl is None:
        return 1
    print(render_timeline(tl, width=args.width))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(_timeline_to_dict(tl), fh, indent=2)
        print(f"wrote {args.json}")
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


def _recommend_main(argv: List[str]) -> int:
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
    tl = _load_timeline(args.timeline)
    if tl is None:
        return 1
    from ..parallel.advisor import (PARTITION_FILE, recommend_partition,
                                    write_partition)
    try:
        plan = recommend_partition(tl, discipline=args.discipline)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out
    if out is None:
        from .timeline import resolve_timeline_path
        out = os.path.join(
            os.path.dirname(resolve_timeline_path(args.timeline)) or ".",
            PARTITION_FILE)
    doc = write_partition(out, plan)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(render_plan(plan))
    print(f"wrote {out}")
    return 0


# -- cross-run audit diff -----------------------------------------------------

def _load_audit_cli(path: str):
    """Resolve and load an audit ledger; print the failure and return None."""
    from .audit import load_audit, resolve_audit_path
    resolved = resolve_audit_path(path)
    try:
        return load_audit(resolved)
    except OSError as exc:
        if os.path.isdir(path):
            print(f"error: {path} has no audit.jsonl — rerun with auditing "
                  "on (splitsim-run --audit, Instantiation(audit=True), or "
                  "run_mp(audit_path=...))", file=sys.stderr)
        else:
            print(f"error reading {resolved}: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _run_dir_of(path: str) -> Optional[str]:
    """The run directory a ledger path lives in (for drilldowns)."""
    d = path if os.path.isdir(path) else os.path.dirname(path) or "."
    return d if os.path.isdir(d) else None


def _drill_reports(dir_a: Optional[str], dir_b: Optional[str],
                   comp: str) -> List[str]:
    """Compare the divergent component across both run reports."""
    lines: List[str] = []
    reports = []
    for label, d in (("A", dir_a), ("B", dir_b)):
        if d is None:
            return []
        p = os.path.join(d, "run_report.json")
        if not os.path.isfile(p):
            return []
        try:
            with open(p) as fh:
                reports.append((label, json.load(fh)))
        except (OSError, json.JSONDecodeError):
            return []
    lines.append(f"run reports ({comp}):")
    for label, report in reports:
        entry = (report.get("components") or {}).get(comp)
        health = ((report.get("health") or {}).get("components")
                  or {}).get(comp)
        if entry is None:
            lines.append(f"  {label}: component missing from report")
            continue
        err = f" error={entry.get('error')}" if entry.get("error") else ""
        lines.append(f"  {label}: {entry.get('events', '?')} events, "
                     f"health={health or '?'}{err}")
    return lines


def _drill_timelines(dir_a: Optional[str], dir_b: Optional[str],
                     comp: str, window: Tuple[int, int]) -> List[str]:
    """Show the divergent component's metric rows around the window."""
    from .timeline import load_timeline, resolve_timeline_path
    lines: List[str] = []
    lo, hi = window
    loaded = []
    for label, d in (("A", dir_a), ("B", dir_b)):
        if d is None:
            return []
        p = resolve_timeline_path(d)
        if not os.path.isfile(p):
            return []
        try:
            loaded.append((label, load_timeline(p)))
        except (OSError, ValueError):
            return []
    lines.append(f"metric timelines ({comp}, epochs overlapping "
                 f"[{fmt_time(lo)} .. {fmt_time(hi)})):")
    for label, tl in loaded:
        rows = [r for r in tl.by_component().get(comp, [])
                if r.sim_ps >= lo]
        if not rows:
            lines.append(f"  {label}: no rows at or past the window")
            continue
        r = rows[0]
        lines.append(f"  {label}: epoch {r.epoch} @{fmt_time(r.sim_ps)}: "
                     f"{r.events} events, {r.work_cycles:,.0f} work, "
                     f"{r.wait_fraction:.0%} wait")
    return lines


def _window_events(doc: dict, window: Tuple[int, int]) -> List[tuple]:
    """Sim-clock trace events inside the window, in execution order."""
    lo_us, hi_us = window[0] / 1e6, window[1] / 1e6
    out = []
    for ev in doc.get("traceEvents", []):
        ts = ev.get("ts")
        if ts is None or not (lo_us <= ts < hi_us):
            continue
        if ev.get("ph") not in ("X", "i"):
            continue
        out.append((ts, ev.get("ph"), ev.get("name", ""),
                    ev.get("dur", 0.0)))
    out.sort()
    return out


def _drill_traces(dir_a: Optional[str], dir_b: Optional[str],
                  window: Tuple[int, int], context: int = 3) -> List[str]:
    """First divergent trace events inside the window, with context."""
    docs = []
    for d in (dir_a, dir_b):
        if d is None:
            return []
        p = os.path.join(d, "trace.json")
        if not os.path.isfile(p):
            return []
        try:
            docs.append(load_trace(p))
        except (OSError, json.JSONDecodeError):
            return []
    ev_a, ev_b = (_window_events(doc, window) for doc in docs)
    first = next((i for i, (a, b) in enumerate(zip(ev_a, ev_b)) if a != b),
                 None)
    if first is None:
        if len(ev_a) == len(ev_b):
            return ["traces: window event sequences agree (divergence is "
                    "below trace granularity)"]
        first = min(len(ev_a), len(ev_b))
    lines = [f"traces: first divergent event at index {first} of the "
             "window:"]
    lo = max(0, first - context)
    for label, evs in (("A", ev_a), ("B", ev_b)):
        lines.append(f"  {label}:")
        for i in range(lo, min(first + context + 1, len(evs))):
            ts, ph, name, dur = evs[i]
            marker = ">>" if i == first else "  "
            dur_txt = f" dur={dur:.3f}us" if ph == "X" else ""
            lines.append(f"    {marker} [{i}] {ts:.3f}us {ph} "
                         f"{name}{dur_txt}")
        if first >= len(evs):
            lines.append(f"    >> [{first}] (no event — sequence ended)")
    return lines


def render_audit_diff(diff, a, b, path_a: str, path_b: str,
                      drill: Optional[List[str]] = None) -> str:
    """Human table for an :class:`~repro.obs.audit.AuditDiff`."""
    lines: List[str] = []
    for label, ledger, path in (("A", a, path_a), ("B", b, path_b)):
        root = ledger.root[:16] + "..." if ledger.root else "(partial)"
        lines.append(f"{label}: {path}  mode={ledger.mode} "
                     f"until={fmt_time(ledger.until_ps)} "
                     f"window={fmt_time(ledger.window_ps)} "
                     f"components={len(ledger.components)} "
                     f"rows={len(ledger.rows)} root={root}")
    for problem in diff.problems:
        lines.append(f"warning: {problem}")
    lines.append(f"status: {diff.status} "
                 f"({diff.rows_compared} rows identical)")
    if diff.divergence is not None:
        lines.append(diff.divergence.describe())
    if diff.mismatched_components:
        lines.append("components whose end-of-run digests differ: "
                     + ", ".join(diff.mismatched_components))
    for line in drill or []:
        lines.append(line)
    return "\n".join(lines)


def _diff_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsim-inspect diff",
        description="Walk two audit ledgers (splitsim-run --audit) to the "
                    "first divergent (epoch, component), then drill into "
                    "run reports, metric timelines, and traces when the "
                    "runs have them.  Exit 0 = identical, 1 = diverged, "
                    "2 = not comparable.")
    parser.add_argument("run_a", help="audit.jsonl file or run dir (A)")
    parser.add_argument("run_b", help="audit.jsonl file or run dir (B)")
    parser.add_argument("--context", type=int, default=3,
                        help="trace events of context around the first "
                             "divergent event (default 3)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable diff report")
    args = parser.parse_args(argv)
    from .audit import DIFF_DIVERGED, DIFF_IDENTICAL, diff_ledgers
    a = _load_audit_cli(args.run_a)
    b = _load_audit_cli(args.run_b)
    if a is None or b is None:
        return 2
    diff = diff_ledgers(a, b)
    drill: List[str] = []
    if diff.divergence is not None:
        d = diff.divergence
        dir_a, dir_b = _run_dir_of(args.run_a), _run_dir_of(args.run_b)
        drill += _drill_reports(dir_a, dir_b, d.comp)
        drill += _drill_timelines(dir_a, dir_b, d.comp, d.window)
        drill += _drill_traces(dir_a, dir_b, d.window, args.context)
    print(render_audit_diff(diff, a, b, args.run_a, args.run_b, drill))
    if args.json:
        report = diff.to_dict()
        report["a"] = {"path": args.run_a, **a.header}
        report["b"] = {"path": args.run_b, **b.header}
        report["drilldown"] = drill
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.json}")
    if diff.status == DIFF_IDENTICAL:
        return 0
    return 1 if diff.status == DIFF_DIVERGED else 2


# -- live attach --------------------------------------------------------------

def render_status(reply: dict) -> str:
    """Text rendering of a control-plane ``status`` reply (pure function)."""
    lines: List[str] = []
    until = reply.get("until_ps", 0)
    header = (f"run: {fmt_time(until)} horizon, "
              f"{reply.get('elapsed_s', 0.0):.1f}s elapsed, "
              f"{len(reply.get('running', []))} running / "
              f"{len(reply.get('done', []))} done")
    if reply.get("stop_requested"):
        header += "  [stopping]"
    lines.append(header)
    components = reply.get("components", {})
    width = max((len(n) for n in components), default=0)
    for name in sorted(components):
        entry = components[name]
        state = entry.get("state", "?")
        sim_ps = entry.get("sim_ps")
        if sim_ps is None:
            lines.append(f"  {name:<{width}}  {state}")
            continue
        progress = entry.get("progress", 0.0)
        bar = "#" * int(progress * 20)
        flag = " waiting" if entry.get("waiting") else ""
        age = entry.get("age_s")
        age_txt = f" ({age:.1f}s ago)" if age is not None and age > 1.0 else ""
        lines.append(
            f"  {name:<{width}}  [{bar:<20}] {progress:>4.0%} "
            f"{fmt_time(sim_ps):>10} {entry.get('events', 0):>9} ev "
            f"{entry.get('events_per_sec', 0.0):>10,.0f} ev/s "
            f"ring {entry.get('ring_fill', 0.0):>4.0%} "
            f"{state}{flag}{age_txt}")
    health = reply.get("health") or {}
    if health.get("degraded"):
        lines.append("  health: DEGRADED")
    for alert in (health.get("alerts") or [])[-3:]:
        lines.append(f"  [{alert.get('t_s', 0):>7.1f}s] {alert.get('comp')}: "
                     f"{alert.get('kind')} — {alert.get('detail')}")
    return "\n".join(lines)


def _parse_commands(tokens: List[str]) -> List[Tuple[str, dict]]:
    """Parse scripted attach commands (``set-flow-sample`` eats one arg)."""
    out: List[Tuple[str, dict]] = []
    i = 0
    while i < len(tokens):
        cmd = tokens[i]
        i += 1
        if cmd == "set-flow-sample":
            if i >= len(tokens):
                raise ValueError("set-flow-sample needs a sampling "
                                 "divisor N")
            try:
                out.append((cmd, {"n": int(tokens[i])}))
            except ValueError:
                raise ValueError(f"set-flow-sample: {tokens[i]!r} is not "
                                 "an integer") from None
            i += 1
        else:
            out.append((cmd, {}))
    return out


def _attach_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsim-inspect attach",
        description="Attach to a running multiprocess simulation's control "
                    "plane (a run started with splitsim-run --control DIR "
                    "or run_mp(control_dir=...)).")
    parser.add_argument("rundir",
                        help="run directory containing control.json")
    parser.add_argument("command", nargs="*",
                        help="scripted command sequence: status, metrics, "
                             "dump-trace, set-flow-sample N, stop, ping "
                             "(default: live status view)")
    parser.add_argument("--json", action="store_true",
                        help="print one status snapshot as JSON and exit "
                             "(scripted commands always print JSON)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="live-view refresh period in seconds")
    parser.add_argument("--wait", type=float, default=5.0,
                        help="seconds to wait for the control endpoint to "
                             "appear (a run that is still starting)")
    args = parser.parse_args(argv)
    try:
        commands = _parse_commands(args.command)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        client = ControlClient.attach(args.rundir, wait_s=args.wait)
    except ControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with client:
        try:
            if commands:
                failed = False
                for cmd, kwargs in commands:
                    reply = client.request(cmd, **kwargs)
                    print(json.dumps(reply, indent=2, default=str))
                    failed = failed or not reply.get("ok")
                return 1 if failed else 0
            if args.json:
                print(json.dumps(client.status(), indent=2, default=str))
                return 0
            return _live_view(client, args.interval)
        except ControlError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def _live_view(client: ControlClient, interval_s: float) -> int:
    """Refreshing status view until the run finishes or ^C."""
    try:
        while True:
            reply = client.status()
            block = render_status(reply)
            sys.stdout.write("\x1b[H\x1b[2J" if sys.stdout.isatty() else "")
            print(block, flush=True)
            if not reply.get("running"):
                print("all components done")
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        print()
        return 0
    except ControlError:
        # the run tore the control plane down: a normal way to finish
        print("run finished (control endpoint closed)")
        return 0


# -- CLI ----------------------------------------------------------------------

def _resolve_trace_path(path: str) -> Optional[str]:
    """Map a run directory to its merged trace; None + message if hopeless."""
    if os.path.isdir(path):
        merged = os.path.join(path, "trace.json")
        if os.path.isfile(merged):
            return merged
        report = os.path.join(path, "run_report.json")
        if os.path.isfile(report):
            print(f"error: {path} has run_report.json but no trace.json — "
                  "rerun with tracing on (splitsim-run --trace, or "
                  "run_mp(trace_dir=...)) to collect one", file=sys.stderr)
        else:
            print(f"error: {path} is a directory without trace.json or "
                  "run_report.json — pass a Chrome-trace JSON file or a "
                  "SplitSim run directory", file=sys.stderr)
        return None
    if not os.path.exists(path):
        print(f"error: {path} does not exist (expected a Chrome-trace JSON "
              "file or a run directory)", file=sys.stderr)
        return None
    return path


def _load_doc(path: str) -> Optional[dict]:
    """Resolve, read, and validate a trace; print the failure and None."""
    resolved = _resolve_trace_path(path)
    if resolved is None:
        return None
    try:
        doc = load_trace(resolved)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error reading {resolved}: {exc}", file=sys.stderr)
        return None
    if not doc.get("traceEvents"):
        print(f"error: {resolved} contains no trace events (empty or "
              "truncated capture)", file=sys.stderr)
        return None
    problems = validate_chrome_doc(doc)
    if problems:
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        print(f"error: {resolved} is not a valid trace: {problems[0]}{more}",
              file=sys.stderr)
        return None
    return doc


def build_parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:  # e.g. piped into head
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "flows":
        return _flows_main(argv[1:])
    if argv and argv[0] == "attach":
        return _attach_main(argv[1:])
    if argv and argv[0] == "timeline":
        return _timeline_main(argv[1:])
    if argv and argv[0] == "recommend":
        return _recommend_main(argv[1:])
    if argv and argv[0] == "diff":
        return _diff_main(argv[1:])
    args = build_parser().parse_args(argv)
    doc = _load_doc(args.trace)
    if doc is None:
        return 1
    events = doc.get("traceEvents", [])
    meta = doc.get("otherData", {})
    print(f"{args.trace}: {len(events)} events, schema "
          f"{meta.get('schema', '?')}, clocks {meta.get('clock_domains', {})}"
          f", dropped {meta.get('dropped_records', 0)}")

    spans = top_spans(events, top=args.top)
    print("\ntop spans (by total duration):")
    if spans:
        for entry in spans:
            print(f"  {entry['name']:<28} n={entry['count']:<8} "
                  f"total={entry['total_us']:>12.1f}us "
                  f"max={entry['max_us']:.1f}us")
    else:
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
    if hists:
        for edge in sorted(hists):
            h = hists[edge]
            print(f"  {edge:<32} n={h.count:<6} mean={h.mean:,.0f} "
                  f"p95={h.quantile(0.95):,.0f} max={h.max:,.0f}")
    else:
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
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
