"""``splitsim-run``: execute a SplitSim configuration script.

The paper's orchestration workflow: the user writes a Python script that
builds a :class:`~repro.orchestration.system.System`; SplitSim applies the
implementation choices and runs everything — process startup, channel
wiring, output collection, teardown — automatically.  This CLI is that
entry point::

    splitsim-run myconfig.py --duration 20ms --partition ac --profile

The config script must define ``build() -> System`` and may define
``DURATION`` (default duration string) and ``INSTANTIATION`` (a dict of
keyword overrides for :class:`~repro.orchestration.instantiate.Instantiation`).
After the run, per-app statistics are printed and optionally written as
JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..kernel.simtime import SEC, parse_time
from ..orchestration.instantiate import Instantiation
from ..orchestration.strategies import STRATEGIES
from ..orchestration.system import System
from ..profiler.wtpg import build_wtpg, save_dot, to_text


def load_config(path: str):
    config_path = Path(path)
    if not config_path.exists():
        raise FileNotFoundError(path)
    spec = importlib.util.spec_from_file_location("splitsim_config",
                                                  config_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "build"):
        raise AttributeError(f"{path} must define build() -> System")
    return module


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitsim-run",
        description="Run a SplitSim system-configuration script.")
    parser.add_argument("config", help="Python config file defining build()")
    parser.add_argument("--duration", default=None,
                        help='simulated time, e.g. "20ms" (default: the '
                             "config's DURATION or 10ms)")
    parser.add_argument("--mode", choices=("fast", "strict"), default="fast")
    parser.add_argument("--partition", default=None,
                        help=f"network partition strategy "
                             f"({', '.join(sorted(STRATEGIES))})")
    parser.add_argument("--profile", action="store_true",
                        help="enable the SplitSim profiler (implies strict)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write run outputs as JSON")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="export a Chrome-trace/Perfetto JSON of the run "
                             "(open in ui.perfetto.dev; feed to "
                             "splitsim-inspect)")
    parser.add_argument("--flows", metavar="N", type=int, default=None,
                        help="causal flow tracing: keep 1-in-N flows "
                             "(1 = all); implies --trace; inspect with "
                             "'splitsim-inspect flows'")
    parser.add_argument("--stats-json", metavar="PATH", default=None,
                        help="write the unified metrics snapshot "
                             "(subsystem.component.metric) as JSON")
    parser.add_argument("--profile-out", metavar="DIR", default=None,
                        help="write the raw profiler log (profile.jsonl), "
                             "the WTPG (wtpg.dot) and the trace "
                             "(trace.json) into DIR; implies --profile")
    parser.add_argument("--control", metavar="DIR", default=None,
                        help="run multiprocess (one OS process per "
                             "component) and serve the live control plane "
                             "from DIR: control.json + unix socket for "
                             "'splitsim-inspect attach DIR', per-child "
                             "traces in DIR/traces, run_report.json")
    parser.add_argument("--progress", action="store_true",
                        help="live one-line status from child heartbeats "
                             "(multiprocess runs only)")
    parser.add_argument("--timeline", metavar="PATH", nargs="?",
                        const=True, default=None,
                        help="record the epoch-resolved metrics timeline "
                             "(implies strict mode in-process); PATH "
                             "defaults to timeline.jsonl (or "
                             "DIR/timeline.jsonl with --control); inspect "
                             "with 'splitsim-inspect timeline', feed to "
                             "'splitsim-inspect recommend'")
    parser.add_argument("--audit", metavar="PATH", nargs="?",
                        const=True, default=None,
                        help="record the per-epoch digest ledger; PATH "
                             "defaults to audit.jsonl (or DIR/audit.jsonl "
                             "with --control); compare two runs with "
                             "'splitsim-inspect diff'")
    parser.add_argument("--audit-window", metavar="TIME", default=None,
                        help='audit epoch width, e.g. "64us" (default '
                             "64us); ledgers compare only at matching "
                             "widths")
    parser.add_argument("--partition-file", metavar="PATH", default=None,
                        help="apply a saved advisor recommendation "
                             "(partition.json from 'splitsim-inspect "
                             "recommend') as the network partition; "
                             "mutually exclusive with --partition")
    return parser


def collect_app_stats(exp) -> dict:
    out = {}
    for name in exp.system.hosts:
        for i, app in enumerate(exp.apps_of(name)):
            key = f"{name}.app{i}"
            entry = {"type": type(app).__name__}
            stats = getattr(app, "stats", None)
            if stats is not None and hasattr(stats, "completed"):
                entry["completed"] = stats.completed
                entry["mean_latency_ps"] = stats.mean_latency()
            if getattr(app, "delivered", None) is not None:
                entry["delivered_bytes"] = app.delivered
            out[key] = entry
    return out


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _cli_main(argv)
    except BrokenPipeError:  # e.g. piped into head
        return 0


def _cli_main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        module = load_config(args.config)
    except (FileNotFoundError, AttributeError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    system = module.build()
    if not isinstance(system, System):
        print("error: build() must return a repro.System", file=sys.stderr)
        return 1

    inst_kwargs = dict(getattr(module, "INSTANTIATION", {}))
    inst_kwargs.setdefault("mode", args.mode)
    if args.partition:
        if args.partition not in STRATEGIES:
            print(f"error: unknown partition strategy {args.partition!r}",
                  file=sys.stderr)
            return 1
        inst_kwargs["network_partition"] = STRATEGIES[args.partition]
    if args.partition_file:
        if args.partition:
            print("error: --partition-file and --partition are mutually "
                  "exclusive", file=sys.stderr)
            return 1
        inst_kwargs["partition_file"] = args.partition_file
    if args.profile or args.profile_out:
        inst_kwargs["profile"] = True
    if args.timeline is not None and not args.control:
        inst_kwargs["timeline"] = True
    if args.audit_window is not None:
        if args.audit is None:
            print("error: --audit-window needs --audit", file=sys.stderr)
            return 1
        try:
            args.audit_window = parse_time(args.audit_window)
        except ValueError as exc:
            print(f"error: --audit-window: {exc}", file=sys.stderr)
            return 1
    if args.audit is not None and not args.control:
        inst_kwargs["audit"] = True
        if args.audit_window is not None:
            inst_kwargs["audit_window_ps"] = args.audit_window
    if args.trace or args.profile_out:
        inst_kwargs.setdefault("trace", True)
    if args.flows is not None:
        if args.flows < 1:
            print("error: --flows needs a sampling divisor >= 1",
                  file=sys.stderr)
            return 1
        inst_kwargs["flow_sample"] = args.flows
        if not (args.trace or args.profile_out):
            args.trace = "trace.json"  # flow records only live in the trace

    duration_text = args.duration or getattr(module, "DURATION", "10ms")
    duration = parse_time(duration_text)

    try:
        exp = Instantiation(system, **inst_kwargs).build()
    except (OSError, ValueError) as exc:
        # e.g. a missing/malformed --partition-file document
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.control:
            return _run_mp(args, exp, duration, duration_text)
        return _run(args, exp, duration, duration_text)
    finally:
        exp.disable_flow_tracing()


def _artifact_path(flag, default) -> Optional[str]:
    """Where a ``--flag [PATH]`` artifact goes (``None`` = flag not given)."""
    if flag is None:
        return None
    return str(default) if flag is True else flag


def _run_mp(args, exp, duration: int, duration_text: str) -> int:
    """Multiprocess run serving the live control plane from a run dir."""
    rundir = Path(args.control)
    rundir.mkdir(parents=True, exist_ok=True)
    trace_dir = rundir / "traces"
    report_path = rundir / "run_report.json"
    components = [c.name for c in exp.sim.components]
    print(f"running {len(components)} component processes for "
          f"{duration_text}: {', '.join(components)}")
    print(f"control plane: {rundir}  "
          f"(attach with: splitsim-inspect attach {rundir})")
    results = exp.run_mp(
        duration, progress=args.progress, report_path=str(report_path),
        trace_dir=str(trace_dir), control_dir=str(rundir),
        flow_sample=args.flows,
        timeline_path=_artifact_path(args.timeline, rundir / "timeline.jsonl"),
        audit_path=_artifact_path(args.audit, rundir / "audit.jsonl"),
        audit_window_ps=args.audit_window)
    for name in sorted(results):
        res = results[name]
        print(f"  {name}: {res.events} events, "
              f"{res.wall_seconds:.2f}s wall "
              f"({res.wait_seconds:.2f}s blocked)")
        for key, value in sorted(res.outputs.items()):
            print(f"    {key}: {value}")
    print(f"wrote {report_path}")
    return 0


def _run(args, exp, duration: int, duration_text: str) -> int:
    components = [c.name for c in exp.sim.components]
    print(f"running {len(components)} component simulators for "
          f"{duration_text}: {', '.join(components)}")
    result = exp.run(duration)
    stats = result.stats
    print(f"done: {stats.events} events in {stats.wall_seconds:.2f}s wall "
          f"({stats.events_per_second:.0f} ev/s)")
    print(f"engine: peak heap {stats.peak_heap}, "
          f"event pool reuse {stats.pool_reuse_rate:.1%}, "
          f"cancelled {stats.cancelled_ratio:.1%}, "
          f"{stats.postponed} postponed, "
          f"{stats.event_allocations} allocations")

    app_stats = collect_app_stats(exp)
    for key in sorted(app_stats):
        print(f"  {key}: {app_stats[key]}")

    analysis = None
    if args.profile or args.profile_out:
        analysis = exp.profile_analysis()
        print()
        print(analysis.summary())
        print(to_text(build_wtpg(analysis), title="wait-time profile"))

    if args.profile_out:
        outdir = Path(args.profile_out)
        outdir.mkdir(parents=True, exist_ok=True)
        exp.save("profile", outdir / "profile.jsonl")
        save_dot(build_wtpg(analysis), str(outdir / "wtpg.dot"),
                 title="SplitSim WTPG")
        written = ["profile.jsonl", "wtpg.dot"]
        if "trace" in exp.recorders:
            exp.save("trace", str(outdir / "trace.json"))
            written.append("trace.json")
        print(f"wrote {outdir}/{{{', '.join(written)}}}")

    for name, path in (
            ("timeline", _artifact_path(args.timeline, "timeline.jsonl")),
            ("audit", _artifact_path(args.audit, "audit.jsonl")),
            ("trace", args.trace)):
        if path:
            exp.save(name, path)
            print(f"wrote {path}")

    if args.stats_json:
        snapshot = exp.metrics(stats).snapshot()
        with open(args.stats_json, "w") as fh:
            json.dump(snapshot, fh, indent=2, default=str)
        print(f"wrote {args.stats_json}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({
                "duration_ps": duration,
                "events": stats.events,
                "wall_seconds": stats.wall_seconds,
                "engine": {
                    "peak_heap": stats.peak_heap,
                    "pool_reuse_rate": stats.pool_reuse_rate,
                    "cancelled_ratio": stats.cancelled_ratio,
                    "postponed": stats.postponed,
                    "event_allocations": stats.event_allocations,
                },
                "apps": app_stats,
            }, fh, indent=2, default=str)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
