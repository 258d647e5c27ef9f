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

from ..kernel.simtime import parse_time
from ..obs.rundir import TIMELINE_FILE, TRACE_FILE, control_layout
from ..orchestration.instantiate import Instantiation
from ..orchestration.strategies import STRATEGIES, partition_from_file
from ..orchestration.system import System


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
                        help="print the SplitSim profiler's analysis and "
                             "WTPG of the run (records the epoch timeline, "
                             "so implies strict mode in-process)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write run outputs as JSON")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="export a Chrome-trace/Perfetto JSON of the run "
                             "(open in ui.perfetto.dev; feed to "
                             "splitsim-inspect, whose wait sections and WTPG "
                             "need --timeline next to it)")
    parser.add_argument("--flows", metavar="N", type=int, default=None,
                        help="causal flow tracing: keep 1-in-N flows "
                             "(1 = all); implies --trace; inspect with "
                             "'splitsim-inspect flows'")
    parser.add_argument("--stats-json", metavar="PATH", default=None,
                        help="write the unified metrics snapshot "
                             "(subsystem.component.metric) as JSON")
    parser.add_argument("--profile-out", metavar="DIR", default=None,
                        help="write the epoch timeline (timeline.jsonl), "
                             "the WTPG (wtpg.dot) and the trace "
                             "(trace.json) into DIR, a run directory for "
                             "'splitsim-inspect profile' and the other "
                             "splitsim-inspect views; "
                             "implies --profile; in-process runs only")
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
    for flag in ("duration", "audit_window"):  # before the config runs
        text = getattr(args, flag)
        try:
            if text is not None and parse_time(text) <= 0:
                raise ValueError(f"{text!r} is not a positive time")
        except ValueError as exc:
            print(f"error: --{flag.replace('_', '-')}: {exc}",
                  file=sys.stderr)
            return 1
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
    if args.control:  # an mp run writes into the run directory instead
        for flag, value, hint in (
                ("--profile-out", args.profile_out, "--timeline writes "
                 "DIR/timeline.jsonl for 'splitsim-inspect profile'"),
                ("--json", args.json, "per-component outputs are in "
                 "DIR/run_report.json"),
                ("--stats-json", args.stats_json, "transport counters are "
                 "in DIR/run_report.json"),
                ("--trace", args.trace, "the trace is DIR/traces/trace.json")):
            if value:
                print(f"error: {flag} is for in-process runs; with "
                      f"--control, {hint}", file=sys.stderr)
                return 1
    if args.profile_out:
        args.profile = True
    if args.profile or args.timeline is not None:
        inst_kwargs["timeline"] = True
    if args.audit_window is not None and args.audit is None:
        print("error: --audit-window needs --audit", file=sys.stderr)
        return 1
    if args.audit is not None:
        inst_kwargs["audit"] = True
        if args.audit_window is not None:
            inst_kwargs["audit_window_ps"] = parse_time(args.audit_window)
    if args.trace or args.profile_out:
        inst_kwargs.setdefault("trace", True)
    if args.flows is not None:
        if args.flows < 1:
            print("error: --flows needs a sampling divisor >= 1",
                  file=sys.stderr)
            return 1
        inst_kwargs["flow_sample"] = args.flows
        if not (args.trace or args.profile_out):
            args.trace = TRACE_FILE  # flow records only live in the trace

    duration_text = args.duration or getattr(module, "DURATION", "10ms")
    duration = parse_time(duration_text)

    try:
        if args.partition_file:
            inst_kwargs["network_partition"] = partition_from_file(
                args.partition_file)
        exp = Instantiation(system, **inst_kwargs).build()
    except (OSError, ValueError) as exc:
        # e.g. a missing --partition-file, or one naming nodes the
        # topology lacks
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # --timeline / --audit [PATH]: the given file, else the conventional
    # name in the run directory (DIR with --control, the working directory
    # in process); an mp run saves them itself, an in-process one in _run
    layout = control_layout(args.control or "")
    for name in ("timeline", "audit"):
        flag = getattr(args, name)
        if flag is not None:
            exp.recorders[name].path = layout[name] if flag is True else flag
    try:
        if args.control:
            _run_mp(args, exp, duration, duration_text, layout)
        else:
            _run(args, exp, duration, duration_text)
    finally:
        exp.disable_flow_tracing()
    if args.profile:
        # as 'splitsim-inspect profile' prints it (DIR with --profile-out)
        from ..obs.inspect.summary import print_profile, profile_main
        print()
        if args.profile_out:
            return profile_main([args.profile_out, "--dot", str(
                Path(args.profile_out) / "wtpg.dot")])
        print_profile(exp.profile_analysis())
    return 0


def _run_mp(args, exp, duration: int, duration_text: str, layout) -> None:
    """Multiprocess run serving the live control plane from a run dir."""
    rundir = args.control
    components = [c.name for c in exp.sim.components]
    print(f"running {len(components)} component processes for "
          f"{duration_text}: {', '.join(components)}")
    print(f"control plane: {rundir}  "
          f"(attach with: splitsim-inspect attach {rundir})")
    results = exp.run_mp(
        duration, progress=args.progress, report_path=layout["report"],
        trace_dir=layout["trace_dir"], control_dir=rundir)
    for name in sorted(results):
        res = results[name]
        print(f"  {name}: {res.events} events, "
              f"{res.wall_seconds:.2f}s wall "
              f"({res.wait_seconds:.2f}s blocked)")
        for key, value in sorted(res.outputs.items()):
            print(f"    {key}: {value}")
    print(f"wrote {layout['report']}")


def _run(args, exp, duration: int, duration_text: str) -> None:
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

    # the --timeline/--audit paths, before --profile-out saves the timeline
    artifacts = [(name, exp.recorders[name].path)
                 for name in ("timeline", "audit") if name in exp.recorders]
    if args.profile_out:
        # a run directory: every splitsim-inspect view opens it
        outdir = Path(args.profile_out)
        outdir.mkdir(parents=True, exist_ok=True)
        exp.save("timeline", str(outdir / TIMELINE_FILE))
        written = [TIMELINE_FILE]
        if "trace" in exp.recorders:
            exp.save("trace", str(outdir / TRACE_FILE))
            written.append(TRACE_FILE)
        print(f"wrote {outdir}/{{{', '.join(written)}}}")

    for name, path in artifacts + [("trace", args.trace)]:
        if path:
            exp.save(name, path)
            print(f"wrote {path}")

    if args.stats_json:
        from ..obs.metrics import snapshot
        with open(args.stats_json, "w") as fh:
            json.dump(snapshot(exp.metrics(stats)), fh, indent=2,
                      default=str)
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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
