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
Every run, in process or multiprocess (``--control``), writes one run
directory (``--out DIR``, see :mod:`repro.obs.rundir`), and the
per-component lines printed after it come from its run report.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from pathlib import Path
from typing import List, Optional

from ..kernel.simtime import parse_time
from ..obs import rundir
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
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="the run directory every run writes: "
                             "run_report.json, stats.json and the "
                             "artifacts of --trace/--timeline/--audit; "
                             "every splitsim-inspect view opens it "
                             "(default: .)")
    parser.add_argument("--profile", action="store_true",
                        help="print the SplitSim profiler's analysis of the "
                             "run and write its WTPG as DIR/wtpg.dot "
                             "(records the epoch timeline, so implies "
                             "strict mode in-process)")
    parser.add_argument("--trace", action="store_true",
                        help="record a Chrome-trace/Perfetto trace "
                             "(DIR/trace.json; open in ui.perfetto.dev, "
                             "summarize with 'splitsim-inspect DIR')")
    parser.add_argument("--flows", metavar="N", type=int, default=None,
                        help="causal flow tracing: keep 1-in-N flows "
                             "(1 = all); implies --trace; inspect with "
                             "'splitsim-inspect flows DIR'")
    parser.add_argument("--control", action="store_true",
                        help="run multiprocess (one OS process per "
                             "component) and serve the live control plane "
                             "from DIR: control.json + unix socket for "
                             "'splitsim-inspect attach DIR'")
    parser.add_argument("--progress", action="store_true",
                        help="live one-line status from child heartbeats "
                             "(multiprocess runs only)")
    parser.add_argument("--timeline", action="store_true",
                        help="record the epoch-resolved metrics timeline "
                             "(DIR/timeline.jsonl; implies strict mode "
                             "in-process); inspect with 'splitsim-inspect "
                             "timeline DIR', feed to 'splitsim-inspect "
                             "recommend DIR'")
    parser.add_argument("--audit", action="store_true",
                        help="record the per-epoch digest ledger "
                             "(DIR/audit.jsonl); compare two runs with "
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
    if args.profile or args.timeline:
        inst_kwargs["timeline"] = True
    if args.audit_window is not None and not args.audit:
        print("error: --audit-window needs --audit", file=sys.stderr)
        return 1
    if args.audit:
        inst_kwargs["audit"] = True
        if args.audit_window is not None:
            inst_kwargs["audit_window_ps"] = parse_time(args.audit_window)
    if args.trace:
        inst_kwargs["trace"] = True
    if args.flows is not None:
        if args.flows < 1:
            print("error: --flows needs a sampling divisor >= 1",
                  file=sys.stderr)
            return 1
        inst_kwargs["flow_sample"] = args.flows  # flows live in the trace

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
    out = args.out
    components = [c.name for c in exp.sim.components]
    stats = None  # the event kernel's, in process
    try:
        if args.control:
            print(f"running {len(components)} component processes for "
                  f"{duration_text}: {', '.join(components)}")
            print(f"control plane: {out}  "
                  f"(attach with: splitsim-inspect attach {out})")
            exp.run_mp(duration, rundir=out, progress=args.progress,
                       control=True)
        else:
            print(f"running {len(components)} component simulators for "
                  f"{duration_text}: {', '.join(components)}")
            stats = exp.run(duration, rundir=out).stats
    finally:
        exp.disable_flow_tracing()
    _print_report(out, stats)
    if args.profile:
        # as 'splitsim-inspect profile DIR --dot DIR/wtpg.dot' prints it
        from ..obs.inspect.summary import profile_main
        print()
        return profile_main([out, "--dot",
                             os.path.join(out, rundir.WTPG_FILE)])
    return 0


def _print_report(out: str, stats) -> None:
    """The run's totals and per-component lines, from its run report (plus
    the event kernel's health of an in-process run)."""
    report = rundir.load_report(out)
    comps = report["components"]
    events = sum(c["events"] for c in comps.values())
    wall = report["wall_seconds"]
    print(f"done: {events} events in {wall:.2f}s wall "
          f"({events / wall if wall > 0 else 0.0:.0f} ev/s)")
    if stats is not None:
        print(f"engine: peak heap {stats.peak_heap}, "
              f"event pool reuse {stats.pool_reuse_rate:.1%}, "
              f"cancelled {stats.cancelled_ratio:.1%}, "
              f"{stats.postponed} postponed, "
              f"{stats.event_allocations} allocations")
    for name, comp in comps.items():
        blocked = (f", {comp['wall_seconds']:.2f}s wall "
                   f"({comp['wait_seconds']:.2f}s blocked)"
                   if "wall_seconds" in comp else "")
        print(f"  {name}: {comp['events']} events{blocked}")
        for key, value in sorted(comp["outputs"].items()):
            print(f"    {key}: {value}")
    written = [rundir.REPORT_FILE, rundir.STATS_FILE] + [
        report[name] for name in rundir.ARTIFACTS if report.get(name)]
    print(f"wrote {out}: {', '.join(written)}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
