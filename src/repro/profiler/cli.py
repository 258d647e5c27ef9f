"""Command-line profiler post-processor.

The paper's workflow: run the simulation with profiling enabled (every
simulator's adapter counters are sampled per epoch into the run's
timeline), then run the post-processing script to get simulation speed,
per-component efficiency, and the wait-time profile graph.  This CLI is
that script::

    splitsim-profile run1/ --drop-head 2 --dot wtpg.dot

Its input is one ``timeline.jsonl`` or the run directory holding it
(``splitsim-run --timeline``, ``--profile-out DIR``, ``--control DIR
--timeline``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..obs.inspect.timeline import timeline_warnings
from ..obs.rundir import RunDirError, load_timeline
from .postprocess import analyze
from .wtpg import build_wtpg, save_dot, to_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitsim-profile",
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
    parser.add_argument("--bottlenecks", type=int, default=3,
                        help="how many bottleneck candidates to list")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        timeline = load_timeline(args.timeline)
    except RunDirError as exc:
        print(exc, file=sys.stderr)
        return 1
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
    print(analysis.summary())
    print()
    graph = build_wtpg(analysis)
    print(to_text(graph, title="wait-time profile"))
    print()
    print("likely bottlenecks:",
          ", ".join(analysis.bottlenecks(args.bottlenecks)))
    if args.dot:
        save_dot(graph, args.dot, title="SplitSim WTPG")
        print(f"wrote {args.dot}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
