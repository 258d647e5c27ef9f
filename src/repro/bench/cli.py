"""``splitsim-bench``: run the hot-path microbenchmarks, emit JSON.

Usage::

    splitsim-bench kernel --out benchmarks/perf/BENCH_kernel.json
    splitsim-bench netsim --scale 0.25            # CI smoke scale
    splitsim-bench netsim --fluid                 # + fluid-tier workloads
    splitsim-bench all --compare baseline.json    # print speedups

``--scale`` multiplies the simulated duration (not the topology), so a
reduced-scale run exercises exactly the same code paths; ``--compare``
loads a previously written document and reports per-workload speedups.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from ..kernel.simtime import MS, US
from ..netsim.fidelity import FidelityConfig
from .harness import (BenchResult, compare_docs, load_json, measure,
                      results_doc, write_json)
from .workloads import (build_burst_flood, build_cancel_churn,
                        build_fluid_longflows, build_mixed_system,
                        build_netsim_flood, build_strict_pingpong,
                        build_timer_wheel, run_system)


def _run_kernel(scale: float, repeat: int, trace_alloc: bool) -> List[BenchResult]:
    wheel_dur = max(1, int(5 * US * scale))
    churn_dur = max(1, int(4 * US * scale))

    def wheel():
        sim = build_timer_wheel()
        return (lambda: sim.run(wheel_dur),
                lambda: {"events": sum(c.events_processed
                                       for c in sim.components)})

    def churn():
        sim = build_cancel_churn()
        return (lambda: sim.run(churn_dur),
                lambda: {"events": sum(c.events_processed
                                       for c in sim.components)})

    return [
        measure("timer_wheel", {"components": 4, "timers": 64,
                                "duration_ps": wheel_dur},
                wheel, repeat=repeat, trace_alloc=trace_alloc),
        measure("cancel_churn", {"components": 2, "streams": 64,
                                 "duration_ps": churn_dur},
                churn, repeat=repeat, trace_alloc=trace_alloc),
    ]


def _run_netsim(scale: float, repeat: int, trace_alloc: bool) -> List[BenchResult]:
    duration = max(1, int(3 * MS * scale))

    def packet_workload(build, fidelity=None):
        def workload():
            system = build()
            state: Dict[str, int] = {}

            def run():
                stats, counters = run_system(system, duration, mode="fast",
                                             fidelity=fidelity)
                state["events"] = stats.events
                state["packets"] = counters["packets"]

            return run, lambda: dict(state)
        return workload

    batched = FidelityConfig(batching=True)
    return [
        measure("udp_kv_flood", {"clients": 4, "duration_ps": duration},
                packet_workload(build_netsim_flood),
                repeat=repeat, trace_alloc=trace_alloc),
        measure("udp_kv_flood_batched",
                {"clients": 4, "duration_ps": duration, "batching": True},
                packet_workload(build_netsim_flood, batched),
                repeat=repeat, trace_alloc=trace_alloc),
        measure("udp_burst_flood", {"senders": 4, "duration_ps": duration},
                packet_workload(build_burst_flood),
                repeat=repeat, trace_alloc=trace_alloc),
        measure("udp_burst_flood_batched",
                {"senders": 4, "duration_ps": duration, "batching": True},
                packet_workload(build_burst_flood, batched),
                repeat=repeat, trace_alloc=trace_alloc),
    ]


def _run_fluid(scale: float, repeat: int, trace_alloc: bool) -> List[BenchResult]:
    """Flow-level tier: the fig6 long-flow workload, packet vs fluid.

    The same dumbbell of long-lived DCTCP transfers run at both tiers; the
    events-per-second ratio between the two is the fluid tier's headline
    number (the ≥10x acceptance criterion), and the per-sink goodput in
    ``extra`` lets the comparison double as a fidelity spot check.
    """
    duration = max(1, int(20 * MS * scale))

    def longflows(fidelity=None):
        def workload():
            system = build_fluid_longflows()
            state: Dict[str, float] = {}

            def run():
                stats, counters = run_system(system, duration, mode="fast",
                                             fidelity=fidelity)
                state["events"] = stats.events
                state.update(counters)

            return run, lambda: dict(state)
        return workload

    return [
        measure("dctcp_longflows_packet", {"pairs": 2, "duration_ps": duration},
                longflows(), repeat=repeat, trace_alloc=trace_alloc),
        measure("dctcp_longflows_fluid",
                {"pairs": 2, "duration_ps": duration, "fluid": True},
                longflows(FidelityConfig(fluid=True)),
                repeat=repeat, trace_alloc=trace_alloc),
    ]


def _run_strict(scale: float, repeat: int, trace_alloc: bool) -> List[BenchResult]:
    duration = max(1, int(400 * US * scale))
    mixed_dur = max(1, int(1 * MS * scale))

    def pingpong():
        sim = build_strict_pingpong()
        state: Dict[str, int] = {}

        def run():
            stats = sim.run(duration)
            state["events"] = stats.events
            state["rounds"] = stats.rounds

        return run, lambda: dict(state)

    def mixed():
        system = build_mixed_system()
        state: Dict[str, int] = {}

        def run():
            stats, counters = run_system(system, mixed_dur, mode="strict")
            state["events"] = stats.events
            state["packets"] = counters["packets"]

        return run, lambda: dict(state)

    return [
        measure("strict_pingpong", {"pairs": 2, "duration_ps": duration},
                pingpong, repeat=repeat, trace_alloc=trace_alloc),
        measure("strict_mixed", {"duration_ps": mixed_dur},
                mixed, repeat=repeat, trace_alloc=trace_alloc),
    ]


def _run_obs(scale: float, repeat: int, trace_alloc: bool) -> List[BenchResult]:
    """Tracing cost: the strict mixed workload untraced vs flight-recorded.

    All variants run the identical event timeline (the determinism guard
    pins this); the traced one additionally streams kernel drains, strict
    counter samples and netsim busy/drop records into the bounded ring.
    The ``flows`` variants add causal flow-hop recording on top:
    ``flows_unsampled`` installs the recorder with a divisor so large no
    flow is kept — isolating the pure tagging/sampling-test cost that
    ``benchmarks/perf/test_obs_overhead.py`` bounds — while
    ``flows_sampled`` records every flow.  The ``timeline`` variant runs
    untraced but with the epoch-resolved metrics timeline attached
    (counter reads at round boundaries only), and the ``audit`` variant
    with the per-epoch digest ledger (one list-append per event, window
    hashing at round boundaries) — both costs the same perf guard bounds
    at 5%.
    """
    duration = max(1, int(1 * MS * scale))

    def variant(traced: bool, flow_sample=None, timeline: bool = False,
                audit: bool = False):
        def workload():
            from ..orchestration.instantiate import Instantiation
            exp = Instantiation(build_mixed_system(), mode="strict",
                                trace=traced, timeline=timeline,
                                audit=audit,
                                flow_sample=flow_sample).build()
            state: Dict[str, int] = {}

            recorders = exp.recorders

            def run():
                try:
                    result = exp.run(duration)
                finally:
                    if flow_sample is not None:
                        state["flow_hops"] = recorders["trace"].flows.emitted
                        exp.disable_flow_tracing()
                state["events"] = result.stats.events
                if "trace" in recorders:
                    tracer = recorders["trace"].tracer
                    state["trace_records"] = len(tracer)
                    state["trace_dropped"] = tracer.dropped
                if "timeline" in recorders:
                    state["timeline_rows"] = len(recorders["timeline"].rows)
                if "audit" in recorders:
                    state["audit_rows"] = len(
                        recorders["audit"].sorted_rows())

            return run, lambda: dict(state)
        return workload

    return [
        measure("strict_mixed_untraced", {"duration_ps": duration},
                variant(False), repeat=repeat, trace_alloc=trace_alloc),
        measure("strict_mixed_traced", {"duration_ps": duration},
                variant(True), repeat=repeat, trace_alloc=trace_alloc),
        measure("strict_mixed_flows_unsampled", {"duration_ps": duration},
                variant(True, flow_sample=1 << 23),
                repeat=repeat, trace_alloc=trace_alloc),
        measure("strict_mixed_flows_sampled", {"duration_ps": duration},
                variant(True, flow_sample=1),
                repeat=repeat, trace_alloc=trace_alloc),
        measure("strict_mixed_timeline", {"duration_ps": duration},
                variant(False, timeline=True),
                repeat=repeat, trace_alloc=trace_alloc),
        measure("strict_mixed_audit", {"duration_ps": duration},
                variant(False, audit=True),
                repeat=repeat, trace_alloc=trace_alloc),
    ]


def _run_mp(scale: float, repeat: int, trace_alloc: bool) -> List[BenchResult]:
    """Multiprocess transport: ring messages/sec and end-to-end events/sec.

    The ``ring_msgs_*`` pair isolates the shm transport itself (same
    process, same messages): pickle-per-message with per-message cursor
    publishes versus the struct wire codec with batched publishes.  The
    ``mp_events_*`` workloads run the token pipeline under the real
    :class:`ProcessRunner` at increasing process counts, plus one unbatched
    pickle baseline at the largest count.  Process counts are gated on
    ``--scale`` so CI smoke runs stay cheap.
    """
    from .mp import RING_BATCH, mp_events_workload, ring_workload

    n_msgs = max(2_000, int(100_000 * scale))
    until = max(10 * US, int(200 * US * scale))
    results = [
        measure("ring_msgs_pickle", {"messages": n_msgs, "batch": 1},
                ring_workload(n_msgs, batched=False),
                repeat=repeat, trace_alloc=trace_alloc),
        measure("ring_msgs_batched", {"messages": n_msgs,
                                      "batch": RING_BATCH},
                ring_workload(n_msgs, batched=True),
                repeat=repeat, trace_alloc=trace_alloc),
    ]
    if scale >= 0.5:
        proc_counts = [2, 4, 8]
    elif scale >= 0.1:
        proc_counts = [2, 4]
    else:
        proc_counts = [2]
    for n in proc_counts:
        results.append(measure(
            f"mp_events_{n}p", {"processes": n, "duration_ps": until},
            mp_events_workload(n, until, batch=True),
            repeat=repeat, trace_alloc=trace_alloc))
    # unbatched pickle baseline at the smallest count: on this two-core
    # host larger counts measure scheduler contention, not the transport
    smallest = proc_counts[0]
    results.append(measure(
        f"mp_events_{smallest}p_nobatch",
        {"processes": smallest, "duration_ps": until,
         "baseline": "pickle_unbatched"},
        mp_events_workload(smallest, until, batch=False, codec=False),
        repeat=repeat, trace_alloc=trace_alloc))
    return results


RUNNERS = {
    "kernel": _run_kernel,
    "mp": _run_mp,
    "netsim": _run_netsim,
    "obs": _run_obs,
    "strict": _run_strict,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitsim-bench",
        description="SplitSim hot-path microbenchmarks (JSON results).")
    parser.add_argument("bench", choices=sorted(RUNNERS) + ["all"],
                        help="which benchmark family to run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="duration multiplier (0.1 = quick smoke run)")
    parser.add_argument("--fluid", action="store_true",
                        help="with the netsim family, also run the fig6 "
                             "long-flow workload packet-level vs fluid "
                             "(dctcp_longflows_packet/_fluid)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (best-of is reported)")
    parser.add_argument("--no-alloc", action="store_true",
                        help="skip the tracemalloc allocation pass")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSON results document here")
    parser.add_argument("--compare", metavar="BASELINE", default=None,
                        help="previously written document to compute speedups "
                             "against")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        # fail fast: don't run minutes of benchmarks before discovering
        # the baseline document is unreadable
        try:
            baseline = load_json(args.compare)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline {args.compare}: {exc}",
                  file=sys.stderr)
            return 1
    names = sorted(RUNNERS) if args.bench == "all" else [args.bench]
    results: List[BenchResult] = []
    for name in names:
        results.extend(RUNNERS[name](args.scale, args.repeat,
                                     not args.no_alloc))
    if args.fluid:
        if "netsim" not in names:
            print("error: --fluid extends the netsim family "
                  "(splitsim-bench netsim --fluid)", file=sys.stderr)
            return 2
        results.extend(_run_fluid(args.scale, args.repeat, not args.no_alloc))
    doc = results_doc(args.bench, results)
    for r in results:
        line = (f"{r.name}: {r.events_per_sec:,.0f} ev/s "
                f"({r.events} events in {r.wall_seconds:.3f}s)")
        pps = r.extra.get("packets_per_sec")
        if pps:
            line += f", {pps:,.0f} pkt/s"
        if r.alloc_peak_kib:
            line += f", alloc peak {r.alloc_peak_kib:,.0f} KiB"
        print(line)
    if args.compare:
        speedups = compare_docs(baseline, doc)
        doc["baseline"] = baseline
        doc["speedup"] = speedups
        print("speedups vs", args.compare)
        print(json.dumps(speedups, indent=2))
    if args.out:
        write_json(args.out, doc)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
