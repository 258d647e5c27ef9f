"""One rep of one ladder workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONHASHSEED=0`` (ECMP hashes a tuple that
holds a ``str``; without it event counts differ run to run).  Prints one
JSON document as the last line of stdout: timings, layer counts, and the
outcome the parent checks.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import hashlib
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "..", "src")]

from calib import calibrate
from spans import SpanLog


# -- outcome: what was simulated, read from public counters after the run ---

def _queues(net):
    for link in net.links:
        yield link.dir_ab.queue
        yield link.dir_ba.queue
    for att in net.externals.values():
        yield att.ext.direction.queue


def _apps_outcome(name: str, apps) -> dict:
    out = {}
    for i, app in enumerate(apps):
        rec = {}
        stats = getattr(app, "stats", None)
        if stats is not None:  # KV client
            rec.update(kv_sent=stats.sent, kv_completed=stats.completed,
                       kv_latency_ps=sum(s[1] for s in stats.latencies))
        if hasattr(app, "served_reads"):  # KV server
            rec.update(kv_served=app.served_reads + app.served_writes)
        if hasattr(app, "delivered"):  # bulk sink
            rec.update(sink_bytes=app.delivered)
        conn = getattr(app, "conn", None)
        if conn is not None:  # bulk sender
            rec.update(acked_bytes=conn.snd_una, retransmits=conn.retransmits,
                       timeouts=conn.timeouts)
        if rec:
            out[f"{name}.app{i}"] = rec
    return out


def net_outcome(net) -> dict:
    """Simulated statistics of one network component and its hosts' apps."""
    queues = list(_queues(net))
    out = {"packets": net.total_tx_packets(),
           "drops": sum(q.stats.dropped for q in queues),
           "ecn_marked": sum(q.stats.ecn_marked for q in queues),
           "apps": {}}
    for node in net.nodes.values():
        out["apps"].update(_apps_outcome(node.name, getattr(node, "apps", ())))
    return out


def merge_outcomes(parts) -> dict:
    """Sum the per-component outcomes into the simulated-outcome dict."""
    sim = {"packets": 0, "drops": 0, "ecn_marked": 0, "apps": {}}
    for part in parts:
        for key in ("packets", "drops", "ecn_marked"):
            sim[key] += part.get(key, 0)  # detailed hosts carry apps only
        sim["apps"].update(part["apps"])
    apps = sim["apps"].values()
    for key in ("kv_completed", "sink_bytes"):
        sim[key] = sum(a.get(key, 0) for a in apps)
    return sim


def sha(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


# -- running -----------------------------------------------------------------

def _trace_advances(log: SpanLog, components) -> None:
    """Fold every ``Component.advance`` call into a per-component aggregate
    under the open span, by shadowing the bound method on the instance."""
    clock = time.perf_counter
    for comp in components:
        agg = log.aggregate(f"advance:{comp.name}")

        def advance(target, comp=comp, agg=agg, inner=comp.advance):
            before = comp.events_processed
            t0 = clock()
            commit = inner(target)
            agg["total_s"] += clock() - t0
            agg["count"] += 1
            if comp.events_processed == before:
                agg["zero_event_count"] += 1
            return commit

        comp.advance = advance


def _trace_run_until(log: SpanLog) -> None:
    """Fast mode: the one ``EventQueue.run_until`` drain becomes a span."""
    from repro.kernel.events import EventQueue
    inner = EventQueue.run_until

    def run_until(self, until):
        with log.span("kernel.run_until"):
            return inner(self, until)

    EventQueue.run_until = run_until


def _end_counts(counter_dicts) -> dict:
    counter_dicts = list(counter_dicts)
    return {"msgs": sum(c["tx_msgs"] for c in counter_dicts),
            "syncs": sum(c["tx_syncs"] for c in counter_dicts)}


def run_in_process(workload, obj, until_ps, log, traced) -> dict:
    sim = getattr(obj, "sim", obj)
    if traced and sim.mode == "fast":
        _trace_run_until(log)
    with log.span("run"):
        if traced and sim.mode == "strict":
            _trace_advances(log, sim.components)
        stats = obj.run(until_ps)
    stats = getattr(stats, "stats", stats)
    if workload == "kernel_timers":
        sim_outcome = {c.name: c.ticks for c in sim.components}
    else:
        sim_outcome = merge_outcomes(
            [net_outcome(n) for n in obj.network_components()]
            + [{"apps": _apps_outcome(h.name, h.os.apps)}
               for h in obj.hosts.values()])
    counts = {"rounds": stats.rounds if sim.mode == "strict" else 0,
              "peak_heap": stats.peak_heap,
              "pool_reuse_rate": stats.pool_reuse_rate,
              "cancelled_ratio": stats.cancelled_ratio,
              "event_allocations": stats.event_allocations}
    counts.update(_end_counts(e.counters() for c in sim.components
                              for e in c.ends))
    return {"sim": sim_outcome, "events": stats.events,
            "per_component_events": stats.per_component_events,
            "counts": counts}


def run_multiprocess(exp, until_ps, log, timeout_s) -> dict:
    # children are forked from this process and report what their
    # component's ``collect_outputs`` returns: make that the same outcome
    # the in-process workloads read
    for net in exp.network_components():
        net.collect_outputs = lambda net=net: net_outcome(net)
    with log.span("run"):
        results = exp.run_mp(until_ps, timeout_s=timeout_s)
    children = {
        name: {"events": r.events, "wall_s": r.wall_seconds,
               "wait_s": r.wait_seconds,
               "frames_out": r.transport["frames_out"],
               "batches_out": r.transport["batches_out"],
               "pickle_fallbacks": r.transport["wire"]["msg_pickle_fallbacks"]
               + r.transport["wire"]["payload_pickles"]}
        for name, r in sorted(results.items())}
    counts = _end_counts(c for r in results.values()
                         for c in r.end_counters.values())
    counts["children"] = children
    return {"sim": merge_outcomes(r.outputs for r in results.values()),
            "events": sum(r.events for r in results.values()),
            "per_component_events": {n: c["events"]
                                     for n, c in children.items()},
            "counts": counts}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--rep", default="0")
    ap.add_argument("--timeout", type=float, default=120.0)
    ap.add_argument("--trace-out", help="record layer spans, write them here")
    ap.add_argument("--observers", action="store_true",
                    help="build with the program's trace/timeline/audit on")
    args = ap.parse_args()
    workload = args.workload
    multiprocess = workload == "ft_mp2"
    observers = (dict(trace=True, timeline=True, audit=True)
                 if args.observers else {})

    log = SpanLog(f"{workload}:{args.seed}:{args.rep}")
    with log.span("setup", start=T_START):
        with log.span("setup.import", start=T_START):
            import workloads
        with log.span("setup.system"):
            system = workloads.SYSTEM[workload](args.seed)
        with log.span("setup.instantiate"):
            obj = workloads.instantiate(workload, system, **observers)
    spawn_s = 0.0
    if multiprocess:
        # fork + shm attach + teardown are set-up too: time them as a 1-ps
        # run_mp on an experiment of its own (run_mp consumes it), whose
        # building is not
        spare = workloads.instantiate(
            workload, workloads.SYSTEM[workload](args.seed))
        with log.span("setup.spawn"):
            spare.run_mp(1, timeout_s=args.timeout)
        spawn_s = log.duration("setup.spawn")
    doc = {"workload": workload, "seed": args.seed, "scale": args.scale,
           "rep": args.rep, "traced": bool(args.trace_out),
           "observers": args.observers,
           "setup_s": log.duration("setup") + spawn_s,
           "build_s": (log.duration("setup.system")
                       + log.duration("setup.instantiate")),
           "spawn_s": spawn_s}

    until_ps = workloads.duration_ps(workload, args.scale)
    busy = 2 if multiprocess else 1  # run_mp: one process per partition
    calib = calibrate(busy)
    if multiprocess:
        ran = run_multiprocess(obj, until_ps, log, args.timeout)
    else:
        ran = run_in_process(workload, obj, until_ps, log,
                             bool(args.trace_out))
    calib += calibrate(busy)
    run_s = log.duration("run")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if multiprocess:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc.update(ran, sim_ps=until_ps, calib=calib, run_s=run_s,
               run_cu=run_s / (sum(calib) / len(calib)),
               peak_rss_mb=rss_kb / 1024.0,
               sim_sha=sha(ran["sim"]),
               sha=sha([ran["sim"], ran["events"],
                        ran["per_component_events"]]))
    if args.trace_out:
        doc["advance_s"] = sum(a["total_s"] for a in log.aggregates)
        doc["advance_calls"] = sum(a["count"] for a in log.aggregates)
        doc["idle_advance_calls"] = sum(a["zero_event_count"]
                                        for a in log.aggregates)
        # fast mode has one drain span: attribute it by event share
        log.dump(args.trace_out,
                 {"workload": workload, "seed": args.seed,
                  "event_share": {n: e / ran["events"] for n, e in
                                  ran["per_component_events"].items()},
                  "children": ran["counts"].get("children")})
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
