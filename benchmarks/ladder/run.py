"""The repo benchmark: one ladder, six workloads, measured in one session.

    python3 benchmarks/ladder/run.py [--workload NAME]... [--seed N]
        [--seconds S | --reps N] [--scale F] [--trace [0|1]]
        [--check-repeat] [--update-expected] [--timeout 120]

Runs every (workload, rep) as a fresh ``worker.py`` subprocess with
``PYTHONHASHSEED=0``, one at a time, reps interleaved round-robin across
workloads so machine drift lands on all of them alike.  Prints every metric
by name with its unit, checks the simulated outcomes, writes
``out/result.json`` (and ``out/trace_<workload>.json`` with ``--trace``),
and ends with one JSON line: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")

#: the rungs of the ladder, bottom up
LADDER = ("kernel_timers", "ft_fast", "ft_strict2", "ft_mp2")
#: ft_mp2 must agree with in-process strict to this relative tolerance:
#: run_mp stops each child at its own horizon, a few simulated
#: microseconds of slack on a 3 ms run (worst seen over 12 seeds x 4 reps:
#: 3 of 5240 KV completions = 0.06%, 22 of 104k events = 0.02%)
MP_TOLERANCE = 0.002
WARMUP_SCALE = 0.02

with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


# -- one worker ---------------------------------------------------------------

def _shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def run_worker(workload: str, seed: int, scale: float, rep: str,
               timeout: float, *extra: str) -> dict:
    """Run one worker; returns its document, or ``{"error": reason}``.

    The worker leads its own process group: on timeout the whole group is
    killed (a wedged ``run_mp`` child included) and the shared-memory
    segments it created are swept, so nothing leaks into the next rep.
    """
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), "--rep", rep, "--timeout", str(timeout),
           *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = _shm_segments()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for name in _shm_segments() - before:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
        return {"error": f"timeout after {timeout:g}s", "timeout": True}
    if proc.returncode != 0:
        return {"error": f"worker exited with code {proc.returncode}"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "worker printed no result"}


# -- outcome checks --------------------------------------------------------

def _within(a: float, b: float) -> bool:
    return abs(a - b) <= MP_TOLERANCE * max(abs(a), abs(b), 1)


def check_outcome(doc: dict, first: dict | None, expected: dict | None,
                  strict_ref: dict | None) -> str | None:
    """Why this rep's outcome is wrong, or ``None`` when it is right."""
    if doc["events"] <= 0:
        return "no events executed"
    apps = doc["sim"].get("apps")
    if apps is not None:  # conservation, whatever the seed
        served = sum(a.get("kv_served", 0) for a in apps.values())
        if not 0 < doc["sim"]["kv_completed"] + doc["sim"]["sink_bytes"] \
                or served < doc["sim"]["kv_completed"]:
            return "applications made no progress or replies outnumber requests"
    if strict_ref is not None:  # ft_mp2 against in-process strict
        sim, ref = doc["sim"], strict_ref["sim"]
        for key in ("packets", "drops", "kv_completed", "sink_bytes"):
            if not _within(sim[key], ref[key]):
                return f"{key} {sim[key]} vs strict {ref[key]}"
        for name, n in strict_ref["per_component_events"].items():
            got = doc["per_component_events"].get(name, 0)
            if not _within(got, n):
                return f"{name} ran {got} events vs strict {n}"
        return None
    if first is not None and doc["sha"] != first["sha"]:
        return "outcome differs from the first rep (nondeterministic)"
    if expected is not None and doc["sim_sha"] != expected["sim_sha"]:
        return "simulated outcome differs from expected.json"
    return None


# -- one set of runs ---------------------------------------------------------

class WorkloadRuns:
    """Every worker document of one workload in one set."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.reps: list = []      # good timed reps, tracing off
        self.traced: list = []    # good reps with the benchmark's spans on
        self.observed: list = []  # dc_strict only: program observers on
        self.strict_reps = None   # ft_mp2 only: in-process strict docs
        self.failures: list = []
        self.attempted = 0
        self.gave_up = False

    def fail(self, rep: str, reason: str) -> None:
        self.failures.append({"rep": rep, "reason": reason})
        print(f"  FAILED {self.name} rep {rep}: {reason}", file=sys.stderr)


def measure_set(workloads, seed: int, scale: float, reps: int | None,
                seconds: float, trace: bool, timeout: float,
                expected: dict) -> dict:
    """Warm up, run the timed reps round-robin, then the traced pass.
    Returns ``{workload: WorkloadRuns}``."""
    runs = {w: WorkloadRuns(w) for w in workloads}
    key = f"{seed}@{scale:g}"

    def launch(r: WorkloadRuns, rep: str, *extra, ref=None,
               workload=None) -> dict | None:
        r.attempted += 1
        workload = workload or r.name
        doc = run_worker(workload, seed, scale, rep, timeout, *extra)
        reason = doc.get("error")
        if reason is None:
            reason = check_outcome(doc, r.reps[0] if r.reps else None,
                                   expected.get(workload, {}).get(key), ref)
        if reason is not None:
            r.gave_up = r.gave_up or bool(doc.get("timeout"))
            r.fail(rep, reason)
            return None
        return doc

    def strict_reference(mp: WorkloadRuns) -> dict | None:
        """The in-process strict run ``ft_mp2`` is checked against: the
        set's own ``ft_strict2`` when it has one, else one extra rep."""
        if mp.strict_reps is None:
            if "ft_strict2" in runs:
                mp.strict_reps = runs["ft_strict2"].reps  # grows with the set
            else:
                doc = launch(mp, "strict-ref", workload="ft_strict2")
                mp.strict_reps = [doc] if doc else []
        if not mp.strict_reps:
            mp.attempted += 1
            mp.fail("all", "no in-process strict reference")
            mp.gave_up = True
            return None
        return mp.strict_reps[0]

    def round_robin(lanes, seconds: float) -> None:
        """Give every lane one more rep per round while it has budget left:
        ``reps`` of them, or while its reps so far plus its longest one
        fit in ``seconds``.  A lane is (runs, the list its good documents
        go to, a rep label, extra worker arguments)."""
        clocks = [[0.0, 0.0] for _ in lanes]  # [spent, longest rep]
        rep_no = 0
        while True:
            ran_any = False
            for (r, docs, label, extra), clock in zip(lanes, clocks):
                if r.gave_up or (rep_no >= reps if reps is not None else
                                 rep_no and sum(clock) > seconds):
                    continue
                ref = strict_reference(r) if r.name == "ft_mp2" else None
                if r.gave_up:
                    continue
                ran_any = True
                t0 = time.perf_counter()
                doc = launch(r, f"{label}{rep_no}", *extra, ref=ref)
                took = time.perf_counter() - t0
                clock[:] = clock[0] + took, max(clock[1], took)
                if doc is not None:
                    docs.append(doc)
            if not ran_any:
                return
            rep_no += 1

    for w in workloads:  # discarded: fills __pycache__ and the page cache
        run_worker(w, seed, WARMUP_SCALE, "warmup", timeout)
    round_robin([(r, r.reps, "", ()) for r in runs.values()], seconds)
    if trace:
        os.makedirs(OUT, exist_ok=True)
        lanes = [(r, r.traced, "traced", (
            "--trace-out", os.path.join(OUT, f"trace_{r.name}.json")))
            for r in runs.values() if r.reps]
        lanes += [(r, r.observed, "observers", ("--observers",))
                  for r in runs.values() if r.reps and r.name == "dc_strict"]
        round_robin(lanes, seconds / 2)
    return runs


# -- metrics -------------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _stat(values) -> dict:
    return {"median": _median(values), "min": min(values, default=0.0),
            "max": max(values, default=0.0), "n": len(values)}


def summarise(r: WorkloadRuns) -> dict:
    """End-to-end statistics and per-layer metrics of one workload."""
    e2e = {"run_cu": _stat([d["run_cu"] for d in r.reps]),
           "setup_s": _stat([d["setup_s"] for d in r.reps]),
           "peak_rss_mb": _stat([d["peak_rss_mb"] for d in r.reps])}
    layers = dict.fromkeys(PER_LAYER)  # None: does not apply here
    if not r.reps:
        return {"end_to_end": e2e, "layers": layers}
    first = r.reps[0]
    counts, sim, events = first["counts"], first["sim"], first["events"]
    run_s = _median([d["run_s"] for d in r.reps])
    run_cu = e2e["run_cu"]["median"]
    layers.update({
        "run_s": run_s,
        "events_per_s": _ratio(events, run_s),
        "sim_us_per_s": _ratio(first["sim_ps"] / 1e6, run_s),
        "orchestration.build_s": _median([d["build_s"] for d in r.reps]),
        "kernel.ns_per_event": _ratio(run_s * 1e9, events),
    })
    for key in ("pool_reuse_rate", "cancelled_ratio", "peak_heap",
                "event_allocations"):
        layers[f"kernel.{key}"] = counts.get(key)  # no SimStats under mp
    if "packets" in sim:  # every workload but kernel_timers
        pkts = sim["packets"]
        layers.update({
            "netsim.pkts": pkts,
            "netsim.events_per_pkt": _ratio(events, pkts),
            "netsim.ns_per_pkt": _ratio(run_s * 1e9, pkts),
            "netsim.drops": sim["drops"],
        })
        per_comp = first["per_component_events"]
        for layer, match in (("hostsim", lambda n: n.endswith(".host")),
                             ("nicsim", lambda n: n.endswith(".nic")),
                             ("net", lambda n: n.split(".")[0] == "net")):
            layers[f"{layer}.event_share"] = _ratio(
                sum(n for name, n in per_comp.items() if match(name)), events)
    if counts["msgs"]:  # partitioned: strict in-process or mp
        layers.update({
            "channels.msgs": counts["msgs"],
            "channels.syncs": counts["syncs"],
            "channels.syncs_per_msg": _ratio(counts["syncs"], counts["msgs"]),
        })
    if counts.get("rounds"):  # strict in-process
        layers["coord.rounds"] = counts["rounds"]
        layers["coord.events_per_round"] = _ratio(events, counts["rounds"])
    if "children" in counts:  # ft_mp2
        kids = [d["counts"]["children"].values() for d in r.reps]
        layers.update({
            "mp.spawn_s": _median([d["spawn_s"] for d in r.reps]),
            "mp.wait_share": _median([
                _ratio(sum(k["wait_s"] for k in ks),
                       sum(k["wall_s"] for k in ks)) for ks in kids]),
            "mp.frames_per_batch": _ratio(
                sum(k["frames_out"] for k in kids[0]),
                sum(k["batches_out"] for k in kids[0])),
            "mp.sync_frames_per_data_frame": layers["channels.syncs_per_msg"],
            "mp.pickle_fallbacks": sum(k["pickle_fallbacks"]
                                       for k in kids[0]),
            "mp.speedup_vs_strict": _ratio(
                _median([d["run_cu"] for d in r.strict_reps]), run_cu),
            "mp.tail_event_delta": max(
                (d["events"] - r.strict_reps[0]["events"] for d in r.reps),
                key=abs),
            "mp.exact_match_reps": sum(
                d["sha"] == r.strict_reps[0]["sha"] for d in r.reps),
        })
    if r.traced:
        layers["trace_overhead"] = _ratio(
            _median([t["run_cu"] for t in r.traced]), run_cu)
        if r.traced[0].get("advance_calls"):  # strict in-process
            t = r.traced[0]
            layers.update({
                "coord.advance_calls": t["advance_calls"],
                "coord.idle_advance_share": _ratio(t["idle_advance_calls"],
                                                   t["advance_calls"]),
                "coord.self_s": _median([t["run_s"] - t["advance_s"]
                                         for t in r.traced]),
                "coord.self_share": _median([1 - t["advance_s"] / t["run_s"]
                                             for t in r.traced]),
            })
    if r.observed:
        layers["obs.enabled_ratio"] = _ratio(
            _median([d["run_cu"] for d in r.observed]), run_cu)
    return {"end_to_end": e2e, "layers": layers}


def fingerprint() -> dict:
    try:
        rev = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO))
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"machine": platform.machine(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_rev": rev}


def report(runs: dict, config: dict) -> dict:
    """Summarise a set, print it, and return the ``result.json`` document."""
    result = {"fingerprint": fingerprint(), "config": config, "workloads": {}}
    for r in runs.values():
        doc = summarise(r)
        doc.update(attempted=r.attempted, failed=len(r.failures),
                   failed_share=_ratio(len(r.failures), r.attempted),
                   failures=r.failures,
                   **{lane: [{k: d.get(k) for k in (
                       "rep", "run_s", "run_cu", "calib", "setup_s", "build_s",
                       "spawn_s", "peak_rss_mb", "events", "sha", "advance_s")}
                       for d in docs]
                      for lane, docs in (("reps", r.reps),
                                         ("traced", r.traced),
                                         ("observed", r.observed))},
                   outcome=r.reps[0]["sim"] if r.reps else None,
                   sim_sha=r.reps[0]["sim_sha"] if r.reps else None,
                   events=r.reps[0]["events"] if r.reps else 0)
        result["workloads"][r.name] = doc
        print(f"\n== {r.name}: {len(r.reps)} reps, failed_share "
              f"{doc['failed_share']:.3f} ({doc['failed']}/{r.attempted})")
        for name, st in doc["end_to_end"].items():
            m = END_TO_END[name]
            print(f"  {name:<32}{st['median']:>14.4f} {m['unit']:<13}"
                  f"min {st['min']:.4f} max {st['max']:.4f} n {st['n']}"
                  f"  ({m['better']} is better, bound {m['bound']})")
        for name, value in doc["layers"].items():
            if value is not None:
                print(f"  {name:<32}{value:>14.4f} {PER_LAYER[name]['unit']}")
    rungs = [w for w in LADDER if runs.get(w) and runs[w].reps]
    if len(rungs) > 1:
        print("\n== ladder (ns per event; multiplier over the rung below)")
        result["ladder"] = []
        below = None
        for w in rungs:
            ns = result["workloads"][w]["layers"]["kernel.ns_per_event"]
            row = {"workload": w, "ns_per_event": ns,
                   "multiplier": _ratio(ns, below) if below else 1.0}
            result["ladder"].append(row)
            print(f"  {w:<16}{ns:>10.1f} ns/event   x{row['multiplier']:.2f}")
            below = ns
    return result


def final_line(result: dict, trace: bool) -> dict:
    """The one-line verdict; metric names are prefixed with the workload
    when the set held more than one."""
    docs = result["workloads"]
    metrics = {}
    for w, doc in docs.items():
        prefix = f"{w}." if len(docs) > 1 else ""
        if trace:
            for name, value in doc["layers"].items():
                metrics[prefix + name] = {"value": value or 0,
                                          "unit": PER_LAYER[name]["unit"]}
        else:
            for name, st in doc["end_to_end"].items():
                metrics[prefix + name] = {"value": st["median"],
                                          "unit": END_TO_END[name]["unit"]}
    failed = sum(d["failed"] for d in docs.values())
    return {"correct": failed == 0,
            "attempted": sum(d["attempted"] for d in docs.values()),
            "failed": failed, "metrics": metrics}


# -- repeatability -----------------------------------------------------------

def check_repeat(a: dict, b: dict) -> bool:
    """Do two sets of the same code agree within each metric's bound?"""
    ok = True
    print("\n== check-repeat: medians of two back-to-back sets")
    for w in a["workloads"]:
        wa, wb = a["workloads"][w], b["workloads"][w]
        for name, m in END_TO_END.items():
            va = wa["end_to_end"][name]["median"]
            vb = wb["end_to_end"][name]["median"]
            spread = _ratio(abs(va - vb), min(va, vb))
            good = spread <= m["bound"]
            ok = ok and good
            print(f"  {w:<14}{name:<12}{va:>12.4f}{vb:>12.4f}  spread "
                  f"{spread:.4f}  bound {m['bound']}"
                  f"{'' if good else '  EXCEEDED'}")
        if w != "ft_mp2" and [d["sha"] for d in wa["reps"][:1]] != [
                d["sha"] for d in wb["reps"][:1]]:
            ok = False
            print(f"  {w}: event counts differ between the two sets")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="run only these (default: all six)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="keep starting reps of a workload while they fit "
                         "in this much wall time (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--reps", type=int,
                    help="instead of --seconds: exactly this many timed "
                         "reps per workload")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every simulated duration (smoke tests "
                         "only; BENCHMARK.json measures at 1)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    help="add one traced rep per workload; the final line "
                         "then carries the per-layer metrics")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="per worker, seconds")
    ap.add_argument("--check-repeat", action="store_true")
    ap.add_argument("--update-expected", action="store_true")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print("ladder: no src/repro beside the benchmark -- nothing to "
              "measure", file=sys.stderr)
        return 2
    workloads = [w for w in WORKLOADS if w in (args.workload or WORKLOADS)]
    reps = args.reps
    # with --trace the untraced reps get half the budget, the traced reps
    # (and dc_strict's observers-on reps) a quarter each
    seconds = args.seconds / 2 if args.trace else args.seconds
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    pinned = {} if args.update_expected else expected
    config = {"seed": args.seed, "scale": args.scale, "reps": reps,
              "seconds": None if reps else args.seconds,
              "trace": bool(args.trace)}

    def one_set(seed: int, reps=reps, seconds=seconds,
                trace=bool(args.trace)) -> dict:
        runs = measure_set(workloads, seed, args.scale, reps, seconds, trace,
                           args.timeout, pinned)
        return report(runs, dict(config, seed=seed))

    result = one_set(args.seed)
    ok = True
    if args.check_repeat:
        second = one_set(args.seed, trace=False)
        ok = check_repeat(result, second)
        other = one_set(args.seed + 1, reps=2, seconds=None, trace=False)
        ok = ok and not any(d["failed"] for s in (second, other)
                            for d in s["workloads"].values())
        result["repeat"] = {"second_set": second, "other_seed": other,
                            "agree": ok}
    if args.update_expected:
        key = f"{args.seed}@{args.scale:g}"
        for w, doc in result["workloads"].items():
            if w != "ft_mp2" and doc["sim_sha"] and not doc["failed"]:
                expected.setdefault(w, {})[key] = {
                    "sim_sha": doc["sim_sha"], "events": doc["events"]}
        with open(EXPECTED, "w") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    line = final_line(result, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] and ok else 1


if __name__ == "__main__":
    sys.exit(main())
