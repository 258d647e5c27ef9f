"""Every pinned outcome, the file that holds it and the code that produces it.

    PYTHONPATH=src python -m tests.pins --write [NAME...]

rewrites the named pins (default: all of them) from their producers and
prints each one's wall time.  There is no check mode: the tier-1 test that
owns a pin calls the same producer and compares it exactly with the file
named here, and CI runs ``--write`` followed by ``git diff --exit-code``.
So a change that is meant to move the simulated outcome regenerates every
pin with this one command, and its diff is the review.

A producer returns the pin's document.  A ``str`` is written as it is (a
JSONL ledger, a file a benchmark writes itself); anything else goes
through the one canonical JSON serializer, :func:`dump`.  A *fixture* is
a frozen document in an old format that the tests read for compatibility:
``--write`` never touches it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def dump(doc) -> str:
    """A pin's file text: ``doc`` itself if it is text, else canonical
    JSON."""
    if isinstance(doc, str):
        return doc
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def as_pinned(doc):
    """``doc`` as it reads back from a pin file (tuples become lists)."""
    return json.loads(dump(doc))


def _in(module: str, function: str):
    """The producer ``tests.<module>.<function>``, imported when called."""
    return lambda: getattr(importlib.import_module(f"tests.{module}"),
                           function)()


def _run(*argv: str) -> str:
    """Run ``argv`` from the repo root, with ``src`` importable and the
    benchmarks at CI scale; its stdout."""
    env = dict(os.environ, SPLITSIM_SCALE="ci", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.stdout


def _ladder(*args: str) -> dict:
    """One ladder benchmark run; its final JSON line."""
    out = _run(sys.executable, "benchmarks/ladder/run.py", *args)
    return json.loads(out.splitlines()[-1])


def ladder_expected() -> str:
    """Each ``seed@scale`` key already in ``expected.json``, re-run for
    every workload there with ``run.py --update-expected``, which rewrites
    the file."""
    doc = pinned("ladder_expected")
    workloads = [arg for w in sorted(doc) for arg in ("--workload", w)]
    for key in sorted({key for runs in doc.values() for key in runs}):
        seed, scale = key.split("@")
        _ladder("--update-expected", "--seed", seed, "--scale", scale,
                "--reps", "1", *workloads)
    return path("ladder_expected").read_text()


#: the structural counts ladder-smoke gates, per workload: they repeat
#: exactly for seed 1, so a change that moves them changed the protocol
LADDER_COUNTS = {
    "dc_strict": ("coord.rounds", "coord.advance_calls", "channels.msgs",
                  "channels.syncs"),
    "fig6_dctcp": ("netsim.pkts",),
}


def ladder_counts() -> dict:
    """The counts of one traced seed-1 rep of each workload."""
    line = _ladder("--seed", "1", "--reps", "1", "--trace", "1",
                   *[arg for w in LADDER_COUNTS for arg in ("--workload", w)])
    return {w: {name: line["metrics"][f"{w}.{name}"]["value"]
                for name in names} for w, names in LADDER_COUNTS.items()}


def model_result(stem: str) -> str:
    """``results/<stem>.json``, as ``benchmarks/test_<stem>.py`` writes
    it at CI scale."""
    _run(sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"benchmarks/test_{stem}.py")
    return (ROOT / "results" / f"{stem}.json").read_text()


#: name -> (file, relative to the repo root; producer)
PINS = {
    "golden_digest": ("tests/data/golden_digest.json",
                      _in("test_determinism_guard", "golden_root")),
    "golden_strict_coordinator": ("tests/golden_strict_coordinator.json",
                                  _in("test_strict_coordinator", "golden")),
    "parent_audit": ("tests/data/parent_audit.jsonl",
                     _in("test_recorder_seam", "pipeline_audit")),
    "pipeline_timeline": ("tests/data/pipeline_timeline.json",
                          _in("test_recorder_seam", "pipeline_columns")),
    "parent_work": ("tests/data/parent_work.json",
                    _in("test_work_record", "recorded_buckets")),
    "parent_model_channels": ("tests/data/parent_model_channels.json",
                              _in("test_model_channels", "derived_channels")),
    "parent_profile_analysis": ("tests/data/parent_profile_analysis.json",
                                _in("test_obs_inspect", "profile_views")),
    "parent_run_watch": ("tests/data/parent_run_watch.json",
                         _in("test_obs_live", "watch_shapes")),
    "ladder_expected": ("benchmarks/ladder/expected.json", ladder_expected),
    "ladder_counts": ("tests/data/ladder_counts.json", ladder_counts),
    **{stem: (f"results/{stem}.json", partial(model_result, stem))
       for stem in ("fig7_gem5_multicore", "fig8_native_parallel",
                    "fig9_partition_strategies", "tab1_comparison")},
}

#: frozen documents the tests read, never written
FIXTURES = ("tests/data/parent_timeline.jsonl",)


def path(name: str) -> Path:
    return ROOT / PINS[name][0]


def pinned(name: str):
    """The pin's JSON document, as the owning test reads it."""
    return json.loads(path(name).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.pins",
        description="Regenerate pinned outcomes from their producers.")
    parser.add_argument("--write", action="store_true", required=True,
                        help="rewrite the named pins (default: all)")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"one of: {', '.join(PINS)}")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in PINS]
    if unknown:
        parser.error(f"unknown pin: {', '.join(unknown)}")
    for name in args.names or PINS:
        start = time.perf_counter()
        text = dump(PINS[name][1]())
        path(name).write_text(text)
        print(f"{name}: wrote {PINS[name][0]} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
