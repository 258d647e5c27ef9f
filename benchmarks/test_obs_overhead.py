"""Guard: each opt-in recorder costs at most 5% on a strict run.

Every guard times one recorder against its baseline on the strict mixed
workload (``build_mixed_system``, 1 ms simulated), in alternating
baseline/recorder pairs inside this one process, and bounds the *median*
of the per-pair throughput ratios.  Pairs taken back to back see the same
machine state, so the ratio holds on a slow VM as on a fast one; the median
ignores the odd pair a scheduler hiccup lands in.  All variants execute the
identical event timeline (the determinism guard pins this), so the ratio of
wall times is the ratio of events/sec.

There is deliberately no absolute guard ("the untraced kernel is free"):
that question is what the ``kernel_timers`` workload of
``benchmarks/ladder`` answers, in same-session parent/change pairs, on
every PR.

Not part of the tier-1 suite (timing-sensitive); runs with the rest of
``pytest benchmarks/``.
"""

import statistics
import time

from repro.bench.workloads import build_mixed_system
from repro.kernel.simtime import MS
from repro.orchestration.instantiate import Instantiation

DURATION_PS = 1 * MS
PAIRS = 15
#: Allowed throughput cost of a recorder over its baseline.
MAX_REGRESSION = 0.05


def _wall_s(**recorders) -> float:
    """Wall seconds of one strict mixed run with ``recorders`` attached."""
    exp = Instantiation(build_mixed_system(), mode="strict",
                        **recorders).build()
    t0 = time.perf_counter()
    try:
        exp.run(DURATION_PS)
    finally:
        exp.disable_flow_tracing()  # the flow recorder is process-global
    return time.perf_counter() - t0


def median_ratio(baseline: dict, variant: dict) -> float:
    """Median over alternating pairs of baseline wall / variant wall."""
    ratios = []
    for _ in range(PAIRS):
        base = _wall_s(**baseline)
        ratios.append(base / _wall_s(**variant))
    return statistics.median(ratios)


def test_flow_tagging_unsampled_overhead_within_bound():
    """Flow tracing with (effectively) nothing sampled is near-free.

    A divisor so large no flow gets tagged leaves every downstream site on
    its ``flow == 0`` fast branch; only the origin-side allocate-and-test
    cost remains on top of plain tracing.
    """
    ratio = median_ratio({"trace": True},
                         {"trace": True, "flow_sample": 1 << 23})
    assert ratio >= 1.0 - MAX_REGRESSION, (
        f"unsampled flow tracing costs more than {MAX_REGRESSION:.0%} on "
        f"top of plain tracing: median ratio {ratio:.3f}")


def test_timeline_overhead_within_bound():
    """The epoch timeline samples counters only at round boundaries, so
    the per-event path is untouched."""
    ratio = median_ratio({}, {"timeline": True})
    assert ratio >= 1.0 - MAX_REGRESSION, (
        f"the epoch timeline costs more than {MAX_REGRESSION:.0%} on top "
        f"of an untraced strict run: median ratio {ratio:.3f}")


def test_audit_overhead_within_bound():
    """The divergence auditor pays one ``list.append`` per event on the
    kernel trace hook; window splitting and digest chaining run at round
    boundaries only."""
    ratio = median_ratio({}, {"audit": True})
    assert ratio >= 1.0 - MAX_REGRESSION, (
        f"the audit ledger costs more than {MAX_REGRESSION:.0%} on top "
        f"of an untraced strict run: median ratio {ratio:.3f}")
