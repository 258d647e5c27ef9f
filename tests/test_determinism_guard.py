"""Determinism guard: the event timeline is bit-exact across optimizations.

Every run here records the audit ledger (:mod:`repro.obs.audit`) of a
mixed workload (UDP KV + TCP bulk + one detailed host) and pins its root —
one SHA-256 over the full per-component timestamp timeline — to
``GOLDEN_DIGEST``, the pin ``golden_digest`` of :mod:`tests.pins`
(``tests/data/golden_digest.json``), whose producer is the fast-mode root
(:func:`golden_root`).  It was first captured before the tuple-heap/pooling
kernel rework, by a hook independent of the auditor.  Any hot-path change
that reorders or retimes even one event — in either execution mode, with
any recorder on — fails here.  ``assert_same_timeline`` is the same check
between two runs; every fast == strict == mp and recorder-on == off pin
goes through it.

On a mismatch neither check just fails: the ledgers localize *where* the
timeline moved — the first divergent (epoch, component) when the runs
disagree, or the per-component digests when both moved together.
"""

import pytest

from repro.bench.workloads import build_mixed_system
from repro.kernel.simtime import MS, US
from repro.obs.audit import diff_ledgers
from repro.obs.inspect.diff import render_audit_diff
from repro.orchestration.instantiate import Instantiation

from .pins import pinned

#: SHA-256 over "name:ts,ts,...;" per component (sorted by name) of
#: build_mixed_system() run to 2 ms
GOLDEN_DIGEST = pinned("golden_digest")["root"]
DURATION = 2 * MS


def assert_same_timeline(ref, got) -> None:
    """The determinism assertion: two audit ledgers share one root and
    agree row for row; on a mismatch, fail with the diff that localizes
    it."""
    diff = diff_ledgers(ref, got)
    if ref.root is not None and got.root == ref.root and diff.identical \
            and diff.rows_compared:
        return
    pytest.fail("event timelines differ:\n" + render_audit_diff(
        diff, ref, got, "reference", "got"))


def audited(mode: str, **options):
    """The golden workload, built with the audit ledger plus ``options``
    and run to ``DURATION``."""
    exp = Instantiation(build_mixed_system(), mode=mode, audit=True,
                        **options).build()
    try:
        exp.run(DURATION)
    finally:
        exp.disable_flow_tracing()
    return exp


def golden_root() -> dict:
    """The pin ``golden_digest``: the fast-mode audit root."""
    return {"root": audited("fast").recorders["audit"].root_digest()}


def assert_golden(exp) -> None:
    """The guard assertion, with audit-ledger localization on failure."""
    ledger = exp.recorders["audit"].to_ledger()
    if ledger.root == GOLDEN_DIGEST:
        return
    other = "strict" if ledger.mode == "fast" else "fast"
    lines = [f"{ledger.mode} audit root diverged from golden:",
             f"  got    {ledger.root}", f"  golden {GOLDEN_DIGEST}"]
    ref = audited(other, audit_window_ps=ledger.window_ps
                  ).recorders["audit"].to_ledger()
    diff = diff_ledgers(ref, ledger)
    if diff.identical:
        lines.append("both modes produce the same (wrong) timeline — the "
                     "change moved events in both; per-component digests:")
        digests = ledger.component_digests()
        for name in ledger.components:
            d = digests.get(name)
            lines.append(f"  {name}: {d[:16] + '...' if d else '(no events)'}")
    else:
        lines.append(f"audit diff ({other} vs {ledger.mode}) localizes it:")
        lines.append(render_audit_diff(diff, ref, ledger, other,
                                       ledger.mode))
    pytest.fail("\n".join(lines))


def test_fast_mode_timeline_matches_golden():
    assert_golden(audited("fast"))


def test_strict_mode_timeline_matches_golden():
    assert_golden(audited("strict"))


def test_fast_mode_timeline_unchanged_with_tracing():
    # observability is observation only: the traced kernel drain must
    # execute the exact same event timeline as the untraced one
    assert_golden(audited("fast", trace=True))


def test_strict_mode_timeline_unchanged_with_tracing():
    assert_golden(audited("strict", trace=True))


def test_fast_mode_timeline_unchanged_with_flow_tracing():
    # causal flow tagging rides existing messages; tracing every flow
    # must not move a single event
    assert_golden(audited("fast", flow_sample=1))


def test_strict_mode_timeline_unchanged_with_flow_tracing():
    assert_golden(audited("strict", flow_sample=1))


def test_timeline_unchanged_with_sampled_flow_tracing():
    # the sampling decision (keep 1-in-N at the origin) is metadata only
    assert_golden(audited("fast", flow_sample=7))
    assert_golden(audited("strict", flow_sample=7))


def test_fast_mode_timeline_unchanged_with_auditing():
    # the root is a fold over whole timelines: 1 us epochs (hundreds of
    # rows and flushes) fold to the same root as the default 64 us ones
    assert_golden(audited("fast", audit_window_ps=1 * US))


def test_strict_mode_timeline_unchanged_with_auditing():
    assert_golden(audited("strict", audit_window_ps=1 * US))


def test_strict_mode_timeline_unchanged_with_timeline():
    # the timeline is also the profiler's record
    assert_golden(audited("strict", timeline=True))


@pytest.mark.parametrize("mode", ["fast", "strict"])
def test_timeline_unchanged_with_work_window(mode):
    exp = audited(mode, work_window_ps=10 * US)
    assert_golden(exp)
    # the work probe's hook, chained with the audit hook, still sees every
    # event
    work = exp.recorders["work"]
    for c in exp.sim.components:
        assert work.total_work(c.name) == c.work_cycles, c.name
