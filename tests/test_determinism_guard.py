"""Determinism guard: the event timeline is bit-exact across optimizations.

Hashes the full per-component timestamp timeline of a mixed workload (UDP
KV + TCP bulk + one detailed host) and pins it to a golden digest captured
before the tuple-heap/pooling kernel rework.  Any hot-path change that
reorders or retimes even one event — in either execution mode — fails here.

On a mismatch the guard doesn't just fail: it records per-epoch audit
ledgers (:mod:`repro.obs.audit`) for both modes and reports *where* the
timeline moved — the first divergent (epoch, component) when the modes
disagree, or the per-component digests when both moved together.
"""

import hashlib

import pytest

from repro.bench.workloads import build_mixed_system
from repro.kernel.simtime import MS
from repro.orchestration.instantiate import Instantiation

#: SHA-256 over "name:ts,ts,...;" per component (sorted by name), captured
#: on the pre-optimization kernel for build_mixed_system() run to 2 ms.
GOLDEN_DIGEST = "141c2979831836787e308a6a0b00dcb51ecee797f2c31a3e79de4fffe58e413b"
DURATION = 2 * MS


def timeline_digest(mode: str, traced: bool = False,
                    flow_sample: int = 0, audited: bool = False) -> str:
    exp = Instantiation(build_mixed_system(), mode=mode,
                        audit=audited).build()
    sim = exp.sim
    if traced:
        from repro.obs import Tracer, install_tracer
        install_tracer(sim, Tracer())
    if flow_sample:
        from repro.obs import Tracer, install_flow_recorder
        install_flow_recorder(Tracer(), sample_n=flow_sample)
    lines = {}

    def trace(owner, ts):
        lines.setdefault(owner.name if owner is not None else "?", []).append(ts)

    sim._wire()
    try:
        if mode == "fast":
            sim._shared_queue.trace = trace
            sim._run_fast(DURATION)
        else:
            for c in sim.components:
                c.queue.trace = trace
            sim._run_strict(DURATION)
    finally:
        if flow_sample:
            from repro.obs import uninstall_flow_recorder
            uninstall_flow_recorder()
    digest = hashlib.sha256()
    for name in sorted(lines):
        digest.update(
            (name + ":" + ",".join(map(str, lines[name])) + ";").encode())
    return digest.hexdigest()


def _audited_ledger(mode: str):
    exp = Instantiation(build_mixed_system(), mode=mode, audit=True).build()
    exp.run(DURATION)
    return exp.recorders["audit"].to_ledger()


def assert_golden(mode: str, **kwargs) -> None:
    """The guard assertion, with audit-ledger localization on failure."""
    got = timeline_digest(mode, **kwargs)
    if got == GOLDEN_DIGEST:
        return
    from repro.obs.audit import diff_ledgers
    other = "strict" if mode == "fast" else "fast"
    lines = [f"{mode} timeline digest diverged from golden:",
             f"  got    {got}", f"  golden {GOLDEN_DIGEST}"]
    try:
        mine = _audited_ledger(mode)
        ref = _audited_ledger(other)
        diff = diff_ledgers(ref, mine)
        if diff.identical:
            lines.append(f"both modes produce the same (wrong) timeline — "
                         f"the change retimed events everywhere; "
                         f"per-component digests:")
            for name, d in sorted(mine.component_digests().items()):
                lines.append(f"  {name}: {d[:16]}...")
        else:
            lines.append(f"audit diff ({other} vs {mode}) localizes it:")
            if diff.divergence is not None:
                lines.append(diff.divergence.describe())
            if diff.mismatched_components:
                lines.append("components whose digests differ: "
                             + ", ".join(diff.mismatched_components))
    except Exception as exc:  # localization is best-effort
        lines.append(f"(audit localization unavailable: {exc})")
    pytest.fail("\n".join(lines))


def test_fast_mode_timeline_matches_golden():
    assert_golden("fast")


def test_strict_mode_timeline_matches_golden():
    assert_golden("strict")


def test_fast_mode_timeline_unchanged_with_tracing():
    # observability is observation only: the traced kernel drain must
    # execute the exact same event timeline as the untraced one
    assert_golden("fast", traced=True)


def test_strict_mode_timeline_unchanged_with_tracing():
    assert_golden("strict", traced=True)


def test_fast_mode_timeline_unchanged_with_flow_tracing():
    # causal flow tagging rides existing messages; tracing every flow
    # must not move a single event
    assert_golden("fast", flow_sample=1)


def test_strict_mode_timeline_unchanged_with_flow_tracing():
    assert_golden("strict", flow_sample=1)


def test_timeline_unchanged_with_sampled_flow_tracing():
    # the sampling decision (keep 1-in-N at the origin) is metadata only
    assert_golden("fast", flow_sample=7)
    assert_golden("strict", flow_sample=7)


def test_fast_mode_timeline_unchanged_with_auditing():
    # the divergence auditor is observation only too: its per-event list
    # append (chained into the guard's own trace hook) moves nothing
    assert_golden("fast", audited=True)


def test_strict_mode_timeline_unchanged_with_auditing():
    assert_golden("strict", audited=True)
