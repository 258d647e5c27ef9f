"""Multiprocess determinism pin: mp event timelines == strict in-process.

The strongest correctness property of the shm transport: running the token
pipeline as real OS processes over shared-memory rings — with frame
batching, sync coalescing, and the struct wire codec all active — produces
*bit-identical* per-component event timelines (SHA-256 over every executed
event's timestamp) to the strict in-process coordinator.  And it must stay
identical with the codec forced off (everything pickled), proving the
codec is a pure transport optimization with zero effect on simulated
behaviour.

On a digest mismatch these tests don't just fail: they record per-epoch
audit ledgers (:mod:`repro.obs.audit`) of both runs and report the first
divergent (epoch, component) window.
"""

import pytest

from repro.bench.mp import (inproc_audit_ledger, inproc_strict_digests,
                            mp_audit_ledger, mp_digests)
from repro.channels import wire
from repro.kernel.simtime import US

DURATION = 50 * US
N_PROCS = 4


@pytest.fixture(autouse=True)
def _restore_codec():
    yield
    wire.set_codec_enabled(True)


def assert_mp_matches(expected, got, n_procs, tmpdir) -> None:
    """Digest equality, localized via audit ledgers when it fails."""
    if got == expected:
        return
    from repro.obs.audit import diff_ledgers
    mismatched = sorted(n for n in set(expected) | set(got)
                        if expected.get(n) != got.get(n))
    lines = [f"mp timelines diverged from strict in-process "
             f"(components: {', '.join(mismatched)})"]
    try:
        diff = diff_ledgers(inproc_audit_ledger(n_procs, DURATION),
                            mp_audit_ledger(n_procs, DURATION,
                                            tmpdir=tmpdir))
        if diff.divergence is not None:
            lines.append(diff.divergence.describe())
        lines.append(f"({diff.rows_compared} earlier windows identical)")
    except Exception as exc:  # localization is best-effort
        lines.append(f"(audit localization unavailable: {exc})")
    pytest.fail("\n".join(lines))


@pytest.mark.parametrize("codec", [True, False],
                         ids=["codec_on", "codec_off"])
def test_mp_matches_inproc_strict(codec, tmp_path):
    wire.set_codec_enabled(codec)
    expected = inproc_strict_digests(N_PROCS, DURATION)
    got = mp_digests(N_PROCS, DURATION)
    assert_mp_matches(expected, got, N_PROCS, str(tmp_path))
    assert len(expected) == N_PROCS
    assert all(d for d in expected.values())


def test_digest_depends_on_timeline():
    a = inproc_strict_digests(2, DURATION)
    b = inproc_strict_digests(2, DURATION // 2)
    assert a != b


def test_mp_matches_inproc_strict_with_flow_recorder(tmp_path):
    """Flow tracing active in every child: the 4-proc timelines still pin.

    Children install a flow recorder (``flow_sample=1``) on their
    tracers; the token pipeline's timelines must stay bit-identical to
    the untraced strict oracle.
    """
    from repro.bench.mp import pipeline_specs, TOKENS
    from repro.parallel.procrunner import ProcessRunner

    expected = inproc_strict_digests(N_PROCS, DURATION)
    specs, channels = pipeline_specs(N_PROCS, TOKENS)
    results = ProcessRunner(specs, channels).run(
        DURATION, timeout_s=120, digest=True, flow_sample=1,
        trace_dir=str(tmp_path / "traces"))
    assert {n: r.timeline_digest for n, r in results.items()} == expected
    # the rings really batch: more than one frame per cursor publish
    assert all(r.transport["frames_per_batch"] > 1.0
               for r in results.values())
