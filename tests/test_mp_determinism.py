"""Multiprocess determinism pin: mp event timelines == strict in-process.

The strongest correctness property of the shm transport: running the token
pipeline as real OS processes over shared-memory rings — with frame
batching, sync coalescing, and the struct wire codec all active — produces
the *bit-identical* event timeline (the audit ledger root, a SHA-256 over
every executed event's timestamp) of the strict in-process coordinator.
And it must stay identical with the codec forced off (everything pickled),
proving the codec is a pure transport optimization with zero effect on
simulated behaviour.  On a mismatch the ledgers of the same two runs name
the first divergent (epoch, component) window.
"""

import pytest

from repro.bench.mp import (AUDIT_WINDOW_PS, inproc_audit_ledger,
                            mp_audit_ledger, pipeline_specs)
from repro.channels import wire
from repro.kernel.simtime import US
from repro.obs.audit import AuditCollector
from repro.obs.flows import install_flow_recorder, uninstall_flow_recorder
from repro.obs.install import TraceRecorder
from repro.obs.trace import Tracer
from repro.parallel.procrunner import ProcessRunner

from .test_determinism_guard import assert_same_timeline

DURATION = 50 * US
N_PROCS = 4


@pytest.fixture(autouse=True)
def _restore_codec():
    yield
    wire.set_codec_enabled(True)


@pytest.fixture(scope="module")
def inproc():
    ledger = inproc_audit_ledger(N_PROCS, DURATION)
    # every stage executed events: the root folds all four timelines
    assert len(ledger.component_digests()) == N_PROCS
    return ledger


@pytest.mark.parametrize("codec", [True, False],
                         ids=["codec_on", "codec_off"])
def test_mp_matches_inproc_strict(codec, inproc):
    wire.set_codec_enabled(codec)
    assert_same_timeline(inproc, mp_audit_ledger(N_PROCS, DURATION))


def test_mp_matches_inproc_strict_with_flow_recorder(inproc):
    """Flow tracing active in every child: the 4-proc timelines still pin.

    Children re-point the flow recorder installed here (1-in-1, as
    ``Instantiation(flow_sample=1)`` would) at their own tracers; the
    token pipeline's timelines must stay bit-identical to the untraced
    strict oracle.
    """
    specs, channels = pipeline_specs(N_PROCS)
    runner = ProcessRunner(specs, channels)
    audit, trace = AuditCollector(window_ps=AUDIT_WINDOW_PS), TraceRecorder()
    runner.recorders += [audit, trace]
    install_flow_recorder(Tracer(), sample_n=1)
    try:
        results = runner.run(DURATION, timeout_s=120)
    finally:
        uninstall_flow_recorder()
    assert_same_timeline(inproc, audit.to_ledger())
    assert set(trace.children) == set(results)
    # the rings really batch: more than one frame per cursor publish
    assert all(r.transport["frames_per_batch"] > 1.0
               for r in results.values())
