"""The execution model's input is a collector on the recorder seam.

``WorkRecorder`` records per-window work and message deliveries through
one probe per component — a ``queue.trace`` hook, an ``add_work`` shadow
and wrapped end handlers, all removed again by the probe's result:

* the buckets equal the parent commit's, recorded by the runtime itself
  (the pin ``parent_work`` of :mod:`tests.pins`, produced by
  :func:`recorded_buckets`), in process and under ``run_mp``;
* the work and audit probes compose in either attach order, on a shared
  (fast) and on private (strict) queues, and leave every component as
  they found it.
"""

import pytest

from repro.bench.workloads import build_fluid_longflows, build_mixed_system
from repro.gem5split.build import build_multicore
from repro.kernel.simtime import MS, NS, US
from repro.netsim.fidelity import FidelityConfig
from repro.obs.audit import AuditCollector
from repro.obs.recorder import ProbeDriver
from repro.orchestration.instantiate import Instantiation
from repro.parallel.model import WorkRecorder
from repro.parallel.simulation import Simulation

from .pins import as_pinned, pinned
from .test_strict_coordinator import fig9_ci_experiment

PARENT = pinned("parent_work")


def _mixed(mode, window):
    return Instantiation(build_mixed_system(), mode=mode,
                         work_window_ps=window).build()


def _fluid(fidelity, window):
    return Instantiation(build_fluid_longflows(), fidelity=fidelity,
                         work_window_ps=window).build()


def _multicore(mode, window):
    sim = build_multicore(4, mode=mode).sim
    sim.observers.append(ProbeDriver(WorkRecorder(window)))
    return sim


#: the systems of the pin: name -> (a build of an experiment, or a bare
#: simulation with the collector appended, for a window; window; run
#: length)
SYSTEMS = {
    "mixed_fast": (lambda w: _mixed("fast", w), 10 * US, 1 * MS),
    "mixed_strict": (lambda w: _mixed("strict", w), 10 * US, 1 * MS),
    "fig9_ci": (lambda w: fig9_ci_experiment(work_window_ps=w), 10 * US,
                200 * US),
    "multicore_fast": (lambda w: _multicore("fast", w), 100 * NS, 20 * US),
    "multicore_strict": (lambda w: _multicore("strict", w), 100 * NS,
                         20 * US),
    "fluid": (lambda w: _fluid(FidelityConfig(fluid=True), w), 100 * US,
              3 * MS),
    "batched": (lambda w: _fluid(FidelityConfig(batching=True), w),
                100 * US, 3 * MS),
}


def buckets(name) -> dict:
    """One system's recorded work and message buckets, as pinned."""
    build, window, until = SYSTEMS[name]
    run = build(window)
    run.run(until)
    rec = _recorded(run)
    return as_pinned({
        "window_ps": window, "until_ps": until,
        "work": {comp: list(b.items()) for comp, b in rec.work.items()},
        "msgs": [[src, dst, list(b.items())]
                 for (src, dst), b in sorted(rec.msgs.items())]})


def recorded_buckets() -> dict:
    """The pin ``parent_work``."""
    return {name: buckets(name) for name in SYSTEMS}


def _parent(name):
    doc = PARENT[name]
    work = {comp: {w: cyc for w, cyc in buckets}
            for comp, buckets in doc["work"].items()}
    msgs = {(src, dst): {w: n for w, n in buckets}
            for src, dst, buckets in doc["msgs"]}
    return doc["window_ps"], doc["until_ps"], work, msgs


def _recorded(run):
    if isinstance(run, Simulation):
        return run.observers[-1].collector
    return run.recorders["work"]


def test_the_pin_covers_every_system():
    assert sorted(PARENT) == sorted(SYSTEMS)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_buckets_equal_the_parent_recording(name):
    assert buckets(name) == PARENT[name]


@pytest.mark.slow
def test_run_mp_records_the_parent_buckets():
    window, until, work, msgs = _parent("mixed_strict")
    exp = _mixed("strict", window)
    exp.run_mp(until, timeout_s=120)
    rec = exp.recorders["work"]
    assert (rec.mode, rec.work, rec.msgs) == ("mp", work, msgs)
    # the model reads the record of either runtime
    assert exp.execution_model(until).run("splitsim").makespan_cycles > 0


# -- composition with the audit probe ------------------------------------------

WINDOW = 10 * US
UNTIL = 300 * US

RECORDERS = {"work": lambda: WorkRecorder(WINDOW),
             "audit": lambda: AuditCollector(window_ps=WINDOW)}


def _observed(mode, order):
    """Run the mixed system with the recorders of ``order`` attached in
    that order; check the probes left every component as they found it."""
    exp = Instantiation(build_mixed_system(), mode=mode).build()
    for name in order:
        exp.observe(RECORDERS[name]())
    comps = exp.sim.components
    handlers = {c.name: dict(c._handlers) for c in comps}
    exp.run(UNTIL)
    for c in comps:
        assert c.queue.trace is None, c.name
        assert "add_work" not in vars(c), c.name
        assert c._handlers == handlers[c.name], c.name
    return exp.recorders


def _artifacts(recorders):
    out = {}
    if "work" in recorders:
        out["work"] = (recorders["work"].work, recorders["work"].msgs)
    if "audit" in recorders:
        ledger = recorders["audit"].to_ledger()
        out["audit"] = (ledger.root, ledger.rows, ledger.final)
    return out


@pytest.mark.parametrize("mode", ["fast", "strict"])
def test_work_and_audit_probes_compose_in_either_order(mode):
    solo = {**_artifacts(_observed(mode, ["work"])),
            **_artifacts(_observed(mode, ["audit"]))}
    assert solo["work"][0] and solo["work"][1] and solo["audit"][0]
    for order in (["work", "audit"], ["audit", "work"]):
        assert _artifacts(_observed(mode, order)) == solo, order
