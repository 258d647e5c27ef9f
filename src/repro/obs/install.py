"""Wiring a :class:`~repro.obs.trace.Tracer` through a simulation.

Instrumentation points live in the layers themselves (kernel drain spans,
link busy periods, queue-depth and fluid counters); this module only
*attaches* a tracer to them.  Every instrumented site holds a plain
attribute that is ``None`` when tracing is off, so the disabled hot path
pays at most one pointer test.

:class:`TraceRecorder` is the experiment-level recorder
(``Instantiation(trace=True)``): sim tracer, wall-clock phase spans,
optional flow recorder, ``save``.  It finishes the wiring when the run
starts (queues are swapped in fast mode, externals are bound late).
Under ``run_mp`` every child traces itself on the wall clock and ships
its tracer back, so the recorder saves every child's records.
Channel and component counters are not sampled here: the epoch timeline
(``Instantiation(timeline=True)``) is their one record.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from .trace import ORCH_PID, Tracer, chrome_doc, load_trace


class TraceRecorder:
    """The ``trace`` recorder of an experiment, and a run observer (see
    :class:`~repro.parallel.simulation.Observer`).

    A sim-domain tracer over the whole simulation plus a wall-domain
    tracer on the dedicated orchestrator pid carrying build / run /
    teardown phase spans.  At start it points every instrumented site at
    the sim tracer:

    * strict mode: one kernel-drain track per component queue;
    * fast mode: all components share one queue, hence one ``kernel`` track;
    * network partitions additionally get per-link-direction busy tracks.

    A multiprocess run (:class:`~repro.parallel.procrunner.ProcessRunner`
    with this recorder in its ``recorders``) calls the collector half
    instead: :meth:`begin`, then :meth:`note_result` with each finished
    child's own wall-clock tracer (pid = the child's index + 1).
    """

    name = "trace"
    #: no per-round work: a period no run reaches, so the strict
    #: coordinator calls :meth:`on_round` on the last round only
    every = 1 << 62

    def __init__(self) -> None:
        self.tracer = Tracer(pid=1, process_name="simulation", clock="sim")
        self.phase_tracer = Tracer(pid=ORCH_PID,
                                   process_name="orchestration",
                                   clock="wall")
        self._phases = self.phase_tracer.tid("phases")
        self._run_start_us = 0.0
        #: the ``teardown`` instant is recorded (at the first :meth:`save`)
        self._torn_down = False
        #: the causal :class:`~repro.obs.flows.FlowRecorder`, if any
        self.flows = None
        #: ``fast``/``strict`` in process, ``mp`` (``None`` before a run)
        self.mode: Optional[str] = None
        #: an mp run's child tracers, by component
        self.children: Dict[str, Tracer] = {}

    def trace_flows(self, sample_n: int) -> None:
        """Record causal per-message flow hops into this trace, keeping one
        flow in ``sample_n``.  The flow recorder is process-global: pair
        with ``Experiment.disable_flow_tracing()``."""
        from .flows import install_flow_recorder
        self.flows = install_flow_recorder(self.tracer, sample_n=sample_n)

    def phase(self, name: str, start_us: float,
              args: Optional[dict] = None) -> None:
        """Record a wall-clock phase span from ``start_us`` to now."""
        tr = self.phase_tracer
        tr.span(self._phases, "phase", name, start_us,
                tr.wall_us() - start_us, args)

    def begin(self, components: List[str], until_ps: int, mode: str) -> None:
        """A multiprocess run starts: its children trace themselves."""
        self.mode = mode
        self._run_start_us = self.phase_tracer.wall_us()

    def note_result(self, comp: str, tracer: Optional[Tracer]) -> None:
        """One finished child's tracer (``None``: it traced nothing)."""
        if tracer is not None:
            self.children[comp] = tracer

    def start(self, sim, until_ps: int) -> None:
        self.mode = sim.mode
        tracer = self.tracer
        for comp in sim.components:
            tid_name = comp.name if sim.mode == "strict" else "kernel"
            comp.queue.obs = (tracer, tracer.tid(tid_name))
            if getattr(comp, "links", None) is not None:
                install_network_tracer(comp, tracer)
        self._run_start_us = self.phase_tracer.wall_us()

    def on_round(self, rounds: int, done: bool) -> None:
        pass

    def finish(self) -> None:
        self.phase("run", self._run_start_us)

    def document(self) -> dict:
        """The merged Chrome-trace document: the phase spans plus the sim
        tracer in process, every finished child's tracer under mp."""
        tracers = [self.tracer] if self.mode != "mp" else []
        tracers += [self.phase_tracer, *list(self.children.values())]
        meta = {"mode": self.mode} if self.mode is not None else {}
        return chrome_doc(tracers, extra_meta=meta)

    def save(self, path: str) -> dict:
        """Write the merged Chrome-trace document; returns the document.
        The first save records the ``teardown`` phase instant; a later one
        (``exp.save`` after a run that wrote a run directory) writes the
        same phases again."""
        if not self._torn_down:
            self._torn_down = True
            tr = self.phase_tracer
            tr.instant(self._phases, "phase", "teardown", tr.wall_us())
        doc = self.document()
        _write_json(path, doc)
        return doc

    def save_partial(self, rundir: str, components: List[str]) -> str:
        """The control plane's ``dump-trace``: :meth:`document` plus the
        rings the still-running children flushed into ``rundir``, as
        ``rundir``'s partial trace; returns its path."""
        from .rundir import partial_trace
        doc = self.document()
        for index, comp in enumerate(components):
            flushed = partial_trace(rundir, comp)
            if comp not in self.children and os.path.exists(flushed):
                doc["traceEvents"] += load_trace(flushed)["traceEvents"]
                doc["otherData"]["clock_domains"][str(index + 1)] = "wall"
        path = partial_trace(rundir)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write_json(path + ".tmp", doc)
        os.replace(path + ".tmp", path)  # never seen half-written
        return path


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def install_network_tracer(net, tracer: Tracer) -> None:
    """Attach busy-period/queue tracks to every link direction of ``net``."""
    for link in net.links:
        for direction in (link.dir_ab, link.dir_ba):
            direction.obs = (tracer, tracer.tid(f"link:{direction.label}"))
    for att in net.externals.values():
        direction = att.ext.direction
        direction.obs = (tracer, tracer.tid(f"link:{direction.label}"))
    if net.fluid is not None:
        net.fluid.obs = (tracer, tracer.tid(f"fluid:{net.name}"))
