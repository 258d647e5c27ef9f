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
Channel and component counters are not sampled here: the epoch timeline
(``Instantiation(timeline=True)``) is their one record.
"""

from __future__ import annotations

import json
from typing import Optional

from .trace import ORCH_PID, Tracer, chrome_doc


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
        self._sim = None
        #: the causal :class:`~repro.obs.flows.FlowRecorder`, if any
        self.flows = None

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

    def start(self, sim, until_ps: int) -> None:
        self._sim = sim
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

    def save(self, path: str) -> dict:
        """Write the merged Chrome-trace document; returns the document."""
        tr = self.phase_tracer
        tr.instant(self._phases, "phase", "teardown", tr.wall_us())
        meta = {"mode": self._sim.mode} if self._sim is not None else {}
        doc = chrome_doc([self.tracer, tr], extra_meta=meta)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return doc


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
