"""Wiring a :class:`~repro.obs.trace.Tracer` through a simulation.

Instrumentation points live in the layers themselves (kernel drain spans,
channel counter tracks, link busy periods, strict-round stall sampling);
this module only *attaches* a tracer to them.  Every instrumented site
holds a plain attribute that is ``None`` when tracing is off, so the
disabled hot path pays at most one pointer test.

:func:`install_tracer` puts a :class:`TracerSampler` on
``Simulation.observers``: it finishes the wiring when the run starts
(queues are swapped in fast mode, externals are bound late) and samples
the strict-mode counter tracks.  :class:`TraceRecorder` is the
experiment-level recorder on top (``Instantiation(trace=True)``): sim
tracer, wall-clock phase spans, optional flow recorder, ``save``.
"""

from __future__ import annotations

import json
from typing import Optional

from .trace import ORCH_PID, Tracer, chrome_doc, us_from_ps

#: Strict-mode counter-track sampling period, in coordinator rounds.
TRACE_INTERVAL_ROUNDS = 64


class TracerSampler:
    """Run observer (see :class:`~repro.parallel.simulation.Observer`) that
    attaches a tracer to a run and samples its strict-mode counter tracks.

    At start it points every instrumented site at the tracer:

    * strict mode: one kernel-drain track per component queue;
    * fast mode: all components share one queue, hence one ``kernel`` track;
    * network partitions additionally get per-link-direction busy tracks.

    In strict mode it then emits, every ``interval_rounds`` rounds (plus a
    t=0 baseline and a final sample, so trace-derived diffs cover the run),
    a cumulative ``comp|<name>`` counter sample per component (events, work
    cycles) and one ``chan|...`` sample per channel end; for components
    currently blocked below the end time, a ``sync.stall`` instant records
    who they are waiting on — the raw material for ``splitsim-inspect``'s
    stall timeline and trace-based WTPG.
    """

    def __init__(self, tracer: Tracer,
                 interval_rounds: int = TRACE_INTERVAL_ROUNDS) -> None:
        if interval_rounds <= 0:
            raise ValueError("counter interval must be positive")
        self.tracer = tracer
        self.every = interval_rounds
        self._sim = None
        self._until_ps = 0

    def start(self, sim, until_ps: int) -> None:
        self._sim = sim
        self._until_ps = until_ps
        tracer = self.tracer
        for comp in sim.components:
            tid_name = comp.name if sim.mode == "strict" else "kernel"
            comp.queue.obs = (tracer, tracer.tid(tid_name))
            if getattr(comp, "links", None) is not None:
                install_network_tracer(comp, tracer)
        if sim.mode == "strict":
            self._sample(0)

    def on_round(self, rounds: int, done: bool) -> None:
        self._sample(rounds)

    def finish(self) -> None:
        pass

    def _sample(self, rounds: int) -> None:
        tracer = self.tracer
        until_ps = self._until_ps
        for comp in self._sim.components:
            ts = us_from_ps(comp.now)
            tid = sample_counter_tracks(tracer, comp, ts)
            if comp.now < until_ps:
                blocking = comp.blocking_ends()
                if blocking:
                    tracer.instant(tid, "sync", f"stall|{comp.name}", ts, {
                        "on": [e.peer_comp_name or e.peer_name
                               for e in blocking],
                        "round": rounds,
                    })


def sample_counter_tracks(tracer: Tracer, comp, ts_us: float) -> int:
    """Emit one cumulative sample of ``comp``'s counter tracks at ``ts_us``.

    ``comp|<name>`` carries events and work cycles; one
    ``chan|<comp>|<end>|<peer component>`` track per channel end carries
    its adapter counters.  The track name encodes the edge, so the WTPG
    can be rebuilt from the trace alone
    (:func:`repro.profiler.instrument.rows_from_trace`).  Called by the
    strict coordinator's sampler and by multiprocess children; never
    from a per-message hot path.  Returns the component's track id.
    """
    tid = tracer.tid(comp.name)
    tracer.counter(tid, "comp", f"comp|{comp.name}", ts_us, {
        "events": comp.events_processed,
        "work_cycles": comp.work_cycles,
    })
    for end in comp.ends:
        tracer.counter(
            tid, "channel",
            f"chan|{comp.name}|{end.name}|"
            f"{end.peer_comp_name or end.peer_name}", ts_us,
            {"tx_msgs": end.tx_msgs, "rx_msgs": end.rx_msgs,
             "tx_syncs": end.tx_syncs, "rx_syncs": end.rx_syncs,
             "wait_cycles": end.wait_cycles, "wait_polls": end.wait_polls,
             "tx_cycles": end.tx_cycles, "rx_cycles": end.rx_cycles})
    return tid


def install_tracer(sim, tracer: Tracer,
                   counter_interval_rounds: int = TRACE_INTERVAL_ROUNDS
                   ) -> Tracer:
    """Attach ``tracer`` to a simulation (before it runs).

    ``counter_interval_rounds`` sets how often the strict coordinator
    samples per-component/per-channel counter tracks.
    """
    sim.observers.append(TracerSampler(tracer, counter_interval_rounds))
    return tracer


class TraceRecorder(TracerSampler):
    """The ``trace`` recorder of an experiment.

    A sim-domain tracer over the whole simulation plus a wall-domain
    tracer on the dedicated orchestrator pid carrying build / run /
    teardown phase spans.
    """

    name = "trace"

    def __init__(self) -> None:
        super().__init__(Tracer(pid=1, process_name="simulation",
                                clock="sim"))
        self.phase_tracer = Tracer(pid=ORCH_PID,
                                   process_name="orchestration",
                                   clock="wall")
        self._phases = self.phase_tracer.tid("phases")
        self._run_start_us = 0.0
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
        super().start(sim, until_ps)
        self._run_start_us = self.phase_tracer.wall_us()

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
