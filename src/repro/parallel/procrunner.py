"""Run a SplitSim simulation with one OS process per component simulator.

This is the "real" parallel runtime corresponding to the paper's deployment:
each component simulator is its own process; channels are shared-memory
rings (:mod:`repro.parallel.shm_ring`); synchronization is the conservative
protocol from :mod:`repro.channels.channel`; blocked components busy-poll
their input rings, and the time they spend doing so is measured with real
nanosecond timestamps — exactly the quantity the SplitSim profiler reports.

A child syncs every ``ChannelEnd.sync_interval`` of simulated progress
(default: the channel latency): it advances that far, publishes its frames
and promise, and goes on, so the peers of a cut execute the same window
concurrently instead of taking turns.

With fewer cores than components (this sandbox has two) this runtime is
*correct* but shows little wall-clock speedup; the virtual-time model
(:mod:`repro.parallel.model`) covers the performance experiments.

Recorders plug in through one list, ``ProcessRunner.recorders`` (see
:mod:`repro.obs.recorder`): each child beats the recorders' probes on its
telemetry heartbeats and ships their results; the parent fans both out to
the recorders, saves them and references them from the run report —
without knowing which recorders exist.

Components are described by picklable factory callables so they can be
constructed inside the child process::

    spec = ProcSpec("a", make_pinger, ("a", True))
    runner = ProcessRunner([spec_a, spec_b],
                           [ProcChannel("a", "a.e", "b", "b.e")])
    results = runner.run(until_ps=1 * MS)
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import sys
import time
from dataclasses import dataclass, field
from queue import Empty
from typing import Callable, Dict, List, Optional, Tuple

from ..kernel.component import Component
from .shm_ring import ShmRing

#: Spin iterations between backoff steps while blocked.
_SPIN_BATCH = 200
#: Pure sched-yield rounds before the blocked loop starts sleeping.
_YIELD_ROUNDS = 8
#: First real sleep once yields are exhausted; doubles up to the max.
_NAP_BASE_S = 5e-6
_NAP_MAX_S = 200e-6


@dataclass
class ProcSpec:
    """Description of one component process.

    Either a picklable ``factory`` (constructed inside the child) or a
    prebuilt ``component`` (inherited through fork; nothing is pickled).
    """

    name: str
    factory: Optional[Callable[..., Component]] = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    component: Optional[Component] = None

    def make(self) -> Component:
        """Obtain the component (prebuilt or via the factory)."""
        if self.component is not None:
            return self.component
        if self.factory is None:
            raise ValueError(f"{self.name}: neither factory nor component")
        return self.factory(*self.args, **self.kwargs)


@dataclass
class ProcChannel:
    """A channel between named ends of two component processes.

    End names refer to ``ChannelEnd.name`` values created by the factories.
    """

    comp_a: str
    end_a: str
    comp_b: str
    end_b: str


@dataclass
class ProcResult:
    """What one component process reports back after finishing."""

    name: str
    events: int = 0
    wall_seconds: float = 0.0
    wait_seconds: float = 0.0
    work_cycles: float = 0.0
    end_counters: Dict[str, dict] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    #: shm transport counters (frames/batches/bytes per direction, summed
    #: over this component's rings) plus the wire codec's fallback counts
    transport: dict = field(default_factory=dict)
    #: SHA-256 of this component's event timeline (``name:ts,ts,...;``),
    #: filled when the run was started with ``digest=True``
    timeline_digest: Optional[str] = None
    #: the probes' final payloads, keyed by recorder name
    extras: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None


def timeline_digest(name: str, timestamps: List[int]) -> str:
    """SHA-256 of one component's event timeline (``name:ts,ts,...;``).

    Matches the encoding of the in-process determinism guard so strict
    in-process runs and multiprocess runs can be compared component by
    component.
    """
    payload = name + ":" + ",".join(map(str, timestamps)) + ";"
    return hashlib.sha256(payload.encode()).hexdigest()


def _transport_stats(rings: List[ShmRing]) -> dict:
    """Aggregate shm-ring counters plus the wire codec's fallback counts."""
    from ..channels import wire
    totals = {"frames_out": 0, "batches_out": 0, "bytes_out": 0,
              "frames_in": 0, "batches_in": 0, "bytes_in": 0}
    for ring in rings:
        for key, value in ring.stats().items():
            totals[key] += value
    totals["frames_per_batch"] = (
        totals["frames_out"] / totals["batches_out"]
        if totals["batches_out"] else 0.0)
    totals["wire"] = wire.stats()
    return totals


def _find_end(comp: Component, end_name: str):
    for end in comp.ends:
        if end.name == end_name:
            return end
    raise KeyError(f"{comp.name}: no channel end named {end_name!r}")


class _HeartbeatPump:
    """Rate-limited child telemetry: heartbeats plus progress counters.

    One :meth:`maybe` call costs a single ``perf_counter`` read unless the
    heartbeat interval has elapsed; the advance loop calls it once per sync
    round, the blocked spin loop once per spin batch.  Every heartbeat
    carries one beat of each probe (``Heartbeat.extras``).
    """

    def __init__(self, q, tracer, comp: Component, probes: list,
                 in_rings: List[ShmRing], t_start: float,
                 interval_s: float) -> None:
        from ..obs.recorder import Beater
        self._q = q
        self._tracer = tracer
        self._beater = Beater(comp, probes, t_start, in_rings)
        self._interval = interval_s
        self._next = t_start + interval_s

    def maybe(self, commit: int, waiting: bool) -> None:
        now = time.perf_counter()
        if now < self._next:
            return
        self._next = now + self._interval
        hb = self._beater.beat(now, commit, waiting)
        if self._q is not None:
            try:
                self._q.put_nowait(hb)
            except Exception:  # pragma: no cover - queue full/closed
                pass
        tracer = self._tracer
        if tracer is not None:
            ts = tracer.wall_us()
            tracer.counter(tracer.tid("telemetry"), "telemetry", "progress",
                           ts, {"sim_ps": commit, "events": hb.events})
            tracer.counter(tracer.tid("telemetry"), "telemetry", "ring_fill",
                           ts, {"in_fill": hb.ring_fill})

    def flush(self, commit: int) -> None:
        """Force one final beat at run end: short runs still contribute at
        least one beat, and the probes' totals cover exactly the run."""
        self._next = 0.0
        self.maybe(commit, waiting=False)


def _sample_counters(tracer, comp: Component) -> None:
    """Emit one cumulative ``comp|``/``chan|`` sample (wall timestamps).

    Children emit a baseline right after wiring and a final sample at the
    end of the run, so trace-derived last-minus-first diffs cover exactly
    the run — the same quantity the counter-based profiler reports.
    """
    tid = tracer.tid(comp.name)
    ts = tracer.wall_us()
    tracer.counter(tid, "comp", f"comp|{comp.name}", ts, {
        "events": comp.events_processed,
        "work_cycles": comp.work_cycles,
    })
    for end in comp.ends:
        end.obs_sample(tracer, tid, ts, comp.name)


def _child_main(spec: ProcSpec,
                wiring: List[Tuple[str, str, str, str, str]],
                until_ps: int, result_q, timeout_s: float,
                telemetry_q=None, trace_dir: Optional[str] = None,
                hb_interval_s: float = 0.25, index: int = 0,
                flow_sample: Optional[int] = None,
                cmd_q=None, reply_q=None,
                probe_factories: Tuple[Callable, ...] = ()) -> None:
    result = ProcResult(name=spec.name)
    rings: List[ShmRing] = []
    tracer = None
    pump = None
    commit = 0
    try:
        if trace_dir is not None:
            from ..obs.trace import Tracer
            tracer = Tracer(pid=index + 1, process_name=spec.name,
                            clock="wall")
            # Causal flow tracing: hop records land in this child's ring
            # (args carry exact sim-ps), stitched across processes by the
            # merged-trace analysis.
            if flow_sample:
                from ..obs.flows import install_flow_recorder
                install_flow_recorder(tracer, sample_n=flow_sample)
        comp = spec.make()
        in_rings: List[ShmRing] = []
        ends = []
        for end_name, out_name, in_name, peer, peer_comp in wiring:
            out_ring = ShmRing.attach(out_name)
            rings.append(out_ring)  # appended one by one: a failed attach
            in_ring = ShmRing.attach(in_name)  # must not orphan the first
            rings.append(in_ring)
            in_rings.append(in_ring)
            end = _find_end(comp, end_name)
            end.wire(out_q=out_ring, in_q=in_ring, peer_name=peer)
            end.peer_comp_name = peer_comp
            ends.append(end)
        probes = [make(comp) for make in probe_factories]
        t_start = time.perf_counter()
        run_start_us = 0.0
        if tracer is not None:
            run_start_us = tracer.wall_us()
            tracer.span(tracer.tid("lifecycle"), "proc", "setup",
                        0.0, run_start_us)
            _sample_counters(tracer, comp)  # baseline for trace diffs
        # probes beat on heartbeats, so only when someone receives them
        beating = probes if telemetry_q is not None else []
        if telemetry_q is not None or tracer is not None:
            pump = _HeartbeatPump(telemetry_q, tracer, comp, beating,
                                  in_rings, t_start, hb_interval_s)
        mailbox = None
        if cmd_q is not None:
            # Control-plane command mailbox, polled at sync-round
            # boundaries only: commands execute at a quiescent horizon and
            # can never interleave with event execution.
            from ..obs.live import ChildMailbox
            mailbox = ChildMailbox(
                spec.name, cmd_q, reply_q, comp, tracer=tracer,
                trace_dir=trace_dir,
                transport_stats=lambda: _transport_stats(rings))
        deadline = t_start + timeout_s
        # One sync round = one step of simulated progress, then a flush:
        # the peers get this round's frames and promise while the rest of
        # the input window still executes here, so both sides of a cut run
        # the same window concurrently.  Running to the input horizon
        # before publishing would make two symmetric peers take turns.
        interval = min((e.sync_interval for e in ends), default=until_ps)
        outs = [(e, e.out_batch) for e in ends if e.out_batch is not None]
        wait_ns = 0
        while True:
            target = min(until_ps, commit + interval)
            commit = comp.advance(target)
            done = commit >= until_ps
            # short of the target: the input horizon is in the way
            blocked = commit < target
            # Publish this round's frames; when finished or about to block,
            # also force out any deferred sync promise so the peer never
            # stalls on a promise we computed but coalesced.
            force = done or blocked
            for e, batch in outs:
                if batch or force:
                    e.flush(force, deadline)
            if pump is not None:
                pump.maybe(commit, waiting=False)
            if mailbox is not None and mailbox.poll(commit):
                break  # graceful stop at this quiescent horizon
            if done:
                break
            if blocked:
                # Blocked: poll inputs with spin -> yield -> sleep
                # escalation, measuring real wait time.
                blocking = comp.blocking_ends()
                empties = [e.in_q.empty for e in blocking]
                t0 = time.perf_counter_ns()
                spins = 0
                naps = 0
                stopping = False
                while True:
                    for empty in empties:
                        if not empty():
                            break  # input arrived
                    else:
                        spins += 1
                        if spins % _SPIN_BATCH:
                            continue
                        if naps < _YIELD_ROUNDS:
                            time.sleep(0)
                        else:
                            step = min(naps - _YIELD_ROUNDS, 6)
                            time.sleep(min(_NAP_MAX_S,
                                           _NAP_BASE_S * (1 << step)))
                        naps += 1
                        if pump is not None:
                            pump.maybe(commit, waiting=True)
                        if mailbox is not None and mailbox.poll(commit):
                            stopping = True  # commit is still quiescent here
                            break
                        if time.perf_counter() > deadline:
                            raise TimeoutError(
                                f"{spec.name} stuck at commit={commit}"
                            )
                        continue
                    break
                dt = time.perf_counter_ns() - t0
                wait_ns += dt
                share = dt / max(1, len(blocking))
                for e in blocking:
                    e.note_wait(share)
                if tracer is not None:
                    dur_us = dt / 1e3
                    tracer.span(
                        tracer.tid("sync"), "sync",
                        f"wait|{'+'.join(e.name for e in blocking)}",
                        tracer.wall_us() - dur_us, dur_us,
                        {"commit": commit,
                         "on": [e.peer_comp_name or e.peer_name
                                for e in blocking]})
                if stopping:
                    break
        if beating:
            pump.flush(commit)
        for probe in probes:
            payload = probe.result()
            if payload is not None:
                result.extras[probe.name] = payload
        result.events = comp.events_processed
        result.wall_seconds = time.perf_counter() - t_start
        result.wait_seconds = wait_ns / 1e9
        result.work_cycles = comp.work_cycles
        result.end_counters = {e.name: e.counters() for e in comp.ends}
        result.transport = _transport_stats(rings)
        collect = getattr(comp, "collect_outputs", None)
        if collect is not None:
            result.outputs = collect()
        if tracer is not None:
            end_us = tracer.wall_us()
            tracer.span(tracer.tid("lifecycle"), "proc", "run",
                        run_start_us, end_us - run_start_us,
                        {"events": result.events,
                         "wait_seconds": result.wait_seconds})
            _sample_counters(tracer, comp)  # final sample (diff vs baseline)
            tracer.save_jsonl(os.path.join(trace_dir,
                                           f"{spec.name}.trace.jsonl"))
    except Exception as exc:  # pragma: no cover - error path
        result.error = f"{type(exc).__name__}: {exc}"
        if pump is not None:
            # one last beat ships what the probes closed before the
            # failure: recorders keep a partial document, not nothing
            pump.flush(commit)
    finally:
        for ring in rings:
            ring.close()
        result_q.put(result)


class ProcessRunner:
    """Launches component processes, wires rings, and collects results."""

    def __init__(self, specs: List[ProcSpec], channels: List[ProcChannel],
                 ring_bytes: int = 1 << 20) -> None:
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate component names")
        self.specs = specs
        self.channels = channels
        self.ring_bytes = ring_bytes
        #: recorders (collectors, see :mod:`repro.obs.recorder`) of the
        #: next :meth:`run`: children run their probes, the parent feeds,
        #: saves (to each recorder's own ``path``) and reports them
        self.recorders: list = []

    def run(self, until_ps: int, timeout_s: float = 120.0, *,
            progress: bool = False, report_path: Optional[str] = None,
            trace_dir: Optional[str] = None,
            hb_interval_s: float = 0.25,
            digest: bool = False,
            flow_sample: Optional[int] = None,
            control_dir: Optional[str] = None,
            stall_intervals: int = 4,
            stale_after_s: Optional[float] = None) -> Dict[str, ProcResult]:
        """Run all components to ``until_ps``; returns per-component results.

        Parameters
        ----------
        progress:
            Render a live one-line status (stderr) from child heartbeats.
        report_path:
            Write the versioned ``run_report.json`` here after the run
            (written even when a component fails or the parent times out,
            before raising).
        trace_dir:
            Directory for per-child wall-clock traces (JSONL) and the
            merged ``trace.json`` Chrome-trace document.
        hb_interval_s:
            Child heartbeat period; heartbeats are only collected when
            ``progress``, ``report_path``, ``control_dir`` or a recorder
            is requested.
        digest:
            Record each child's event timeline and return its SHA-256 in
            ``ProcResult.timeline_digest`` (determinism checks).
        flow_sample:
            Keep 1-in-N causal flows in the per-child traces (needs
            ``trace_dir``); ``None`` = flow tracing off.
        control_dir:
            Serve the live control plane from this run directory: a
            ``control.json`` discovery file plus a unix-socket endpoint
            that ``splitsim-inspect attach`` connects to.  Children poll
            a command mailbox at sync-round boundaries, so commands never
            perturb event order (the determinism digest is unchanged).
        stall_intervals:
            Heartbeat intervals without sim-time progress before the
            watchdog flags a component as stalled.
        stale_after_s:
            Age after which a silent component is flagged stale; default
            ``max(2.0, 8 * hb_interval_s)``.
        """
        ctx = mp.get_context("fork")
        rings: List[ShmRing] = []
        # wiring[comp] = (end_name, out_ring, in_ring, peer_end, peer_comp)
        wiring: Dict[str, List[Tuple[str, str, str, str, str]]] = {
            s.name: [] for s in self.specs
        }
        names = [s.name for s in self.specs]
        collectors = list(self.recorders)
        want_telemetry = (progress or report_path is not None
                          or control_dir is not None or bool(collectors))
        aggregator = None
        monitor = None
        telemetry_q = None
        parent_tracer = None
        control = None
        if want_telemetry:
            from ..obs.telemetry import TelemetryAggregator, HealthMonitor
            aggregator = TelemetryAggregator(names)
            monitor = HealthMonitor(names, hb_interval_s=hb_interval_s,
                                    stall_intervals=stall_intervals,
                                    stale_after_s=stale_after_s)
        # one probe per recorder name per child (fork-inherited factories)
        probes = {c.name: c.probe for c in collectors}
        for collector in collectors:
            collector.begin(names, until_ps, "mp")
        if digest:
            # the event digest is a probe result; reuse a recorder's probe
            from ..obs.recorder import DIGEST_PROBE, digest_probe
            probes.setdefault(DIGEST_PROBE, digest_probe)
        probe_factories = tuple(probes.values())
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            from ..obs.trace import Tracer
            parent_tracer = Tracer(pid=0, process_name="runner",
                                   clock="wall")
        try:
            for ch in self.channels:
                # append as soon as each ring exists: if the second create
                # fails, the finally below still unlinks the first
                r_ab = ShmRing.create(self.ring_bytes)
                rings.append(r_ab)
                r_ba = ShmRing.create(self.ring_bytes)
                rings.append(r_ba)
                wiring[ch.comp_a].append(
                    (ch.end_a, r_ab.name, r_ba.name, ch.end_b, ch.comp_b))
                wiring[ch.comp_b].append(
                    (ch.end_b, r_ba.name, r_ab.name, ch.end_a, ch.comp_a))

            result_q = ctx.Queue()
            if want_telemetry:
                telemetry_q = ctx.Queue()
            cmd_queues: Dict[str, object] = {}
            reply_q = None
            if control_dir is not None:
                os.makedirs(control_dir, exist_ok=True)
                cmd_queues = {name: ctx.Queue() for name in names}
                reply_q = ctx.Queue()
            launch_us = 0.0
            procs = [
                ctx.Process(
                    target=_child_main,
                    args=(spec, wiring[spec.name], until_ps, result_q,
                          timeout_s, telemetry_q, trace_dir, hb_interval_s,
                          index, flow_sample,
                          cmd_queues.get(spec.name), reply_q,
                          probe_factories),
                    name=f"splitsim-{spec.name}",
                )
                for index, spec in enumerate(self.specs)
            ]
            for p in procs:
                p.start()
            if control_dir is not None:
                from ..obs.live import ControlPlane
                merge_partial = None
                if trace_dir is not None:
                    from ..obs.trace import merge_trace_jsonl
                    merge_partial = lambda: merge_trace_jsonl(
                        trace_dir, names,
                        suffix=(".trace.partial.jsonl", ".trace.jsonl"),
                        parent_tracer=parent_tracer,
                        out_name="trace.partial.json")
                control = ControlPlane(
                    control_dir, names, until_ps, aggregator, monitor,
                    cmd_queues, reply_q, trace_dir=trace_dir,
                    merge_partial=merge_partial)
                control.start()
            if parent_tracer is not None:
                launch_us = parent_tracer.wall_us()
                parent_tracer.span(parent_tracer.tid("phases"), "phase",
                                   "launch", 0.0, launch_us,
                                   {"processes": len(procs)})
            t_run0 = time.perf_counter()
            results: Dict[str, ProcResult] = {}
            deadline = time.monotonic() + timeout_s + 10
            timed_out = False
            while len(results) < len(procs):
                if time.monotonic() > deadline:
                    timed_out = True
                    break
                self._drain_telemetry(telemetry_q, aggregator, monitor,
                                      progress, collectors)
                try:
                    res: ProcResult = result_q.get(
                        timeout=hb_interval_s if want_telemetry else 0.5)
                except Empty:
                    continue
                results[res.name] = res
                if monitor is not None:
                    monitor.note_done(res.name, res.error)
                if control is not None:
                    control.note_done(res.name, res.error)
                for collector in collectors:
                    collector.note_result(res.name,
                                          res.extras.get(collector.name))
                if digest and res.error is None:
                    res.timeline_digest = (
                        res.extras[DIGEST_PROBE]["digest"]
                        or timeline_digest(res.name, []))
            self._drain_telemetry(telemetry_q, aggregator, monitor, progress,
                                  collectors)
            if progress:
                sys.stderr.write("\n")
                sys.stderr.flush()
            for p in procs:
                p.join(timeout=0.1 if timed_out else 10)
                if p.is_alive():  # pragma: no cover - cleanup path
                    p.terminate()
            wall_total = time.perf_counter() - t_run0
            trace_path = None
            if parent_tracer is not None:
                parent_tracer.span(parent_tracer.tid("phases"), "phase",
                                   "run", launch_us,
                                   parent_tracer.wall_us() - launch_us)
                from ..obs.trace import merge_trace_jsonl
                trace_path = merge_trace_jsonl(trace_dir, names,
                                               parent_tracer=parent_tracer)
            if collectors:
                # children are joined: their queue feeders have flushed, so
                # one more drain picks up the forced final beats
                self._drain_telemetry(telemetry_q, aggregator, monitor,
                                      False, collectors)
            fields = {}
            for collector in collectors:
                key, path = collector.report_field()
                if path is not None:
                    collector.save()
                    fields[key] = self._report_rel(path, report_path)
            if report_path is not None:
                from ..obs.telemetry import (build_run_report,
                                             write_run_report)
                write_run_report(report_path, build_run_report(
                    until_ps, wall_total, results, aggregator,
                    trace=trace_path,
                    health=monitor.report() if monitor else None,
                    fields=fields))
            if timed_out:
                missing = sorted(set(names) - set(results))
                raise TimeoutError(
                    "simulation processes did not finish: "
                    f"no result from {missing}")
            errors = {n: r.error for n, r in results.items() if r.error}
            if errors:
                raise RuntimeError(f"component failures: {errors}")
            return results
        finally:
            if control is not None:
                control.close()
            for ring in rings:
                # close/unlink are idempotent and must not mask each other:
                # every segment gets its unlink attempt even if an earlier
                # ring's close misbehaves
                try:
                    ring.close()
                finally:
                    ring.unlink()

    @staticmethod
    def _report_rel(path: str, report_path: Optional[str]) -> str:
        """Path as referenced from the run report (relative when possible)."""
        if report_path is None:
            return path
        return os.path.relpath(path, os.path.dirname(report_path) or ".")

    def _drain_telemetry(self, telemetry_q, aggregator, monitor,
                         progress: bool, collectors=()) -> None:
        """Consume pending heartbeats; watchdog pass; refresh status line."""
        if telemetry_q is None:
            return
        from ..obs.recorder import deliver
        noted = False
        while True:
            try:
                hb = telemetry_q.get_nowait()
            except Empty:
                break
            aggregator.note(hb)
            deliver(hb, collectors)
            noted = True
        if monitor is not None:
            monitor.observe(aggregator)
        if progress and noted:
            line = aggregator.status_line(
                stale_after_s=monitor.stale_after_s if monitor else None)
            if monitor is not None:
                line += monitor.badge()
            sys.stderr.write("\r\x1b[K" + line)
            sys.stderr.flush()
