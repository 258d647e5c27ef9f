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

Lifecycle: the runner maps every ring, then forks one child per
component, which inherits the rings' anonymous shared mappings: nothing is
named, nothing needs unlinking.  A child writes pickled frames up one pipe
(heartbeats, control replies, last its :class:`ProcResult`) and leaves
with ``os._exit``; the parent waits on all pipes in one ``poll`` and
reaps each child at end of file.  An error result, or a pipe that ends
without one (reported with the signal from ``waitpid``), makes the parent
set every ring's abort word, so the blocked survivors leave within a spin
batch.  At the parent's deadline, the children still running are killed
and reaped.

Recorders plug in through one list, ``ProcessRunner.recorders`` (see
:mod:`repro.obs.recorder`): each child beats the recorders' probes on its
telemetry heartbeats and ships their results; the parent fans both out to
the recorders — without knowing which recorders exist.  The trace
recorder is the one the runtime itself feeds: with it, every child
traces its lifecycle, waits and heartbeats and ships its tracer back.
Given a run directory, the parent writes the run into it
(:func:`repro.obs.rundir.write_run`).

Components are described by factory callables so they can be
constructed inside the child process::

    spec = ProcSpec("a", make_pinger, ("a", True))
    runner = ProcessRunner([spec_a, spec_b],
                           [ProcChannel("a", "a.e", "b", "b.e")])
    results = runner.run(until_ps=1 * MS)
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..kernel.component import Component
from ..obs.flows import (active_recorder, install_flow_recorder,
                         uninstall_flow_recorder)
from ..record import Record
from .shm_ring import ShmRing

#: Child heartbeat period in seconds.  Heartbeats flow only when the run
#: collects them (progress, a run directory or a recorder's probes).
#: Children read this and the two watchdog knobs below at fork.
HB_INTERVAL_S = 0.25
#: Heartbeats without sim-time progress before the watchdog flags a stall.
STALL_INTERVALS = 4
#: Seconds without a heartbeat before the watchdog flags a component stale.
STALE_AFTER_S = 2.0

#: Seconds the parent waits past ``timeout_s`` (the children's own
#: deadline) before it kills every child still running.
_PARENT_GRACE_S = 10.0

#: Spin iterations between backoff steps while blocked.
_SPIN_BATCH = 200
#: Pure sched-yield rounds before the blocked loop starts sleeping.
_YIELD_ROUNDS = 8
#: First real sleep once yields are exhausted; doubles up to the max.
_NAP_BASE_S = 5e-6
_NAP_MAX_S = 200e-6


class ProcSpec(Record):
    """Description of one component process.

    Either a ``factory`` (called inside the child) or a prebuilt
    ``component``; both are inherited through fork, nothing is pickled.
    """

    def __init__(self, name: str,
                 factory: Optional[Callable[..., Component]] = None,
                 args: tuple = (), kwargs: Optional[dict] = None,
                 component: Optional[Component] = None) -> None:
        self.name = name
        self.factory = factory
        self.args = args
        self.kwargs = {} if kwargs is None else kwargs
        self.component = component

    def make(self) -> Component:
        """Obtain the component (prebuilt or via the factory)."""
        if self.component is not None:
            return self.component
        if self.factory is None:
            raise ValueError(f"{self.name}: neither factory nor component")
        return self.factory(*self.args, **self.kwargs)


class ProcChannel(Record):
    """A channel between named ends of two component processes.

    End names refer to ``ChannelEnd.name`` values created by the factories.
    """

    def __init__(self, comp_a: str, end_a: str, comp_b: str,
                 end_b: str) -> None:
        self.comp_a = comp_a
        self.end_a = end_a
        self.comp_b = comp_b
        self.end_b = end_b


class ProcResult(Record):
    """What one component process reports back after finishing."""

    def __init__(self, name: str, events: int = 0,
                 wall_seconds: float = 0.0, wait_seconds: float = 0.0,
                 work_cycles: float = 0.0,
                 end_counters: Optional[Dict[str, dict]] = None,
                 outputs: Optional[dict] = None,
                 transport: Optional[dict] = None,
                 extras: Optional[Dict[str, object]] = None,
                 counters: Optional[Dict[str, float]] = None,
                 error: Optional[str] = None) -> None:
        self.name = name
        self.events = events
        self.wall_seconds = wall_seconds
        self.wait_seconds = wait_seconds
        self.work_cycles = work_cycles
        self.end_counters = {} if end_counters is None else end_counters
        self.outputs = {} if outputs is None else outputs
        #: shm transport counters (frames/batches/bytes per direction,
        #: summed over this component's rings) plus the wire codec's
        #: fallback counts
        self.transport = {} if transport is None else transport
        #: the probes' final payloads (and the child's tracer), keyed by
        #: recorder name
        self.extras = {} if extras is None else extras
        #: the component's :func:`~repro.obs.metrics.component_counters`
        #: at the end (only when the run has a run directory)
        self.counters = {} if counters is None else counters
        self.error = error


_FRAME_LEN = struct.Struct("<I")


class _Pipe:
    """One end of a pipe that carries length-prefixed pickled frames.

    Frames are written whole, so a reader blocks only while one is in
    flight.  :meth:`get_nowait` is what a child's command mailbox calls.
    """

    def __init__(self, fd: int) -> None:
        self.fd = fd

    def put(self, obj) -> None:
        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        view = memoryview(_FRAME_LEN.pack(len(data)) + data)
        while view:
            view = view[os.write(self.fd, view):]

    def get(self):
        """The next frame; ``None`` at end of file."""
        head = self._read(_FRAME_LEN.size)
        data = head and self._read(_FRAME_LEN.unpack(head)[0])
        return data and pickle.loads(data)

    def get_nowait(self):
        ready = select.poll()  # no FD_SETSIZE cap, unlike select()
        ready.register(self.fd, select.POLLIN)
        obj = self.get() if ready.poll(0) else None
        if obj is None:  # nothing pending, or the parent is gone
            from queue import Empty  # loaded with the control plane
            raise Empty
        return obj

    def _read(self, size: int) -> Optional[bytearray]:
        data = bytearray(size)
        view = memoryview(data)
        while view:
            got = os.readv(self.fd, [view])
            if not got:
                return None
            view = view[got:]
        return data


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

    def __init__(self, up, tracer, comp: Component, probes: list,
                 in_rings: List[ShmRing], t_start: float) -> None:
        from ..obs.recorder import Beater
        self._up = up
        self._tracer = tracer
        self._beater = Beater(comp, probes, t_start, in_rings)
        self._next = t_start + HB_INTERVAL_S

    def maybe(self, commit: int, waiting: bool) -> None:
        now = time.perf_counter()
        if now < self._next:
            return
        self._next = now + HB_INTERVAL_S
        hb = self._beater.beat(now, commit, waiting)
        if self._up is not None:
            self._up.put(hb)
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


def _child_main(up: _Pipe, cmds: Optional[_Pipe], spec: ProcSpec,
                wiring: List[Tuple[str, ShmRing, ShmRing, str, str]],
                until_ps: int, timeout_s: float, telemetry: bool,
                rundir: Optional[str], traced: bool, index: int,
                probe_factories: Tuple[Callable, ...]) -> None:
    result = ProcResult(name=spec.name)
    rings: List[ShmRing] = []
    tracer = None
    pump = None
    commit = 0
    try:
        flows = active_recorder()  # the parent's, inherited through fork
        if traced:
            from ..obs.trace import Tracer
            tracer = Tracer(pid=index + 1, process_name=spec.name,
                            clock="wall")
            # Causal flow tracing: hop records land in this child's ring
            # (args carry exact sim-ps), stitched across processes by the
            # merged-trace analysis.
            if flows is not None:
                install_flow_recorder(tracer, sample_n=flows.sample_n)
        elif flows is not None:
            uninstall_flow_recorder()  # no trace here to hold the hops
        comp = spec.make()
        in_rings: List[ShmRing] = []
        ends = []
        for end_name, out_ring, in_ring, peer, peer_comp in wiring:
            rings += (out_ring, in_ring)
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
        # probes beat on heartbeats, so only when someone receives them
        beating = probes if telemetry else []
        if telemetry or tracer is not None:
            pump = _HeartbeatPump(up if telemetry else None, tracer, comp,
                                  beating, in_rings, t_start)
        mailbox = None
        if cmds is not None:
            # Control-plane command mailbox, polled at sync-round
            # boundaries only: commands execute at a quiescent horizon and
            # can never interleave with event execution.
            from ..obs.live import ChildMailbox
            mailbox = ChildMailbox(
                spec.name, cmds, up, comp, tracer=tracer, rundir=rundir,
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
                        if blocking[0].in_q.aborted():
                            raise RuntimeError(
                                f"{spec.name} aborted at commit={commit}: "
                                "a peer failed")
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
        for probe in reversed(probes):  # what they installed unwinds
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
        if rundir is not None:
            from ..obs.metrics import component_counters
            result.counters = component_counters(comp)
        if tracer is not None:
            end_us = tracer.wall_us()
            tracer.span(tracer.tid("lifecycle"), "proc", "run",
                        run_start_us, end_us - run_start_us,
                        {"events": result.events,
                         "wait_seconds": result.wait_seconds})
            result.extras["trace"] = tracer
    except Exception as exc:  # pragma: no cover - error path
        result.error = f"{type(exc).__name__}: {exc}"
        if pump is not None:
            # one last beat ships what the probes closed before the
            # failure: recorders keep a partial document, not nothing
            pump.flush(commit)
    up.put(result)


def _fork(fds: List[int], control: bool, *args) -> tuple:
    """Fork a child that runs ``_child_main(up, cmds, *args)``; return its
    pid and the parent's ends of its pipes (added to ``fds``, which every
    child closes first).  The child never returns: it flushes stdout and
    stderr and leaves with ``os._exit``."""
    up_r, up_w = os.pipe()
    cmd_r, cmd_w = os.pipe() if control else (None, None)
    fds += [fd for fd in (up_r, cmd_w) if fd is not None]
    try:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                for fd in fds:
                    os.close(fd)
                _child_main(_Pipe(up_w),
                            None if cmd_r is None else _Pipe(cmd_r), *args)
                code = 0
            except BaseException:  # pragma: no cover - the result is lost
                import traceback
                traceback.print_exc()
                raise
            finally:
                try:
                    sys.stdout.flush()
                    sys.stderr.flush()
                finally:
                    os._exit(code)
    finally:
        os.close(up_w)
        if cmd_r is not None:
            os.close(cmd_r)
    return pid, _Pipe(up_r), None if cmd_w is None else _Pipe(cmd_w)


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
        #: recorders of the next :meth:`run` (collectors, see
        #: :mod:`repro.obs.recorder`, and the trace recorder): children
        #: run their probes, the parent feeds them
        self.recorders: list = []

    def run(self, until_ps: int, timeout_s: float = 120.0, *,
            rundir: Optional[str] = None, progress: bool = False,
            control: bool = False) -> Dict[str, ProcResult]:
        """Run all components to ``until_ps``; returns per-component results.

        What the run records is :attr:`recorders`; the keywords are where
        it is deployed and where it writes.

        Parameters
        ----------
        rundir:
            Write the run into this run directory
            (:func:`repro.obs.rundir.write_run`): ``run_report.json``,
            ``stats.json`` (the children's counters plus the transport's)
            and each recorder's artifact — also when a component fails or
            the parent times out, before raising.  With the trace
            recorder, a flow recorder installed in this process
            (``Instantiation(flow_sample=N)``) writes each child's causal
            flow hops into that child's trace at the same 1-in-N; without
            it children detach it.
        progress:
            Render a live one-line status (stderr) from child heartbeats.
        control:
            Serve the live control plane from ``rundir``: a
            ``control.json`` discovery file plus a unix-socket endpoint
            that ``splitsim-inspect attach`` connects to.  Children poll
            a command mailbox at sync-round boundaries, so commands never
            perturb event order (the determinism digest is unchanged).
        """
        if control and rundir is None:
            raise ValueError("the control plane is served from a run "
                             "directory: pass rundir")
        rings: List[ShmRing] = []
        # wiring[comp] = (end_name, out_ring, in_ring, peer_end, peer_comp)
        wiring: Dict[str, List[Tuple[str, ShmRing, ShmRing, str, str]]] = {
            s.name: [] for s in self.specs
        }
        names = [s.name for s in self.specs]
        collectors = list(self.recorders)
        trace = next((c for c in collectors if c.name == "trace"), None)
        # one probe per recorder name per child (fork-inherited factories)
        probes = {c.name: c.probe for c in collectors if hasattr(c, "probe")}
        want_telemetry = progress or rundir is not None or bool(probes)
        aggregator = None
        monitor = None
        plane = None
        if want_telemetry:
            from ..obs.recorder import deliver
            from ..obs.telemetry import TelemetryAggregator, HealthMonitor
            aggregator = TelemetryAggregator(names)
            monitor = HealthMonitor(names, hb_interval_s=HB_INTERVAL_S,
                                    stall_intervals=STALL_INTERVALS,
                                    stale_after_s=STALE_AFTER_S)
        for collector in collectors:
            collector.begin(names, until_ps, "mp")
        probe_factories = tuple(probes.values())
        children: Dict[int, Tuple[str, int, _Pipe]] = {}  # by up-pipe fd
        cmd_pipes: Dict[str, _Pipe] = {}
        fds: List[int] = []  # the parent's pipe ends
        try:
            for ch in self.channels:
                r_ab = ShmRing.create(self.ring_bytes)
                r_ba = ShmRing.create(self.ring_bytes)
                rings += (r_ab, r_ba)
                wiring[ch.comp_a].append(
                    (ch.end_a, r_ab, r_ba, ch.end_b, ch.comp_b))
                wiring[ch.comp_b].append(
                    (ch.end_b, r_ba, r_ab, ch.end_a, ch.comp_a))
            launch_us = trace.phase_tracer.wall_us() if trace else 0.0
            sys.stdout.flush()  # else each child repeats the buffered text
            sys.stderr.flush()
            for index, spec in enumerate(self.specs):
                pid, up, cmds = _fork(
                    fds, control, spec, wiring[spec.name], until_ps,
                    timeout_s, want_telemetry, rundir, trace is not None,
                    index, probe_factories)
                children[up.fd] = (spec.name, pid, up)
                if cmds is not None:
                    cmd_pipes[spec.name] = cmds
            replies = None
            if control:
                from queue import Queue
                from ..obs.live import ControlPlane
                merge_partial = None
                if trace is not None:
                    merge_partial = lambda: trace.save_partial(rundir, names)
                replies = Queue()
                plane = ControlPlane(
                    rundir, names, until_ps, aggregator, monitor,
                    cmd_pipes, replies, merge_partial=merge_partial)
                plane.start()
            if trace is not None:
                trace.phase("launch", launch_us,
                            {"processes": len(self.specs)})
            t_run0 = time.perf_counter()
            results: Dict[str, ProcResult] = {}
            deadline = time.monotonic() + timeout_s + _PARENT_GRACE_S
            ready = select.poll()
            for fd in children:
                ready.register(fd, select.POLLIN)
            while children:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    break
                if monitor is not None:  # the watchdog's cadence
                    wait = min(wait, max(HB_INTERVAL_S, 0.01))
                noted = False
                for fd, _ in ready.poll(wait * 1e3):
                    name, pid, up = children[fd]
                    obj = up.get()
                    if isinstance(obj, ProcResult):
                        results[name] = obj
                    elif isinstance(obj, tuple):  # a control reply
                        replies.put(obj)
                    elif obj is not None:  # a heartbeat
                        aggregator.note(obj)
                        deliver(obj, collectors)
                        noted = True
                    if obj is not None:
                        continue
                    del children[fd]  # end of file: the child has exited
                    ready.unregister(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if name not in results:
                        import signal
                        results[name] = ProcResult(name, error=(
                            f"killed by {signal.Signals(-code).name}"
                            if code < 0 else f"exited with code {code} "
                            "before sending its result"))
                    res = results[name]
                    if monitor is not None:
                        monitor.note_done(name, res.error)
                    if plane is not None:
                        plane.note_done(name, res.error)
                    if res.error:  # a failed child stays missing, and
                        for ring in rings:  # its blocked peers leave
                            ring.abort()
                    else:
                        for collector in collectors:
                            collector.note_result(
                                name, res.extras.get(collector.name))
                if monitor is not None:
                    monitor.observe(aggregator)
                if progress and noted:
                    line = aggregator.status_line(
                        stale_after_s=monitor.stale_after_s)
                    sys.stderr.write("\r\x1b[K" + line + monitor.badge())
                    sys.stderr.flush()
            if progress:
                sys.stderr.write("\n")
                sys.stderr.flush()
            wall_total = time.perf_counter() - t_run0
            if trace is not None:
                trace.finish()  # the run phase
            if rundir is not None:
                self._write_run(rundir, until_ps, wall_total, results,
                                aggregator, monitor.report())
            if children:  # the parent's deadline passed
                missing = sorted(name for name, _, _ in children.values())
                raise TimeoutError(
                    "simulation processes did not finish: "
                    f"no result from {missing}")
            errors = {n: r.error for n, r in results.items() if r.error}
            if errors:
                raise RuntimeError(f"component failures: {errors}")
            return results
        finally:
            if children:  # kill and reap what still runs
                import signal
                for _, pid, _ in children.values():
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            if plane is not None:
                plane.close()
            for fd in fds:
                os.close(fd)
            for ring in rings:
                ring.close()

    def _write_run(self, rundir: str, until_ps: int, wall_seconds: float,
                   results: Dict[str, ProcResult], aggregator,
                   health: dict) -> None:
        """The run directory of this run: the children's counters plus
        their transport's as ``stats.json``, next to the report and the
        recorders' artifacts."""
        from ..obs.metrics import transport_counters
        from ..obs.rundir import write_run
        from ..obs.telemetry import build_run_report
        metrics: Dict[str, float] = {}
        components = {}
        for name, res in results.items():
            metrics.update(res.counters)
            metrics.update(transport_counters(name, res.transport))
            components[name] = {
                "events": res.events, "wall_seconds": res.wall_seconds,
                "wait_seconds": res.wait_seconds,
                "work_cycles": res.work_cycles, "error": res.error,
                "outputs": res.outputs, "transport": res.transport}
        write_run(rundir, self.recorders, build_run_report(
            "mp", until_ps, wall_seconds, components, aggregator, health),
            metrics)
