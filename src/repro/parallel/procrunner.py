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
batch.  At the parent's deadline, the children still running are killed,
reaped and reported failed.  With telemetry on, the parent's one view of
the children is a :class:`~repro.obs.telemetry.RunWatch`.

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
#: Children read it at fork; the parent's watch derives its staleness
#: threshold from it (:class:`~repro.obs.telemetry.RunWatch`).
HB_INTERVAL_S = 0.25

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


#: one component's rings: (end, out ring, in ring, peer end, peer component)
_Wiring = List[Tuple[str, ShmRing, ShmRing, str, str]]


def _ring_pairs(channels: List[ProcChannel], names: List[str],
                ring_bytes: int, rings: List[ShmRing]) -> Dict[str, _Wiring]:
    """Each component's wiring; two new rings per channel join ``rings``."""
    wiring: Dict[str, _Wiring] = {name: [] for name in names}
    for ch in channels:
        r_ab = ShmRing.create(ring_bytes)
        r_ba = ShmRing.create(ring_bytes)
        rings += (r_ab, r_ba)
        wiring[ch.comp_a].append((ch.end_a, r_ab, r_ba, ch.end_b, ch.comp_b))
        wiring[ch.comp_b].append((ch.end_b, r_ba, r_ab, ch.end_a, ch.comp_a))
    return wiring


def _wire(comp: Component, wiring: _Wiring) -> List[ShmRing]:
    """Attach ``comp``'s ends to their rings; return the rings it uses."""
    ends = {end.name: end for end in comp.ends}
    for end_name, out_ring, in_ring, peer, peer_comp in wiring:
        if end_name not in ends:
            raise KeyError(f"{comp.name}: no channel end named {end_name!r}")
        ends[end_name].wire(out_q=out_ring, in_q=in_ring, peer_name=peer)
        ends[end_name].peer_comp_name = peer_comp
    return [ring for wired in wiring for ring in wired[1:3]]


class Stepper:
    """One component's λ-step loop over its ring-wired ends, in an mp
    child or, over the same rings, beside other steppers in one process.
    ``probes`` are recorder probe factories; with ``beats`` (a heartbeat
    sink) or a ``tracer``, both loops beat every ``HB_INTERVAL_S``."""

    def __init__(self, comp: Component, until_ps: int,
                 timeout_s: float = 120.0, beats=None, tracer=None,
                 probes: Tuple[Callable, ...] = (), mailbox=None) -> None:
        self.comp = comp
        self.until_ps = until_ps
        self.tracer = tracer
        self.mailbox = mailbox
        self._beats = beats
        ends = [e for e in comp.ends if e.out_batch is not None]
        self.interval = min((e.sync_interval for e in ends), default=until_ps)
        self._outs = [(e, e.out_batch) for e in ends]
        self._receives = [e.receive for e in ends]
        self.probes = [make(comp) for make in probes]
        self.commit = 0
        self.wait_ns = 0  # wall time spent in :meth:`wait`
        self.t_start = time.perf_counter()
        self.deadline = self.t_start + timeout_s
        self._next_beat = self.t_start + HB_INTERVAL_S
        self._beater = None
        if beats is not None or tracer is not None:
            from ..obs.recorder import Beater
            # probes beat on heartbeats, so only when someone receives them
            self._beater = Beater(comp, [] if beats is None else self.probes,
                                  self.t_start, [e.in_q for e in ends])

    def step(self) -> str:
        """Drain the rings into the inboxes, advance to ``commit +
        interval`` and flush, without blocking:
        ``"done"`` (at ``until_ps``, or a mailbox stop), ``"blocked"`` (on
        the input horizon or a full ring; :meth:`wait` next) or
        ``"progressed"``."""
        target = min(self.until_ps, self.commit + self.interval)
        for receive in self._receives:
            receive()
        commit = self.commit = self.comp.advance(target)
        done = commit >= self.until_ps
        blocked = commit < target  # the input horizon is in the way
        # Publish this round's frames (the peers run this input window
        # concurrently); when finished or about to block, also any deferred
        # promise, so the peer never stalls on one we coalesced.
        force = done or blocked
        full = False
        for e, _batch in self._outs:
            if e.flush(force):
                # a full ring keeps the tail, which holds nothing a peer
                # at until_ps (by its promise) executes once we are done
                if not done or e.inbox.promise < self.until_ps + e.latency:
                    full = True
        self.beat(False, self._next_beat)
        if self.mailbox is not None and self.mailbox.poll(commit):
            return "done"  # graceful stop at this quiescent horizon
        if full or blocked:
            return "blocked"
        return "done" if done else "progressed"

    def wait(self) -> bool:
        """The one wait: for room in a full ring, else for input on an end
        limiting the horizon.  Spin (inputs only), yield, nap; each backoff
        step beats, polls the mailbox (False: a stop ends the run), reads
        the abort word and checks the deadline."""
        ends = [e for e, batch in self._outs if batch]
        waiting, spin = [e.flush for e in ends], 1  # true while frames remain
        if not ends:
            ends = self.comp.blocking_ends()
            waiting, spin = [e.in_q.empty for e in ends], _SPIN_BATCH
        ring = ends[0].in_q  # the parent sets every ring's abort word
        t0 = time.perf_counter_ns()
        spins = naps = 0
        stop = False
        while True:
            for still in waiting:
                if not still():
                    break  # input arrived, or the frames are out
            else:
                spins += 1
                if spins % spin:
                    continue
                if naps < _YIELD_ROUNDS:
                    time.sleep(0)
                else:
                    step = min(naps - _YIELD_ROUNDS, 6)
                    time.sleep(min(_NAP_MAX_S, _NAP_BASE_S * (1 << step)))
                naps += 1
                self.beat(True, self._next_beat)
                if self.mailbox is not None and self.mailbox.poll(self.commit):
                    stop = True  # commit is still quiescent here
                    break
                if ring.aborted():
                    raise RuntimeError(
                        f"{self.comp.name} aborted at commit={self.commit}:"
                        " run aborted, a peer failed")
                if time.perf_counter() > self.deadline:
                    raise TimeoutError(
                        f"{self.comp.name} stuck at commit={self.commit}")
                continue
            break
        dt = time.perf_counter_ns() - t0
        self.wait_ns += dt
        for e in ends:
            e.note_wait(dt / len(ends))
        tracer = self.tracer
        if tracer is not None:
            tracer.span(tracer.tid("sync"), "sync",
                        f"wait|{'+'.join(e.name for e in ends)}",
                        tracer.wall_us() - dt / 1e3, dt / 1e3,
                        {"commit": self.commit, "on": [
                            e.peer_comp_name or e.peer_name for e in ends]})
        return not stop

    def beat(self, waiting: bool = False, due: float = 0.0) -> None:
        """Heartbeat and telemetry counters, once ``due`` has passed."""
        if self._beater is None or (now := time.perf_counter()) < due:
            return
        self._next_beat = now + HB_INTERVAL_S
        hb = self._beater.beat(now, self.commit, waiting)
        if self._beats is not None:
            self._beats.put(hb)
        tracer = self.tracer
        if tracer is not None:
            ts = tracer.wall_us()
            tracer.counter(tracer.tid("telemetry"), "telemetry", "progress",
                           ts, {"sim_ps": self.commit, "events": hb.events})
            tracer.counter(tracer.tid("telemetry"), "telemetry", "ring_fill",
                           ts, {"in_fill": hb.ring_fill})

    def finish(self) -> dict:
        """The probes' results by recorder name, after a last beat (if they
        beat) so that their totals cover exactly the run."""
        if self._beater is not None and self._beater.probes:
            self.beat()
        extras = {}
        for probe in reversed(self.probes):
            payload = probe.result()
            if payload is not None:
                extras[probe.name] = payload
        return extras


def _child_main(up: _Pipe, cmds: Optional[_Pipe], spec: ProcSpec,
                wiring: _Wiring, until_ps: int, timeout_s: float,
                telemetry: bool, rundir: Optional[str],
                tracer_pid: Optional[int],
                probes: Tuple[Callable, ...]) -> None:
    """An mp child: set up its component and a :class:`Stepper`, run the
    stepper to the end, and send the :class:`ProcResult` up ``up``."""
    result = ProcResult(name=spec.name)
    tracer = stepper = None
    try:
        flows = active_recorder()  # the parent's, inherited through fork
        if tracer_pid is not None:
            from ..obs.trace import Tracer
            tracer = Tracer(pid=tracer_pid, process_name=spec.name,
                            clock="wall")
            # causal flow hops land in this child's trace (exact sim-ps),
            # stitched across processes by the merged-trace analysis
            if flows is not None:
                install_flow_recorder(tracer, sample_n=flows.sample_n)
        elif flows is not None:
            uninstall_flow_recorder()  # no trace here to hold the hops
        comp = spec.make()
        rings = _wire(comp, wiring)
        mailbox = None
        if cmds is not None:  # the control plane's commands (DESIGN §8)
            from ..obs.live import ChildMailbox
            mailbox = ChildMailbox(
                spec.name, cmds, up, comp, tracer=tracer, rundir=rundir,
                transport_stats=lambda: _transport_stats(rings))
        stepper = Stepper(comp, until_ps, timeout_s, up if telemetry else None,
                          tracer, probes, mailbox)
        if tracer is not None:
            run_start_us = tracer.wall_us()
            tracer.span(tracer.tid("lifecycle"), "proc", "setup",
                        0.0, run_start_us)
        while (state := stepper.step()) != "done":
            if state == "blocked" and not stepper.wait():
                break  # a mailbox stop
        collect = getattr(comp, "collect_outputs", None)
        result = ProcResult(
            spec.name, events=comp.events_processed,
            extras=stepper.finish(),
            wall_seconds=time.perf_counter() - stepper.t_start,
            wait_seconds=stepper.wait_ns / 1e9, work_cycles=comp.work_cycles,
            end_counters={e.name: e.counters() for e in comp.ends},
            outputs=None if collect is None else collect(),
            transport=_transport_stats(rings))
        if rundir is not None:
            from ..obs.metrics import component_counters
            result.counters = component_counters(comp)
        if tracer is not None:
            tracer.span(tracer.tid("lifecycle"), "proc", "run", run_start_us,
                        tracer.wall_us() - run_start_us,
                        {"events": result.events,
                         "wait_seconds": result.wait_seconds})
            result.extras["trace"] = tracer
    except Exception as exc:  # pragma: no cover - error path
        result.error = f"{type(exc).__name__}: {exc}"
        if stepper is not None:
            # one last beat ships what the probes closed before the
            # failure: recorders keep a partial document, not nothing
            stepper.beat()
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
        names = [s.name for s in self.specs]
        collectors = list(self.recorders)
        trace = next((c for c in collectors if c.name == "trace"), None)
        # one probe per recorder name per child (fork-inherited factories)
        probes = {c.name: c.probe for c in collectors if hasattr(c, "probe")}
        want_telemetry = progress or rundir is not None or bool(probes)
        watch = plane = None
        if want_telemetry:
            from ..obs.recorder import deliver
            from ..obs.telemetry import RunWatch
            watch = RunWatch(names, HB_INTERVAL_S)
        for collector in collectors:
            collector.begin(names, until_ps, "mp")
        children: Dict[int, Tuple[str, int, _Pipe]] = {}  # by up-pipe fd
        cmd_pipes: Dict[str, _Pipe] = {}
        fds: List[int] = []  # the parent's pipe ends
        try:
            wiring = _ring_pairs(self.channels, names, self.ring_bytes,
                                 rings)
            launch_us = trace.phase_tracer.wall_us() if trace else 0.0
            sys.stdout.flush()  # else each child repeats the buffered text
            sys.stderr.flush()
            for index, spec in enumerate(self.specs):
                pid, up, cmds = _fork(
                    fds, control, spec, wiring[spec.name], until_ps,
                    timeout_s, want_telemetry, rundir,
                    index + 1 if trace is not None else None,
                    tuple(probes.values()))
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
                plane = ControlPlane(rundir, until_ps, watch, cmd_pipes,
                                     replies, merge_partial=merge_partial)
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
                if watch is not None:  # the watch's cadence
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
                        watch.note(obj)
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
                    if watch is not None:
                        watch.note_done(name, res.error)
                    if res.error:  # a failed child stays missing, and
                        for ring in rings:  # its blocked peers leave
                            ring.abort()
                    else:
                        for collector in collectors:
                            collector.note_result(
                                name, res.extras.get(collector.name))
                if watch is not None:
                    watch.tick()
                if progress and noted:
                    sys.stderr.write("\r\x1b[K" + watch.status_line())
                    sys.stderr.flush()
            if progress:
                sys.stderr.write("\n")
                sys.stderr.flush()
            wall_total = time.perf_counter() - t_run0
            hung = sorted(name for name, _, _ in children.values())
            for name in hung:  # the parent's deadline passed
                results[name] = ProcResult(name, error=(
                    "no result by the parent's deadline "
                    f"({timeout_s + _PARENT_GRACE_S:g}s after launch)"))
                if watch is not None:
                    watch.note_done(name, results[name].error)
            if trace is not None:
                trace.finish()  # the run phase
            if rundir is not None:
                self._write_run(rundir, until_ps, wall_total, results, watch)
            if hung:
                raise TimeoutError("simulation processes did not finish: "
                                   f"no result from {hung}")
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
                   results: Dict[str, ProcResult], watch) -> None:
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
            "mp", until_ps, wall_seconds, components, watch),
            metrics)
