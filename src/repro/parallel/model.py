"""Virtual-time model of parallel simulation execution.

Given (a) the per-window host-cycle work each component performed during a
real (in-process) simulation run, (b) the channel graph between components,
and (c) a synchronization discipline, this model computes the wall-clock
schedule a real parallel execution would follow on a target machine.

The model is the standard conservative-PDES makespan recurrence.  Simulated
time is cut into windows of the recorder's granularity; a component may begin
executing window ``w`` only once its synchronization predecessors have
finished window ``w-1``:

* ``splitsim`` / ``nullmsg`` (peer-to-peer): predecessors are the component's
  channel neighbors.
* ``barrier`` (ns-3 MPI style): predecessors are *all* components, plus a
  global barrier cost per lookahead interval.

Each window additionally charges per-message transfer costs and per-sync
marker costs (one sync per lookahead interval per channel — the cost of
keeping peers' horizons growing even when idle, which is exactly the
overhead that makes over-partitioned simulations slower, Fig. 9).

When more processes than physical cores are used, a per-window contention
correction stretches the schedule so no window completes faster than its
total work divided by the core count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..kernel.simtime import SEC
from ..obs.recorder import Collector
from .costmodel import CommCosts, Machine, PAPER_MACHINE, barrier_cost_cycles


class WorkRecorder(Collector):
    """The model's input, the recorder-seam collector ``"work"``: modeled
    host cycles per (component, sim-time window) and message deliveries
    per (src, dst component, window).  Its probes beat nothing and ship
    their buckets as results, so a component in :attr:`partial` (it
    never delivered them) recorded no work at all; it writes no
    artifact."""

    name = "work"

    def __init__(self, window_ps: int) -> None:
        if window_ps <= 0:
            raise ValueError("window must be positive")
        super().__init__()
        self.window_ps = window_ps
        #: component name -> {window index -> cycles}
        self.work: Dict[str, Dict[int, float]] = {}
        #: (src component, dst component) -> {window index -> messages}
        self.msgs: Dict[tuple, Dict[int, int]] = {}

    def probe(self, comp) -> "_WorkProbe":
        return _WorkProbe(comp, self)

    def note_result(self, comp: str, payload) -> None:
        """One component's buckets: ``(work, {src: msgs})``."""
        super().note_result(comp, payload)
        work, msgs = payload or ({}, {})
        if work:
            self.work[comp] = work
        self.msgs.update(((src, comp), n) for src, n in msgs.items())

    def note_work(self, comp: str, ts: int, cycles: float) -> None:
        """Account ``cycles`` of host work at simulated time ``ts``."""
        win = ts // self.window_ps
        buckets = self.work.setdefault(comp, {})
        buckets[win] = buckets.get(win, 0.0) + cycles

    def note_msg(self, src: str, dst: str, ts: int) -> None:
        """Account one cross-component message delivery."""
        win = ts // self.window_ps
        buckets = self.msgs.setdefault((src, dst), {})
        buckets[win] = buckets.get(win, 0) + 1

    def total_work(self, comp: str) -> float:
        """All recorded cycles of one component."""
        return sum(self.work.get(comp, {}).values())


def _work_hook(collector: WorkRecorder, prev):
    """A ``queue.trace`` hook adding the owner's ``cycles_per_event`` to the
    event's window in ``hook.owners[owner]``, then calling ``prev``: one
    frame and no allocation per event, for every owner of the queue."""
    owners: Dict[object, Dict[int, float]] = {}
    window = collector.window_ps

    def hook(owner, ts):
        buckets = owners[owner]
        win = ts // window
        buckets[win] = buckets.get(win, 0.0) + owner.cycles_per_event
        if prev is not None:
            prev(owner, ts)
    hook.owners, hook.collector, hook.prev = owners, collector, prev
    return hook


class _WorkProbe:
    """One component's per-window work and received messages, through
    three sinks installed for the run and removed by :meth:`result`: the
    collector's hook on the component's queue, ``add_work`` shadowed on the
    instance, and a counting wrapper around each wired end's handler (both
    charge the window of ``comp.now``)."""

    name = "work"

    def __init__(self, comp, collector: WorkRecorder) -> None:
        self.comp = comp
        self.work: Dict[int, float] = {}
        #: peer component -> {window index -> deliveries}
        self.msgs: Dict[str, Dict[int, int]] = {}
        work, window = self.work, collector.window_ps
        hook = comp.queue.trace
        if getattr(hook, "collector", None) is not collector:
            hook = comp.queue.trace = _work_hook(collector, hook)
        hook.owners[comp] = work
        self._hooked = comp.queue, hook
        inner = comp.add_work

        def add_work(cycles):
            inner(cycles)
            win = comp.now // window
            work[win] = work.get(win, 0.0) + cycles

        def counted(handler, buckets):
            def deliver(msg):
                win = comp.now // window
                buckets[win] = buckets.get(win, 0) + 1
                handler(msg)
            return deliver

        self._saved = vars(comp).get("add_work"), comp._handlers
        comp.add_work = add_work
        comp._handlers = handlers = dict(comp._handlers)
        for end in comp.ends:
            if end.peer_comp_name:
                handler = handlers.get(id(end)) or \
                    partial(comp.handle_message, end)
                handlers[id(end)] = counted(
                    handler, self.msgs.setdefault(end.peer_comp_name, {}))

    def beat(self, commit_ps: int) -> None:
        return None

    def result(self) -> tuple:
        """Remove the three sinks; ship ``(work, {peer: msgs})``."""
        queue, hook = self._hooked
        if queue.trace is hook:  # a shared queue's first result unhooks
            queue.trace = hook.prev
        comp = self.comp
        add_work, comp._handlers = self._saved
        if add_work is None:
            del comp.add_work
        else:
            comp.add_work = add_work
        return self.work, {peer: n for peer, n in self.msgs.items() if n}


@dataclass(frozen=True)
class ModelChannel:
    """A synchronized channel between two named components."""

    comp_a: str
    comp_b: str
    latency_ps: int


def model_channels(channels) -> List[ModelChannel]:
    """The model's channel graph: one record per connected end pair
    (``Simulation.channels``), named by the components owning the ends."""
    return [ModelChannel(a.owner.name, b.owner.name, a.latency)
            for a, b in channels]


@dataclass
class ComponentModelStats:
    """Per-component outcome of the execution model."""

    work_cycles: float = 0.0
    comm_cycles: float = 0.0
    wait_cycles: float = 0.0
    finish_cycles: float = 0.0

    @property
    def efficiency(self) -> float:
        """Fraction of cycles doing simulation work (not comm/sync/waiting)."""
        total = self.work_cycles + self.comm_cycles + self.wait_cycles
        if total <= 0:
            return 1.0
        return self.work_cycles / total


@dataclass
class ModelResult:
    """Modeled wall-clock outcome of one parallel execution."""

    discipline: str
    machine: Machine
    n_procs: int
    sim_time_ps: int
    makespan_cycles: float
    components: Dict[str, ComponentModelStats]
    #: cycles that ``src`` spent waiting attributable to ``dst``
    edge_wait_cycles: Dict[Tuple[str, str], float]

    @property
    def wall_seconds(self) -> float:
        """Modeled wall-clock duration of the parallel run."""
        return self.machine.cycles_to_seconds(self.makespan_cycles)

    @property
    def sim_speed(self) -> float:
        """Simulated seconds per wall-clock second (higher is better)."""
        if self.makespan_cycles <= 0:
            return float("inf")
        return (self.sim_time_ps / SEC) / self.wall_seconds

    @property
    def core_seconds(self) -> float:
        """Total busy+wait processor time across all processes."""
        return self.n_procs * self.wall_seconds

    def summary(self) -> str:
        """Human-readable per-process breakdown of the modeled run."""
        lines = [
            f"discipline={self.discipline} procs={self.n_procs} "
            f"cores={self.machine.cores} wall={self.wall_seconds:.2f}s "
            f"sim_speed={self.sim_speed:.3e}"
        ]
        for name in sorted(self.components):
            st = self.components[name]
            lines.append(
                f"  {name}: work={st.work_cycles:.3g} comm={st.comm_cycles:.3g} "
                f"wait={st.wait_cycles:.3g} eff={st.efficiency:.2f}"
            )
        return "\n".join(lines)


class ParallelExecutionModel:
    """Replays a recorded workload under a synchronization discipline."""

    def __init__(self, recorder: WorkRecorder, sim_time_ps: int,
                 channels: Sequence[ModelChannel],
                 components: Optional[Iterable[str]] = None,
                 machine: Machine = PAPER_MACHINE,
                 baselines: Optional[Dict[str, float]] = None) -> None:
        self.recorder = recorder
        self.sim_time_ps = sim_time_ps
        self.channels = list(channels)
        self.machine = machine
        #: component name -> idle simulation cost (cycles per simulated ps);
        #: see repro.parallel.costmodel baseline constants.
        self.baselines = dict(baselines or {})
        names = set(components) if components is not None else set(recorder.work)
        for ch in self.channels:
            names.add(ch.comp_a)
            names.add(ch.comp_b)
        self.names: List[str] = sorted(names)
        self._neighbors: Dict[str, List[Tuple[str, ModelChannel]]] = {
            n: [] for n in self.names
        }
        for ch in self.channels:
            self._neighbors[ch.comp_a].append((ch.comp_b, ch))
            self._neighbors[ch.comp_b].append((ch.comp_a, ch))

    # -- main entry ---------------------------------------------------------

    def run(self, discipline: str = "splitsim",
            groups: Optional[Dict[str, str]] = None) -> ModelResult:
        """Model one parallel execution.

        Parameters
        ----------
        discipline:
            ``"splitsim"``, ``"nullmsg"``, or ``"barrier"``.
        groups:
            Optional mapping component name -> process name.  Components in
            the same process are consolidated: their work serializes, and
            channels internal to a process cost nothing.  This is how
            different partitionings of one recorded workload are compared
            without re-running the simulation.
        """
        costs = CommCosts.for_discipline(discipline)
        groups = groups or {n: n for n in self.names}
        for n in self.names:
            if n not in groups:
                groups[n] = n

        procs = sorted(set(groups.values()))
        proc_index = {p: i for i, p in enumerate(procs)}
        n_procs = len(procs)

        window = self.recorder.window_ps
        n_windows = max(1, -(-self.sim_time_ps // window))

        # Consolidate per-window work into processes.
        work: Dict[str, Dict[int, float]] = {p: {} for p in procs}
        for comp, buckets in self.recorder.work.items():
            p = groups.get(comp, comp)
            dst = work.setdefault(p, {})
            for w, cyc in buckets.items():
                dst[w] = dst.get(w, 0.0) + cyc
        # Baseline (idle) simulation cost accrues every window.
        base_per_proc: Dict[str, float] = {}
        for comp, per_ps in self.baselines.items():
            if per_ps <= 0:
                continue
            p = groups.get(comp, comp)
            if p in work:
                base_per_proc[p] = base_per_proc.get(p, 0.0) + per_ps * window

        # Cross-process channels (internal ones disappear).
        proc_channels: List[Tuple[str, str, ModelChannel]] = []
        for ch in self.channels:
            pa, pb = groups[ch.comp_a], groups[ch.comp_b]
            if pa != pb:
                proc_channels.append((pa, pb, ch))
        neighbors: Dict[str, set] = {p: set() for p in procs}
        #: per-process per-window sync marker cost
        sync_cost: Dict[str, float] = {p: 0.0 for p in procs}
        for pa, pb, ch in proc_channels:
            neighbors[pa].add(pb)
            neighbors[pb].add(pa)
            syncs_per_window = max(1.0, window / ch.latency_ps)
            sync_cycles = costs.sync_cycles * syncs_per_window
            sync_cost[pa] += sync_cycles
            sync_cost[pb] += sync_cycles

        # Per-window data-message transfer cost, charged to both endpoints.
        msg_cost: Dict[str, Dict[int, float]] = {p: {} for p in procs}
        for (src, dst), buckets in self.recorder.msgs.items():
            ps, pd = groups.get(src, src), groups.get(dst, dst)
            if ps == pd or ps not in msg_cost or pd not in msg_cost:
                continue
            for w, count in buckets.items():
                add = costs.msg_cycles * count
                msg_cost[ps][w] = msg_cost[ps].get(w, 0.0) + add
                msg_cost[pd][w] = msg_cost[pd].get(w, 0.0) + add

        min_latency = min((ch.latency_ps for ch in self.channels), default=window)
        barrier_per_window = 0.0
        if costs.uses_barrier and n_procs > 1:
            rounds = max(1.0, window / min_latency)
            barrier_per_window = barrier_cost_cycles(n_procs) * rounds

        stats = {p: ComponentModelStats() for p in procs}
        edge_wait: Dict[Tuple[str, str], float] = {}
        finish_prev = [0.0] * n_procs
        finish_cur = [0.0] * n_procs
        over_cores = n_procs > self.machine.cores

        for w in range(n_windows):
            global_prev = max(finish_prev) if n_procs > 1 else finish_prev[0]
            window_work_total = 0.0
            for p in procs:
                i = proc_index[p]
                own_prev = finish_prev[i]
                if costs.uses_barrier and n_procs > 1:
                    ready = global_prev
                    blocker = None
                    if ready > own_prev:
                        # attribute to slowest other proc
                        j = max(range(n_procs), key=lambda k: finish_prev[k])
                        blocker = procs[j]
                else:
                    ready = own_prev
                    blocker = None
                    for q in neighbors[p]:
                        fq = finish_prev[proc_index[q]]
                        if fq > ready:
                            ready = fq
                            blocker = q
                wait = ready - own_prev
                if wait > 0:
                    stats[p].wait_cycles += wait
                    if blocker is not None:
                        key = (p, blocker)
                        edge_wait[key] = edge_wait.get(key, 0.0) + wait
                cost_work = work.get(p, {}).get(w, 0.0) + base_per_proc.get(p, 0.0)
                cost_comm = msg_cost[p].get(w, 0.0) + sync_cost[p] + barrier_per_window
                stats[p].work_cycles += cost_work
                stats[p].comm_cycles += cost_comm
                finish_cur[i] = ready + cost_work + cost_comm
                window_work_total += cost_work + cost_comm

            if over_cores:
                span = max(finish_cur) - global_prev
                feasible = window_work_total / self.machine.cores
                if feasible > span:
                    stretch = feasible - span
                    for i in range(n_procs):
                        finish_cur[i] += stretch
            finish_prev, finish_cur = finish_cur, finish_prev

        makespan = max(finish_prev)
        for p in procs:
            stats[p].finish_cycles = finish_prev[proc_index[p]]
        return ModelResult(
            discipline=discipline,
            machine=self.machine,
            n_procs=n_procs,
            sim_time_ps=self.sim_time_ps,
            makespan_cycles=makespan,
            components=stats,
            edge_wait_cycles=edge_wait,
        )


def scale_recorder(recorder: WorkRecorder, factor: float,
                   only=None) -> WorkRecorder:
    """A copy of ``recorder`` with work scaled by ``factor``.

    Used to model a network simulator with a different per-event cost
    (e.g. OMNeT++ vs ns-3, as Fig. 8 does), or to represent a heavier workload from a scaled-down
    execution (network-simulator work is proportional to event count, so
    the scaling is exact).  ``only`` optionally restricts the scaling to
    components for which ``only(name)`` is true.
    """
    out = WorkRecorder(recorder.window_ps)
    for comp, buckets in recorder.work.items():
        f = factor if (only is None or only(comp)) else 1.0
        out.work[comp] = {w: cyc * f for w, cyc in buckets.items()}
    out.msgs = {pair: dict(b) for pair, b in recorder.msgs.items()}
    return out
