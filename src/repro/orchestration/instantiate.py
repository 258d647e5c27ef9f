"""Instantiation: turning a system configuration into a runnable simulation.

An :class:`Instantiation` holds the *implementation choices* — which host
simulator backs each detailed host, how the network is partitioned, which
execution mode runs the whole thing — and :meth:`build` assembles all
component simulators and channels into a ready
:class:`~repro.orchestration.instantiate.Experiment`.

The resulting experiment exposes the pieces the evaluation needs: the apps
(for workload metrics), per-component work recordings (for the
virtual-time performance model, which reads its channel graph off the
simulation), and the recorders the
instantiation declared — among them the epoch timeline, which
:meth:`Experiment.profile_analysis` post-processes into the profiler's
speed, efficiency and wait-time profile graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from ..channels.channel import ChannelEnd
from ..kernel.rng import derive_seed
from ..kernel.simtime import NS
from ..netsim.network import NetworkSim
from ..netsim.topology import NetBuild, instantiate
from ..parallel.simulation import SimStats, Simulation
from ..record import Record
from .system import System

if TYPE_CHECKING:  # pragma: no cover
    from ..hostsim.host import HostSim
    from ..netsim.fidelity import FidelityConfig
    from ..nicsim.i40e import I40eNic
    from ..parallel.model import ParallelExecutionModel
    from ..profiler.postprocess import ProfileAnalysis

DEFAULT_ETH_LATENCY_PS = 500 * NS
DEFAULT_PCI_LATENCY_PS = 250 * NS


class ExperimentResult(Record):
    """Everything a finished run reports."""

    def __init__(self, stats: SimStats, experiment: "Experiment") -> None:
        self.stats = stats
        self.experiment = experiment

    @property
    def sim_time_ps(self) -> int:
        """Simulated duration of the finished run."""
        return self.stats.sim_time_ps


class Experiment:
    """An assembled simulation, ready to run once."""

    def __init__(self, system: System, sim: Simulation,
                 netbuild: NetBuild,
                 hosts: Dict[str, "HostSim"],
                 nics: Dict[str, "I40eNic"]) -> None:
        self.system = system
        self.sim = sim
        self.netbuild = netbuild
        self.hosts = hosts
        self.nics = nics
        #: attached recorders by name (``"trace"``, ``"work"``,
        #: ``"timeline"``, ``"audit"``); see :meth:`observe`
        self.recorders: Dict[str, object] = {}
        #: set by the one run (:meth:`run` or :meth:`run_mp`) it gets
        self.ran = False

    # -- conveniences ------------------------------------------------------------

    def apps_of(self, host_name: str) -> list:
        """All application instances running on a host (any fidelity)."""
        choice = self.system.hosts[host_name]
        if choice.detailed:
            return self.hosts[host_name].os.apps
        return self.netbuild.host(host_name).apps

    def app(self, host_name: str, index: int = 0):
        """One application instance of a host (default: the first)."""
        return self.apps_of(host_name)[index]

    def host_os(self, host_name: str):
        """The simulated OS of a detailed host."""
        return self.hosts[host_name].os

    def network_components(self) -> List[NetworkSim]:
        """Every network-simulator partition of this experiment."""
        return self.netbuild.all_components()

    def install_transparent_clocks(self) -> int:
        """Enable PTP transparent clocks on every switch egress queue."""
        from ..netsim.ptp_tc import install_transparent_clocks
        return sum(install_transparent_clocks(net)
                   for net in self.network_components())

    def core_count(self) -> int:
        """Processor cores the equivalent parallel deployment would use
        (one per component simulator, as in the paper's accounting)."""
        return len(self.sim.components)

    # -- execution -------------------------------------------------------------------

    def observe(self, recorder, interval_rounds: int = 64):
        """Attach a recorder to this experiment (before it runs).

        A recorder has a ``name`` and ``save(path)``.  It is either a run
        observer itself (:class:`~repro.obs.install.TraceRecorder`) or a
        collector (:class:`~repro.parallel.model.WorkRecorder`,
        :class:`~repro.obs.timeline.TimelineCollector`,
        :class:`~repro.obs.audit.AuditCollector`) whose per-component
        probes a :class:`~repro.obs.recorder.ProbeDriver` beats every
        ``interval_rounds`` strict sync rounds — or, under :meth:`run_mp`,
        the children beat on their heartbeats.  Export afterwards with
        :meth:`save`; reach the recorder itself through
        ``experiment.recorders[name]``.  Returns the recorder.
        """
        if recorder.name == "timeline" and self.sim.mode != "strict":
            # its probes read counters at the epochs the sync protocol defines
            raise RuntimeError("the epoch timeline needs strict-sync "
                               "execution (mode='strict', or timeline=True "
                               "at instantiation)")
        observer = recorder
        if hasattr(recorder, "probe"):
            from ..obs.recorder import ProbeDriver
            observer = ProbeDriver(recorder, interval_rounds)
        self.recorders[recorder.name] = recorder
        self.sim.observers.append(observer)
        return recorder

    def save(self, name: str, path: str):
        """Write the artifact of the recorder called ``name`` to ``path``
        (after :meth:`run` or :meth:`run_mp` alike)."""
        recorder = self.recorders.get(name)
        if recorder is None:
            raise RuntimeError(f"no {name!r} recorder attached: observe() "
                               f"one (or build with {name}=True) before "
                               "running")
        if not self.ran:
            # an unrun recorder would write an empty, complete-looking file
            raise RuntimeError(f"nothing to save: run the experiment "
                               f"before saving its {name!r} recorder")
        return recorder.save(path)

    def disable_flow_tracing(self) -> None:
        """Detach the process-global flow recorder that
        ``Instantiation(flow_sample=N)`` installed (no-op without one) —
        typically in a ``try/finally`` around :meth:`run`."""
        trace = self.recorders.get("trace")
        if trace is not None and trace.flows is not None:
            from ..obs.flows import uninstall_flow_recorder
            uninstall_flow_recorder()
            trace.flows = None

    def metrics(self, stats: Optional[SimStats] = None):
        """This experiment's flat metrics dict
        (:func:`~repro.obs.metrics.collect_experiment`)."""
        from ..obs.metrics import collect_experiment
        return collect_experiment(self, stats=stats)

    def _claim_run(self) -> None:
        """An experiment runs once: its recorders hold exactly one run."""
        if self.ran or self.sim._wired:
            raise RuntimeError("simulation already ran; build a fresh one")
        self.ran = True

    def run(self, duration_ps: int,
            rundir: Optional[str] = None) -> ExperimentResult:
        """Run the assembled simulation to ``duration_ps``; given a
        ``rundir``, write the run into it as :meth:`run_mp` does (see
        :func:`repro.obs.rundir.write_run`)."""
        self._claim_run()
        stats = self.sim.run(duration_ps)
        if rundir is not None:
            from ..obs.rundir import write_run
            from ..obs.telemetry import build_run_report
            components = {}
            for comp in self.sim.components:
                collect = getattr(comp, "collect_outputs", None)
                components[comp.name] = {
                    "events": comp.events_processed,
                    "work_cycles": comp.work_cycles,
                    "outputs": collect() if collect is not None else {}}
            write_run(rundir, self.recorders.values(), build_run_report(
                self.sim.mode, duration_ps, stats.wall_seconds, components),
                self.metrics(stats))
        return ExperimentResult(stats=stats, experiment=self)

    def profile_analysis(self, drop_head: int = 1,
                         drop_tail: int = 0) -> "ProfileAnalysis":
        """The profiler's analysis of the run's epoch timeline, leaving
        out ``drop_head`` warm-up and ``drop_tail`` cool-down epochs (after
        :meth:`run` or :meth:`run_mp` alike).  Raises :class:`ValueError`
        when a component never delivered its result (a crashed child)."""
        timeline = self.recorders.get("timeline")
        if timeline is None:
            raise RuntimeError("build the instantiation with timeline=True")
        _refuse_partial(timeline)
        from ..profiler.postprocess import analyze
        return analyze(timeline.rows, drop_head=drop_head,
                       drop_tail=drop_tail)

    def run_mp(self, duration_ps: int, timeout_s: float = 300.0, *,
               rundir: Optional[str] = None, progress: bool = False,
               control: bool = False):
        """Run this experiment with one OS process per component simulator.

        This is the paper's actual deployment (shared-memory channels,
        busy-poll synchronization).  Components are inherited via fork, so
        an experiment runs once, here or in process.  Returns the
        per-process results of :class:`~repro.parallel.procrunner`.

        The children run this experiment's own recorders (trace, work,
        timeline, audit: whatever ``Instantiation`` or :meth:`observe`
        attached), so :meth:`save` and :meth:`execution_model` afterwards
        read what this run recorded — the trace holds every child's
        records.  The keywords (``rundir``, ``progress``, ``control``) are
        where the run is deployed and where it writes: options of
        :meth:`ProcessRunner.run <repro.parallel.procrunner.ProcessRunner.run>`.
        """
        # the multiprocess runtime loads only for a multiprocess run
        from ..parallel.procrunner import ProcChannel, ProcessRunner, ProcSpec
        self._claim_run()
        specs = [ProcSpec(c.name, component=c) for c in self.sim.components]
        channels = [
            ProcChannel(ea.owner.name, ea.name, eb.owner.name, eb.name)
            for ea, eb in self.sim.channels
        ]
        runner = ProcessRunner(specs, channels)
        runner.recorders = list(self.recorders.values())
        return runner.run(duration_ps, timeout_s=timeout_s, rundir=rundir,
                          progress=progress, control=control)

    def execution_model(self, sim_time_ps: int) -> "ParallelExecutionModel":
        """Virtual-time model over the work :meth:`run` or :meth:`run_mp`
        recorded, on the simulation's channel graph.  Raises
        :class:`ValueError` when a component never delivered its work (a
        crashed child)."""
        work = self.recorders.get("work")
        if work is None:
            raise RuntimeError("build the instantiation with work_window_ps")
        _refuse_partial(work)
        from ..parallel.model import ParallelExecutionModel, model_channels
        return ParallelExecutionModel(
            work, sim_time_ps, model_channels(self.sim.channels),
            components=[c.name for c in self.sim.components],
            baselines={c.name: getattr(c, "baseline_cycles_per_ps", 0.0)
                       for c in self.sim.components})


def _refuse_partial(collector) -> None:
    """A record some component never finished cannot be analyzed."""
    if collector.partial:
        raise ValueError(f"the {collector.name!r} record is partial: no "
                         f"result from {', '.join(collector.partial)}")


class Instantiation(Record):
    """Implementation choices for simulating a :class:`System` — the
    recorder flags included, for every runtime (see
    :meth:`Experiment.run_mp`)."""

    def __init__(self, system: System, mode: str = "fast",
                 network_partition: Optional[
                     Union[Dict[str, str], Callable]] = None,
                 use_trunk: bool = True,
                 work_window_ps: Optional[int] = None,
                 eth_latency_ps: int = DEFAULT_ETH_LATENCY_PS,
                 pci_latency_ps: int = DEFAULT_PCI_LATENCY_PS,
                 transparent_clocks: bool = False, trace: bool = False,
                 flow_sample: Optional[int] = None,
                 fidelity: Optional["FidelityConfig"] = None,
                 timeline: bool = False, audit: bool = False,
                 audit_window_ps: Optional[int] = None) -> None:
        self.system = system
        self.mode = mode
        #: None = single network process; or a mapping switch->partition
        #: label (e.g. ``strategies.partition_from_file`` of an advisor
        #: ``partition.json``); or a callable (TopoSpec) -> switch-level
        #: assignment.
        self.network_partition = network_partition
        self.use_trunk = use_trunk
        #: Record the execution model's input at this window granularity.
        self.work_window_ps = work_window_ps
        self.eth_latency_ps = eth_latency_ps
        self.pci_latency_ps = pci_latency_ps
        self.transparent_clocks = transparent_clocks
        #: Enable the observability layer: a sim-domain tracer over the
        #: whole simulation plus wall-domain build/run/teardown phase spans.
        self.trace = trace
        #: Causal flow tracing: keep 1-in-N flows (1 = every flow, ``None``
        #: = off).  Implies ``trace``.  See ``repro.obs.flows``.
        self.flow_sample = flow_sample
        #: Network fidelity tiers (batched packet drain, fluid flow-level
        #: model); ``None`` = pure packet-level, exactly as before.  See
        #: :class:`~repro.netsim.fidelity.FidelityConfig`.
        self.fidelity = fidelity
        #: Record the epoch-resolved metrics timeline: every component's
        #: channel-adapter counters, sampled periodically — the paper's "add
        #: the flag to enable profiling" (forces strict-sync execution).
        #: Analyze with ``experiment.profile_analysis()``; export with
        #: ``experiment.save("timeline", path)`` after the run.
        self.timeline = timeline
        #: Record the per-epoch digest ledger (see :mod:`repro.obs.audit`).
        #: Works in any execution mode — epochs are fixed simulated-time
        #: windows, so ledgers from fast, strict, and multiprocess runs are
        #: directly comparable.  Export with ``experiment.save("audit",
        #: path)``.
        self.audit = audit
        #: Audit epoch width in simulated picoseconds (``None`` = the module
        #: default, :data:`repro.obs.audit.DEFAULT_WINDOW_PS`).
        self.audit_window_ps = audit_window_ps

    def build(self) -> Experiment:
        """Assemble all component simulators and channels per the choices:
        the network as one component ``net``, or one ``net.<label>`` per
        partition of ``network_partition``, joined by its cut-link
        channels."""
        trace = None
        if self.trace or self.flow_sample is not None:
            from ..obs.install import TraceRecorder
            trace = TraceRecorder()  # created first: times the build phase
        system = self.system
        spec = system.spec
        mode = "strict" if self.timeline else self.mode
        sim = Simulation(mode=mode)

        # -- network ------------------------------------------------------
        assignment = None
        part = self.network_partition
        if part is not None:
            # the partitioner loads only for a partitioned network
            from ..netsim.partition import assign_hosts_with_switch
            switch_part = part(spec) if callable(part) else part
            assignment = assign_hosts_with_switch(spec, switch_part)
        nb = instantiate(spec, assignment, seed=system.seed,
                         use_trunk=self.use_trunk)
        for comp in nb.all_components():
            sim.add(comp)
        for end_a, end_b in nb.channels:
            sim.connect(end_a, end_b)
        attachments = nb.attachments

        # -- fidelity tiers -------------------------------------------------
        if self.fidelity is not None:
            for comp in nb.all_components():
                self.fidelity.apply(comp)

        # -- protocol-level apps -------------------------------------------
        for name, choice in system.hosts.items():
            if choice.detailed:
                continue
            host = nb.host(name)
            for factory in choice.app_factories:
                host.add_app(factory(host))

        # -- detailed hosts + NICs -----------------------------------------
        hosts: Dict[str, "HostSim"] = {}
        nics: Dict[str, "I40eNic"] = {}
        detailed = [(name, choice) for name, choice in system.hosts.items()
                    if choice.detailed]
        if detailed:
            # host and NIC simulators load only for a system that has them
            from ..hostsim.driver import DirectEthDriver, I40eDriver
            from ..hostsim.host import gem5_host, qemu_host
            from ..nicsim.i40e import I40eNic
        for name, choice in detailed:
            att = attachments.get(name)
            if att is None:
                raise RuntimeError(f"detailed host {name} has no attachment "
                                   "(is it linked to a switch?)")
            link_bw = att.ext.direction.bandwidth_bps
            seed = derive_seed(system.seed, f"host.{name}") & 0x7FFFFFFF
            addr = spec.addr_of(name)
            if choice.nic == "direct":
                driver = DirectEthDriver(eth_latency_ps=self.eth_latency_ps)
            else:
                driver = I40eDriver(pci_latency_ps=self.pci_latency_ps)
            maker = gem5_host if choice.simulator == "gem5" else qemu_host
            host = maker(f"{name}.host", addr, seed=seed,
                         freq_ghz=choice.freq_ghz,
                         clock_drift_ppm=choice.clock_drift_ppm, driver=driver)
            sim.add(host)
            if choice.nic == "direct":
                eth = driver.eth
            else:
                nic = I40eNic(f"{name}.nic", line_rate_bps=link_bw,
                              eth_latency_ps=self.eth_latency_ps,
                              pci_latency_ps=self.pci_latency_ps,
                              phc_drift_ppm=choice.phc_drift_ppm, seed=seed)
                sim.add(nic)
                sim.connect(driver.pci, nic.pci)
                nics[name] = nic
                eth = nic.eth
            net_end = ChannelEnd(f"net:{name}", latency=self.eth_latency_ps)
            att.net.bind_external_to_end(name, net_end)
            sim.connect(eth, net_end)
            for factory in choice.app_factories:
                host.add_app(factory(host.os))
            hosts[name] = host

        exp = Experiment(system, sim, nb, hosts, nics)
        if trace is not None:
            exp.observe(trace)
            if self.flow_sample is not None:
                trace.trace_flows(self.flow_sample)
            trace.phase("build", 0.0, {"components": len(sim.components),
                                       "channels": len(sim.channels)})
        if self.work_window_ps is not None:
            from ..parallel.model import WorkRecorder
            exp.observe(WorkRecorder(self.work_window_ps))
        if self.timeline:
            from ..obs.timeline import TimelineCollector
            exp.observe(TimelineCollector(
                meta={"net_switches": nb.net_switches()}))
        if self.audit:
            from ..obs.audit import INPROC_BEAT_ROUNDS, AuditCollector
            exp.observe(AuditCollector(
                window_ps=self.audit_window_ps,
                meta={"system": getattr(spec, "name", None)}),
                INPROC_BEAT_ROUNDS)
        if self.transparent_clocks:
            exp.install_transparent_clocks()
        return exp
