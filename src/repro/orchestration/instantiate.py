"""Instantiation: turning a system configuration into a runnable simulation.

An :class:`Instantiation` holds the *implementation choices* — which host
simulator backs each detailed host, how the network is partitioned, which
execution mode runs the whole thing — and :meth:`build` assembles all
component simulators and channels into a ready
:class:`~repro.orchestration.instantiate.Experiment`.

The resulting experiment exposes the pieces the evaluation needs: the apps
(for workload metrics), per-component work recordings and model channels
(for the virtual-time performance model), and counters/ends (for the
profiler).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..channels.channel import ChannelEnd
from ..hostsim.driver import DirectEthDriver, I40eDriver
from ..hostsim.host import HostSim, gem5_host, qemu_host
from ..kernel.rng import derive_seed
from ..kernel.simtime import NS, US
from ..netsim.fidelity import FidelityConfig
from ..netsim.network import NetworkSim
from ..netsim.partition import (PartitionedBuild, assign_all,
                                assign_hosts_with_switch,
                                instantiate_partitioned)
from ..netsim.ptp_tc import install_transparent_clocks
from ..netsim.topology import NetBuild, TopoSpec, instantiate as build_single
from ..nicsim.i40e import I40eNic
from ..parallel.model import ModelChannel, ParallelExecutionModel
from ..parallel.procrunner import ProcChannel, ProcessRunner, ProcSpec
from ..parallel.simulation import SimStats, Simulation
from ..profiler.instrument import StrictModeSampler
from ..profiler.postprocess import ProfileAnalysis, analyze
from .system import System

DEFAULT_ETH_LATENCY_PS = 500 * NS
DEFAULT_PCI_LATENCY_PS = 250 * NS


@dataclass
class ExperimentResult:
    """Everything a finished run reports."""

    stats: SimStats
    experiment: "Experiment"

    @property
    def sim_time_ps(self) -> int:
        """Simulated duration of the finished run."""
        return self.stats.sim_time_ps


class Experiment:
    """An assembled simulation, ready to run once."""

    def __init__(self, system: System, sim: Simulation,
                 netbuild: Union[NetBuild, PartitionedBuild],
                 hosts: Dict[str, HostSim], nics: Dict[str, I40eNic],
                 model_channels: List[ModelChannel]) -> None:
        self.system = system
        self.sim = sim
        self.netbuild = netbuild
        self.hosts = hosts
        self.nics = nics
        self.model_channels = model_channels
        #: attached recorders by name (``"trace"``, ``"profile"``,
        #: ``"timeline"``, ``"audit"``); see :meth:`observe`
        self.recorders: Dict[str, object] = {}

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
        if isinstance(self.netbuild, PartitionedBuild):
            return self.netbuild.all_components()
        return [self.netbuild.net]

    def install_transparent_clocks(self) -> int:
        """Enable PTP transparent clocks on every switch egress queue."""
        return sum(install_transparent_clocks(net)
                   for net in self.network_components())

    def core_count(self) -> int:
        """Processor cores the equivalent parallel deployment would use
        (one per component simulator, as in the paper's accounting)."""
        return len(self.sim.components)

    # -- execution -------------------------------------------------------------------

    def observe(self, recorder, interval_rounds: int = 64):
        """Attach a recorder to this experiment (before :meth:`run`).

        A recorder has a ``name`` and ``save(path)``.  It is either a run
        observer itself (:class:`~repro.obs.install.TraceRecorder`, the
        profiler's :class:`~repro.profiler.instrument.StrictModeSampler`)
        or a collector (:class:`~repro.obs.timeline.TimelineCollector`,
        :class:`~repro.obs.audit.AuditCollector`) whose per-component
        probes a :class:`~repro.obs.recorder.ProbeDriver` beats every
        ``interval_rounds`` strict sync rounds.  Export afterwards with
        :meth:`save`; reach the recorder itself through
        ``experiment.recorders[name]``.  Returns the recorder.
        """
        if recorder.name == "timeline" and self.sim.mode != "strict":
            # its probes read counters at the epochs the sync protocol defines
            raise RuntimeError("the epoch timeline needs strict-sync "
                               "execution (mode='strict', profile=True, "
                               "or timeline=True at instantiation)")
        observer = recorder
        if hasattr(recorder, "probe"):
            from ..obs.recorder import ProbeDriver
            observer = ProbeDriver(recorder, interval_rounds)
        self.recorders[recorder.name] = recorder
        self.sim.observers.append(observer)
        return recorder

    def save(self, name: str, path: str):
        """Write the artifact of the recorder called ``name`` to ``path``."""
        recorder = self.recorders.get(name)
        if recorder is None:
            raise RuntimeError(f"no {name!r} recorder attached: observe() "
                               f"one (or build with {name}=True) before "
                               "running")
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
        """Unified metrics snapshot registry for this experiment."""
        from ..obs.metrics import collect_experiment
        return collect_experiment(self, stats=stats)

    def _net_switches(self) -> Dict[str, List[str]]:
        """Which topology switches each network component carries (for the
        advisor's switch-level assignment output)."""
        nb = self.netbuild
        if isinstance(nb, PartitionedBuild):
            return {net.name: [sw for sw in nb.spec.switches
                               if nb.assignment.get(sw) == label]
                    for label, net in nb.parts.items()}
        return {nb.net.name: list(nb.spec.switches)}

    def run(self, duration_ps: int) -> ExperimentResult:
        """Run the assembled simulation to ``duration_ps``."""
        return ExperimentResult(stats=self.sim.run(duration_ps),
                                experiment=self)

    def profile_analysis(self, drop_head: int = 1,
                         drop_tail: int = 0) -> ProfileAnalysis:
        """Post-process the profiler samples collected during the run."""
        sampler = self.recorders.get("profile")
        if sampler is None:
            raise RuntimeError("build the instantiation with profile=True")
        sampler.sample()  # final snapshot
        return analyze(sampler.log, drop_head=drop_head,
                       drop_tail=drop_tail)

    def run_mp(self, duration_ps: int, timeout_s: float = 300.0, *,
               timeline_path: Optional[str] = None,
               audit_path: Optional[str] = None,
               audit_window_ps: Optional[int] = None, **run_options):
        """Run this experiment with one OS process per component simulator.

        This is the paper's actual deployment (shared-memory channels,
        busy-poll synchronization).  Components are inherited via fork, so
        the experiment must not have been run in-process already.  Returns
        the per-process results of :class:`~repro.parallel.procrunner`.

        ``timeline_path`` writes the epoch-resolved metrics timeline there
        (``timeline.jsonl``; children piggyback per-epoch counter deltas on
        their heartbeats).  ``audit_path`` writes the per-epoch digest
        ledger there (``audit.jsonl``, see :mod:`repro.obs.audit`; root
        bit-identical to the in-process golden fold); ``audit_window_ps``
        sets its epoch width (default
        :data:`repro.obs.audit.DEFAULT_WINDOW_PS`) — two ledgers are only
        comparable at matching widths.  Both are pure observation (the
        determinism digest is unchanged) and are referenced from the run
        report when ``report_path`` is given.  Every other keyword
        (``progress``, ``report_path``, ``trace_dir``, ``hb_interval_s``,
        ``flow_sample``, ``digest``, ``control_dir``, ``stall_intervals``,
        ``stale_after_s``) is an option of
        :meth:`ProcessRunner.run <repro.parallel.procrunner.ProcessRunner.run>`,
        documented there.
        """
        if self.sim._wired:
            raise RuntimeError("simulation already ran; build a fresh one")
        specs = [ProcSpec(c.name, component=c) for c in self.sim.components]
        channels = [
            ProcChannel(ea.owner.name, ea.name, eb.owner.name, eb.name)
            for ea, eb in self.sim.channels
        ]
        runner = ProcessRunner(specs, channels)
        if timeline_path is not None:
            from ..obs.timeline import TimelineCollector
            runner.recorders.append(TimelineCollector(timeline_path))
        if audit_path is not None:
            from ..obs.audit import AuditCollector
            runner.recorders.append(
                AuditCollector(audit_path, audit_window_ps))
        return runner.run(duration_ps, timeout_s=timeout_s, **run_options)

    def execution_model(self, sim_time_ps: int) -> ParallelExecutionModel:
        """Virtual-time model over this experiment's recorded workload."""
        if self.sim.recorder is None:
            raise RuntimeError("build the instantiation with work_window_ps")
        return ParallelExecutionModel(
            self.sim.recorder, sim_time_ps, self.model_channels,
            components=[c.name for c in self.sim.components],
            baselines={c.name: getattr(c, "baseline_cycles_per_ps", 0.0)
                       for c in self.sim.components})


@dataclass
class Instantiation:
    """Implementation choices for simulating a :class:`System`."""

    system: System
    mode: str = "fast"
    network_flavor: str = "ns3"
    #: None = single network process; or a mapping switch->partition label;
    #: or a callable (TopoSpec) -> switch-level assignment.
    network_partition: Optional[Union[Dict[str, str], Callable]] = None
    use_trunk: bool = True
    work_window_ps: Optional[int] = None
    eth_latency_ps: int = DEFAULT_ETH_LATENCY_PS
    pci_latency_ps: int = DEFAULT_PCI_LATENCY_PS
    transparent_clocks: bool = False
    #: Enable the SplitSim profiler: forces strict-sync execution and
    #: samples every adapter's counters periodically (the paper's
    #: "add the flag to enable profiling").
    profile: bool = False
    profile_interval_rounds: int = 200
    #: Enable the observability layer: a sim-domain tracer over the whole
    #: simulation plus wall-domain build/run/teardown phase spans.
    trace: bool = False
    #: Causal flow tracing: keep 1-in-N flows (1 = every flow, ``None`` =
    #: off).  Implies ``trace``.  See ``repro.obs.flows``.
    flow_sample: Optional[int] = None
    #: Network fidelity tiers (batched packet drain, fluid flow-level
    #: model); ``None`` = pure packet-level, exactly as before.  See
    #: :class:`~repro.netsim.fidelity.FidelityConfig`.
    fidelity: Optional["FidelityConfig"] = None
    #: Record the epoch-resolved metrics timeline (forces strict-sync
    #: execution, like ``profile``).  Export with
    #: ``experiment.save("timeline", path)`` after the run.
    timeline: bool = False
    timeline_interval_rounds: int = 64
    #: Record the per-epoch digest ledger (see :mod:`repro.obs.audit`).
    #: Works in any execution mode — epochs are fixed simulated-time
    #: windows, so ledgers from fast, strict, and multiprocess runs are
    #: directly comparable.  Export with ``experiment.save("audit", path)``.
    audit: bool = False
    #: Audit epoch width in simulated picoseconds (``None`` = the module
    #: default, :data:`repro.obs.audit.DEFAULT_WINDOW_PS`).
    audit_window_ps: Optional[int] = None
    #: Apply a saved advisor recommendation (``partition.json`` from
    #: ``splitsim-inspect recommend``) as the network partition.
    #: Mutually exclusive with ``network_partition``.
    partition_file: Optional[str] = None

    def build(self) -> Experiment:
        """Assemble all component simulators and channels per the choices."""
        trace = None
        if self.trace or self.flow_sample is not None:
            from ..obs.install import TraceRecorder
            trace = TraceRecorder()  # created first: times the build phase
        system = self.system
        spec = system.spec
        mode = "strict" if self.profile or self.timeline else self.mode
        sim = Simulation(mode=mode, work_window_ps=self.work_window_ps)
        model_channels: List[ModelChannel] = []

        network_partition = self.network_partition
        if self.partition_file is not None:
            if network_partition is not None:
                raise ValueError("partition_file and network_partition are "
                                 "mutually exclusive")
            from .strategies import partition_from_file
            network_partition = partition_from_file(self.partition_file)

        # -- network ------------------------------------------------------
        if network_partition is None:
            nb = build_single(spec, name="net", flavor=self.network_flavor,
                              seed=system.seed)
            sim.add(nb.net)
            attachments = nb.attachments
        else:
            part = network_partition
            switch_part = part(spec) if callable(part) else part
            assignment = assign_hosts_with_switch(spec, switch_part)
            nb = instantiate_partitioned(
                spec, assignment, flavor=self.network_flavor,
                seed=system.seed, use_trunk=self.use_trunk)
            for comp in nb.all_components():
                sim.add(comp)
            for end_a, end_b in nb.channels:
                sim.connect(end_a, end_b)
            model_channels.extend(nb.model_channels)
            attachments = nb.attachments

        # -- fidelity tiers -------------------------------------------------
        if self.fidelity is not None:
            if isinstance(nb, PartitionedBuild):
                for comp in nb.all_components():
                    self.fidelity.apply(comp)
            else:
                self.fidelity.apply(nb.net)

        # -- protocol-level apps -------------------------------------------
        for name, choice in system.hosts.items():
            if choice.detailed:
                continue
            host = nb.host(name)
            for factory in choice.app_factories:
                host.add_app(factory(host))

        # -- detailed hosts + NICs -----------------------------------------
        hosts: Dict[str, HostSim] = {}
        nics: Dict[str, I40eNic] = {}
        for name, choice in system.hosts.items():
            if not choice.detailed:
                continue
            att = attachments.get(name)
            if att is None:
                raise RuntimeError(f"detailed host {name} has no attachment "
                                   "(is it linked to a switch?)")
            link_bw = att.ext.direction.bandwidth_bps
            seed = derive_seed(system.seed, f"host.{name}") & 0x7FFFFFFF
            addr = spec.addr_of(name)
            net = att.net

            if choice.nic == "direct":
                driver = DirectEthDriver(eth_latency_ps=self.eth_latency_ps)
                host = self._make_host(name, addr, choice, driver, seed)
                sim.add(host)
                net_end = ChannelEnd(f"net:{name}", latency=self.eth_latency_ps)
                net.bind_external_to_end(name, net_end)
                sim.connect(driver.eth, net_end)
                model_channels.append(
                    ModelChannel(host.name, net.name, self.eth_latency_ps))
            else:
                driver = I40eDriver(pci_latency_ps=self.pci_latency_ps)
                host = self._make_host(name, addr, choice, driver, seed)
                nic = I40eNic(f"{name}.nic", line_rate_bps=link_bw,
                              eth_latency_ps=self.eth_latency_ps,
                              pci_latency_ps=self.pci_latency_ps,
                              phc_drift_ppm=choice.phc_drift_ppm, seed=seed)
                sim.add(host)
                sim.add(nic)
                sim.connect(driver.pci, nic.pci)
                net_end = ChannelEnd(f"net:{name}", latency=self.eth_latency_ps)
                net.bind_external_to_end(name, net_end)
                sim.connect(nic.eth, net_end)
                nics[name] = nic
                model_channels.append(
                    ModelChannel(host.name, nic.name, self.pci_latency_ps))
                model_channels.append(
                    ModelChannel(nic.name, net.name, self.eth_latency_ps))
            for factory in choice.app_factories:
                host.add_app(factory(host.os))
            hosts[name] = host

        exp = Experiment(system, sim, nb, hosts, nics, model_channels)
        if trace is not None:
            exp.observe(trace)
            if self.flow_sample is not None:
                trace.trace_flows(self.flow_sample)
            trace.phase("build", 0.0, {"components": len(sim.components),
                                       "channels": len(sim.channels)})
        if self.profile:
            exp.observe(StrictModeSampler(
                sim.components, interval=self.profile_interval_rounds))
        if self.timeline:
            from ..obs.timeline import TimelineCollector
            exp.observe(
                TimelineCollector(meta={"net_switches": exp._net_switches()}),
                self.timeline_interval_rounds)
        if self.audit:
            from ..obs.audit import INPROC_BEAT_ROUNDS, AuditCollector
            exp.observe(AuditCollector(
                window_ps=self.audit_window_ps,
                meta={"system": getattr(spec, "name", None)}),
                INPROC_BEAT_ROUNDS)
        if self.transparent_clocks:
            exp.install_transparent_clocks()
        return exp

    def _make_host(self, name: str, addr: int, choice, driver,
                   seed: int) -> HostSim:
        maker = gem5_host if choice.simulator == "gem5" else qemu_host
        return maker(f"{name}.host", addr, seed=seed,
                     freq_ghz=choice.freq_ghz,
                     clock_drift_ppm=choice.clock_drift_ppm, driver=driver)
