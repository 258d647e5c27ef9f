"""System configuration: *what* to simulate, separate from *how*.

A :class:`System` describes hosts, switches, links, and per-host
applications with no reference to concrete simulators.  Simulator choices
(protocol-level vs qemu vs gem5 host, NIC model, network partitioning) are
made later by an :class:`~repro.orchestration.instantiate.Instantiation` —
the separation at the heart of the paper's configuration framework
(§3.4): one system configuration, many simulation configurations.

Applications are attached as factories ``factory(host_env) -> App`` where
``host_env`` is either a protocol-level host or a detailed host's OS; the
same factory works for every fidelity.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..netsim.topology import TopoSpec
from ..record import Record

VALID_HOST_SIMS = ("ns3", "qemu", "gem5")
VALID_NICS = ("i40e", "direct")


class HostChoice(Record):
    """Per-host simulator configuration."""

    def __init__(self, simulator: str = "ns3", nic: str = "i40e",
                 freq_ghz: float = 4.0,
                 clock_drift_ppm: Optional[float] = None,
                 phc_drift_ppm: Optional[float] = None,
                 app_factories: Optional[List[Callable]] = None) -> None:
        self.simulator = simulator
        self.nic = nic
        self.freq_ghz = freq_ghz
        self.clock_drift_ppm = clock_drift_ppm
        self.phc_drift_ppm = phc_drift_ppm
        self.app_factories = [] if app_factories is None else app_factories

    @property
    def detailed(self) -> bool:
        """Whether this host runs in its own detailed simulator."""
        return self.simulator != "ns3"


class System:
    """A complete simulated-system description."""

    def __init__(self, seed: int = 0) -> None:
        self.spec = TopoSpec()
        self.seed = seed
        self.hosts: Dict[str, HostChoice] = {}

    # -- topology -------------------------------------------------------------

    def host(self, name: str, simulator: str = "ns3", nic: str = "i40e",
             freq_ghz: float = 4.0, clock_drift_ppm: Optional[float] = None,
             phc_drift_ppm: Optional[float] = None,
             rx_proc_delay_ps: int = 0) -> str:
        """Declare a host; ``simulator`` picks its fidelity."""
        if simulator not in VALID_HOST_SIMS:
            raise ValueError(f"unknown host simulator {simulator!r}")
        if nic not in VALID_NICS:
            raise ValueError(f"unknown NIC model {nic!r}")
        choice = HostChoice(simulator=simulator, nic=nic, freq_ghz=freq_ghz,
                            clock_drift_ppm=clock_drift_ppm,
                            phc_drift_ppm=phc_drift_ppm)
        self.spec.add_host(name, external=choice.detailed,
                           rx_proc_delay_ps=rx_proc_delay_ps)
        self.hosts[name] = choice
        return name

    def set_simulator(self, name: str, simulator: str) -> None:
        """Re-fidelity an existing host (mixed-fidelity sweeps)."""
        if simulator not in VALID_HOST_SIMS:
            raise ValueError(f"unknown host simulator {simulator!r}")
        choice = self.hosts[name]
        choice.simulator = simulator
        self.spec.hosts[name].external = choice.detailed

    def switch(self, name: str, pipeline_factory: Optional[Callable] = None,
               proc_delay_ps: Optional[int] = None) -> str:
        """Declare a switch (optionally with an in-network pipeline)."""
        self.spec.add_switch(name, proc_delay_ps=proc_delay_ps,
                             pipeline_factory=pipeline_factory)
        return name

    def link(self, a: str, b: str, bandwidth_bps: float, latency_ps: int,
             **kwargs) -> None:
        """Join two declared nodes with a link."""
        self.spec.add_link(a, b, bandwidth_bps, latency_ps, **kwargs)

    # -- applications ------------------------------------------------------------

    def app(self, host_name: str, factory: Callable) -> None:
        """Attach an application factory to a host (any fidelity)."""
        if host_name not in self.hosts:
            raise KeyError(f"unknown host {host_name!r}")
        self.hosts[host_name].app_factories.append(factory)

    # -- queries --------------------------------------------------------------------

    def addr_of(self, host_name: str) -> int:
        """Network address of a declared host."""
        return self.spec.addr_of(host_name)

    def detailed_hosts(self) -> List[str]:
        """Names of hosts that get their own detailed simulator."""
        return [n for n, c in self.hosts.items() if c.detailed]

    def protocol_hosts(self) -> List[str]:
        """Names of hosts simulated at protocol level inside the network."""
        return [n for n, c in self.hosts.items() if not c.detailed]

    @classmethod
    def from_topospec(cls, spec: TopoSpec, seed: int = 0) -> "System":
        """Adopt a prebuilt topology (e.g. the builders in netsim.topology).

        Hosts marked external in the spec default to qemu fidelity.
        """
        system = cls(seed=seed)
        system.spec = spec
        for hs in spec.hosts.values():
            choice = HostChoice(simulator="qemu" if hs.external else "ns3")
            # Application factories move to the fidelity-agnostic layer so
            # the instantiation applies them exactly once per build.
            choice.app_factories = list(hs.app_factories)
            hs.app_factories = []
            system.hosts[hs.name] = choice
        return system
