"""SplitSim reproduction: large-scale modular full-system simulation.

This package reproduces *"SplitSim: Towards Practical Large-Scale
Full-System Simulation for Systems Research"* (CONEXT 2025) from scratch in
Python: the SimBricks-style modular simulation substrate, a packet-level
network simulator, detailed host and NIC simulators, and SplitSim's four
contributions -- mixed-fidelity simulation, parallelization through
decomposition, the synchronization/communication profiler, and the
configuration/orchestration framework.

Quick start::

    from repro import System, Instantiation, SEC, MS
    from repro.netsim.apps.kv import KVClientApp, KVServerApp

    system = System(seed=1)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("client")           # protocol-level
    system.link("server", "tor", 10e9, 1_000_000)
    system.link("client", "tor", 10e9, 1_000_000)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=8))

    experiment = Instantiation(system).build()
    result = experiment.run(20 * MS)
    print(experiment.app("client").stats.completed)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproduction index.
"""

from .kernel.simtime import MS, NS, PS, SEC, US, fmt_time
from .kernel.component import Component
from .channels.channel import ChannelEnd, connect
from .channels.trunk import TrunkEnd
from .parallel.simulation import Simulation, SimStats
from .parallel.model import (ModelChannel, ModelResult,
                             ParallelExecutionModel, WorkRecorder)
from .parallel.costmodel import Machine, PAPER_MACHINE
from .orchestration.system import System
from .orchestration.instantiate import Experiment, Instantiation
from .obs import MetricsRegistry, Tracer, install_tracer

__version__ = "1.0.0"

__all__ = [
    "MS", "NS", "PS", "SEC", "US", "fmt_time",
    "Component", "WorkRecorder",
    "ChannelEnd", "TrunkEnd", "connect",
    "Simulation", "SimStats",
    "ModelChannel", "ModelResult", "ParallelExecutionModel",
    "Machine", "PAPER_MACHINE",
    "System", "Instantiation", "Experiment",
    "Tracer", "MetricsRegistry", "install_tracer",
    "__version__",
]
