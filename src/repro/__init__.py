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

The package exports the quick-start names of the core build path only:
the time units, :class:`System`, :class:`Instantiation` and
:class:`Experiment`.  Import everything else from the module that defines
it.  See DESIGN.md for the system inventory and what loads when, and
EXPERIMENTS.md for the paper-figure reproduction index.
"""

from .orchestration.instantiate import Experiment, Instantiation
from .orchestration.system import System
from .kernel.simtime import MS, NS, PS, SEC, US, fmt_time

__version__ = "1.0.0"

__all__ = ["MS", "NS", "PS", "SEC", "US", "fmt_time",
           "System", "Instantiation", "Experiment", "__version__"]
