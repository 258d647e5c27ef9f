"""Builders and performance modeling for the gem5 multi-core study (Fig. 7).

``build_multicore`` assembles the decomposed simulation (one component per
core plus the shared memory component).  One recorded run then yields both
data points of Fig. 7 through the virtual-time execution model:

* **sequential gem5** — all components grouped into a single process
  (work strictly serializes, no channel costs);
* **SplitSim-parallelized gem5** — one process per component with
  channel/sync costs, as deployed in the paper.

``validate_against_sequential`` additionally re-runs the same workload in
strict-sync mode and compares per-core iteration traces, reproducing the
paper's correctness validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..kernel.simtime import NS, US
from ..obs.recorder import ProbeDriver
from ..parallel.model import (ParallelExecutionModel, WorkRecorder,
                              model_channels)
from ..parallel.simulation import Simulation
from .core import CoreSim
from .memory import MemorySim
from .workload import WorkloadSpec


@dataclass
class MulticoreBuild:
    """An assembled decomposed multi-core simulation."""

    sim: Simulation
    cores: List[CoreSim]
    memory: MemorySim


def build_multicore(n_cores: int, spec: Optional[WorkloadSpec] = None,
                    seed: int = 0, mode: str = "fast") -> MulticoreBuild:
    """Assemble an ``n_cores``-core decomposed simulation."""
    if n_cores <= 0:
        raise ValueError("need at least one core")
    spec = spec or WorkloadSpec()
    sim = Simulation(mode=mode)
    memory = MemorySim("mem", n_cores, seed=seed)
    sim.add(memory)
    cores: List[CoreSim] = []
    for core_id in range(n_cores):
        core = CoreSim(f"core{core_id}", core_id, spec, seed=seed)
        sim.add(core)
        sim.connect(core.mem, memory.ends_by_core[core_id])
        cores.append(core)
    return MulticoreBuild(sim=sim, cores=cores, memory=memory)


@dataclass
class MulticoreTimes:
    """Modeled simulation times for one core count."""

    n_cores: int
    sequential_wall_s: float
    parallel_wall_s: float

    @property
    def speedup(self) -> float:
        """Sequential over parallel modeled wall time."""
        if self.parallel_wall_s <= 0:
            return float("inf")
        return self.sequential_wall_s / self.parallel_wall_s


def measure_multicore(n_cores: int, sim_time_ps: int,
                      spec: Optional[WorkloadSpec] = None,
                      seed: int = 0) -> MulticoreTimes:
    """Run once, model sequential vs decomposed-parallel wall time."""
    build = build_multicore(n_cores, spec=spec, seed=seed)
    work = WorkRecorder(100 * NS)
    build.sim.observers.append(ProbeDriver(work))
    build.sim.run(sim_time_ps)
    model = ParallelExecutionModel(
        work, sim_time_ps, model_channels(build.sim.channels),
        components=[c.name for c in build.sim.components])
    names = [c.name for c in build.sim.components]
    sequential = model.run("splitsim", groups={n: "gem5" for n in names})
    parallel = model.run("splitsim")
    return MulticoreTimes(
        n_cores=n_cores,
        sequential_wall_s=sequential.wall_seconds,
        parallel_wall_s=parallel.wall_seconds,
    )


def run_traces(n_cores: int, sim_time_ps: int, mode: str,
               seed: int = 0) -> Dict[str, list]:
    """Per-core iteration traces for the validation comparison."""
    build = build_multicore(n_cores, seed=seed, mode=mode)
    build.sim.run(sim_time_ps)
    return {c.name: list(c.trace) for c in build.cores}


def validate_against_sequential(n_cores: int = 4,
                                sim_time_ps: int = 50 * US,
                                seed: int = 0) -> bool:
    """Fast-mode and strict-sync runs must produce identical traces."""
    fast = run_traces(n_cores, sim_time_ps, "fast", seed)
    strict = run_traces(n_cores, sim_time_ps, "strict", seed)
    return fast == strict
