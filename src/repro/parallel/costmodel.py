"""Host-cycle cost model for the virtual-time parallel execution model.

The performance experiments model the paper's testbed (2x Intel Xeon Gold
6336Y, 48 physical cores) explicitly: every component simulator charges
*modeled host cycles* for the work it does (events executed, messages
moved, synchronization), and :mod:`repro.parallel.model` replays the
synchronization schedule to compute the wall-clock time a real parallel run
on that machine would take.  Real multi-process runs
(:mod:`repro.parallel.procrunner`) do execute in parallel, but their
speedup is bounded by the cores of the machine they run on: on a 2-vCPU
x86-64 VM the benchmark ladder's ``mp.speedup_vs_strict`` reads about 1.2
for two processes, far from the 48-core regime the figures are about.

The constants below are calibrated so absolute magnitudes land in the
regime the paper reports (e.g. qemu-icount hosts simulating at roughly
1/50th real time; gem5 another ~50x slower; ns-3 processing on the order of
a microsecond of host time per packet event), but the reproduction's claims
are about *shape* — speedup ratios, crossovers, who bottlenecks whom — which
are insensitive to modest miscalibration.

Per-discipline communication costs:

======================  =======================================  ============
discipline              mechanism                                cost basis
======================  =======================================  ============
``splitsim``            shared-memory SPSC ring, busy-polled     ~100ns/msg
``nullmsg`` (OMNeT++)   MPI point-to-point null messages         ~2us/msg
``barrier`` (ns-3 MPI)  global MPI Allgather per lookahead       ~10us x
                        window                                   log2(procs)
======================  =======================================  ============

The rows model the paper's C implementations, and the model keeps them.
The ring this repository runs is Python (:mod:`repro.parallel.shm_ring`
plus the :mod:`repro.channels.wire` codec); measured on a 2-vCPU x86-64
VM (DESIGN.md §7, "Measured cost"):

======================  =======================================  ============
measured, not modelled  mechanism                                cost
======================  =======================================  ============
``splitsim``, Python    ``send_batch`` + ``recv_batch`` round    ~7us/msg
ring                    trip of a trunked 138-byte TCP-segment
                        frame; encode ~2us, decode ~2us of it
======================  =======================================  ============
"""

from __future__ import annotations

import math

from ..record import Record


class _Frozen(Record):
    """An immutable, hashable record: ``__init__`` stores its fields with
    ``object.__setattr__``, and any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class Machine(_Frozen):
    """The physical machine the parallel run is modeled on."""

    def __init__(self, cores: int = 48, ghz: float = 2.4) -> None:
        object.__setattr__(self, "cores", cores)
        # the default is the Xeon Gold 6336Y base clock
        object.__setattr__(self, "ghz", ghz)

    @property
    def hz(self) -> float:
        """Clock rate in cycles per second."""
        return self.ghz * 1e9

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert host cycles to wall-clock seconds on this machine."""
        return cycles / self.hz


#: The paper's evaluation machine.
PAPER_MACHINE = Machine(cores=48, ghz=2.4)


# --- per-event execution costs (host cycles) -------------------------------

#: A protocol-level network simulator event (ns-3-like): dominated by event
#: scheduling + packet bookkeeping.
NS3_EVENT_CYCLES = 1_800.0

#: OMNeT++: heavier module/message infrastructure per event (Fig. 8 scales
#: recorded network work by ``OMNET_EVENT_CYCLES / NS3_EVENT_CYCLES``).
OMNET_EVENT_CYCLES = 2_600.0

#: Behavioral NIC model event (descriptor processing, DMA issue).
NIC_EVENT_CYCLES = 900.0

#: qemu with instruction counting: host cycles per *simulated guest
#: instruction* (TCG translation amortized).
QEMU_CYCLES_PER_INST = 12.0

#: gem5 timing CPU: host cycles per simulated instruction (detailed
#: out-of-order + cache modeling); ~50x slower than qemu, matching the
#: common gem5-vs-qemu gap.
GEM5_CYCLES_PER_INST = 600.0

#: gem5 fixed cost per simulated event (port packets, cache transactions).
GEM5_EVENT_CYCLES = 4_000.0

#: Batched link drain: marginal cost per packet inside a run (schedule math
#: + delivery event; dispatch and route lookup amortize across the run, so
#: this is well under a full NS3 event).
BATCH_PKT_CYCLES = 600.0

#: One fluid-tier rate-update tick: fixed cost of walking the fluid link set
#: and rescheduling.
FLUID_UPDATE_CYCLES = 1_500.0

#: Marginal per-flow cost within a fluid tick (rate/window/queue updates).
FLUID_FLOW_CYCLES = 350.0


# --- communication / synchronization costs (host cycles) -------------------

#: SplitSim shared-memory channel: enqueue+dequeue one message.
SHM_MSG_CYCLES = 240.0
#: SplitSim sync marker (cheaper: no payload, cache-line ping-pong).
SHM_SYNC_CYCLES = 120.0

#: MPI point-to-point message (null-message protocol, OMNeT++ native).
MPI_MSG_CYCLES = 4_800.0
MPI_NULLMSG_CYCLES = 4_800.0

#: MPI global barrier/Allgather base cost (ns-3 native "grant window").
MPI_BARRIER_BASE_CYCLES = 24_000.0


# --- baseline (idle) simulation costs -------------------------------------
#
# Host simulators keep executing the guest even when it is idle (timer
# interrupts, idle loop, device polling), so simulating T guest-seconds has
# a floor cost regardless of application activity.  Expressed in host cycles
# per simulated picosecond; dividing by the machine clock gives the familiar
# "slowdown factor" (e.g. 0.25 cycles/ps at 2.4 GHz ~= 104x slowdown).

QEMU_BASELINE_CYCLES_PER_PS = 0.25   # ~100x slowdown (qemu icount)
GEM5_BASELINE_CYCLES_PER_PS = 12.0   # ~5000x slowdown (gem5 timing CPU)
NIC_BASELINE_CYCLES_PER_PS = 0.012   # ~5x slowdown (behavioral NIC model)


def barrier_cost_cycles(n_procs: int) -> float:
    """Cost of one global synchronization round across ``n_procs`` ranks."""
    if n_procs <= 1:
        return 0.0
    return MPI_BARRIER_BASE_CYCLES * max(1.0, math.log2(n_procs))


class CommCosts(_Frozen):
    """Per-discipline communication cost set."""

    def __init__(self, msg_cycles: float, sync_cycles: float,
                 uses_barrier: bool = False) -> None:
        object.__setattr__(self, "msg_cycles", msg_cycles)
        object.__setattr__(self, "sync_cycles", sync_cycles)
        object.__setattr__(self, "uses_barrier", uses_barrier)

    @staticmethod
    def for_discipline(discipline: str) -> "CommCosts":
        """Cost set for splitsim / nullmsg / barrier synchronization."""
        if discipline == "splitsim":
            return CommCosts(SHM_MSG_CYCLES, SHM_SYNC_CYCLES)
        if discipline == "nullmsg":
            return CommCosts(MPI_MSG_CYCLES, MPI_NULLMSG_CYCLES)
        if discipline == "barrier":
            return CommCosts(MPI_MSG_CYCLES, 0.0, uses_barrier=True)
        raise ValueError(f"unknown discipline {discipline!r}")
