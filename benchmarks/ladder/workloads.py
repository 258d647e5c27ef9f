"""Seeded builders for the six ladder workloads.

Each workload is two steps, timed separately by the worker: ``SYSTEM``
turns the benchmark seed into the inputs (a ``System``: topology, host
fidelities, application placement), ``instantiate`` turns those inputs
into an unrun ``Simulation`` / ``Experiment``.  The program under test
never sees the seed, only what was built from it.

Simulated durations are fixed per workload (``DURATION_PS``) so wall time
per run *is* wall time per simulated second; ``scale`` shrinks the
duration only, never the topology.

Placement by seed is an *automorphism* of the topology applied to one
fixed role layout: the seed decides which concrete hosts, addresses,
ports and ECMP hashes carry the traffic (and seeds every RNG stream
through ``System(seed=)``), while the multiset of path lengths -- and
with it the amount of simulated work -- stays put.  Free placement moved
the event count by +-5% (fat tree) and +-10% (datacenter) between seeds,
which would have been read as run-to-run noise of the program.
"""

from __future__ import annotations

import random

from repro.bench.workloads import CancelChurnComponent, TimerWheelComponent
from repro.kernel.simtime import MS, NS, US
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.topology import datacenter, dumbbell, fat_tree
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.strategies import partition_fat_tree, strategy_rs
from repro.orchestration.system import System
from repro.parallel.simulation import Simulation

GBPS = 1e9

#: Simulated duration of one rep at ``--scale 1``: 0.4-1 s of wall each on
#: the sizing machine.  Reps are short and many on purpose -- see README,
#: "Why many short reps".  The three ``ft_*`` workloads share one duration
#: so their ``run_cu`` compare directly.
DURATION_PS = {
    "kernel_timers": 1600 * NS,
    "ft_fast": 3 * MS,
    "ft_strict2": 3 * MS,
    "ft_mp2": 3 * MS,
    "dc_strict": 2 * MS,
    "fig6_dctcp": 18 * MS,
}


def duration_ps(workload: str, scale: float) -> int:
    """Simulated run length of ``workload`` at a measurement scale."""
    return max(1, int(DURATION_PS[workload] * scale))


def _perm(rng: random.Random, n: int) -> list:
    return rng.sample(range(n), n)


# -- kernel_timers ---------------------------------------------------------

def kernel_timer_periods(seed: int) -> list:
    """Base periods of the 4 timer wheels and 2 cancel-churn components.

    The only input this workload has; the jitter is 2% of the period so
    the event count per simulated microsecond barely moves with the seed.
    """
    rng = random.Random(seed)
    return [2 * NS + rng.randrange(0, 40) for _ in range(6)]


def _instantiate_kernel_timers(periods: list) -> Simulation:
    sim = Simulation(mode="fast")
    for k in range(4):
        sim.add(TimerWheelComponent(f"wheel{k}", 64, periods[k]))
    for k in range(2):
        sim.add(CancelChurnComponent(f"churn{k}", 64, periods[4 + k]))
    return sim


# -- ft_* -----------------------------------------------------------------

#: Role layout in canonical (pod, edge, host) coordinates: one fixed draw.
_FT_LAYOUT = [(p, e, h) for p in range(4) for e in range(2) for h in range(2)]
random.Random(404).shuffle(_FT_LAYOUT)


def fat_tree_system(seed: int) -> System:
    """k=4 fat tree, 16 protocol-level hosts: 2 KV servers, 6 closed-loop
    KV clients (window 4), 4 paced NewReno bulk pairs.

    The automorphism keeps pods inside their half ({0,1} | {2,3}), which
    is the cut ``partition_fat_tree(spec, 2)`` makes, so the share of
    traffic crossing the partition is seed-invariant too.
    """
    rng = random.Random(seed)
    halves = _perm(rng, 2)
    pods = [2 * halves[p // 2] + q
            for p, q in zip(range(4), _perm(rng, 2) + _perm(rng, 2))]
    edges = [_perm(rng, 2) for _ in range(4)]
    hosts = [[_perm(rng, 2) for _ in range(2)] for _ in range(4)]
    names = [f"p{pods[p]}e{edges[p][e]}h{hosts[p][e][h]}"
             for p, e, h in _FT_LAYOUT]

    system = System.from_topospec(fat_tree(k=4), seed=seed)
    servers, clients, bulk = names[:2], names[2:8], names[8:]
    for name in servers:
        system.app(name, lambda h: KVServerApp())
    addrs = [system.addr_of(s) for s in servers]
    for name in clients:
        system.app(name, lambda h: KVClientApp(addrs, closed_loop_window=4))
    for src, dst in zip(bulk[::2], bulk[1::2]):
        system.app(dst, lambda h: BulkSink(port=5001))
        system.app(src, lambda h, d=system.addr_of(dst): BulkSender(
            d, 5001, variant="newreno", burst_bytes=1 << 16,
            burst_interval_ps=500 * US))
    return system


def _instantiate_ft_fast(system: System):
    return Instantiation(system, mode="fast").build()


def _instantiate_ft_partitioned(system: System):
    return Instantiation(
        system, mode="strict",
        network_partition=partition_fat_tree(system.spec, 2)).build()


# -- dc_strict --------------------------------------------------------------

_DC_DIMS = dict(aggs=4, racks_per_agg=3, hosts_per_rack=4)
#: 8 background (src, dst) pairs in canonical (agg, rack, host) coordinates:
#: one fixed draw over the 46 protocol-level hosts.
_DC_LAYOUT = [(a, r, h) for a in range(4) for r in range(3) for h in range(4)
              if not (a == 0 and r < 2 and h == 0)]
random.Random(404).shuffle(_DC_LAYOUT)
_DC_LAYOUT = _DC_LAYOUT[:16]


def datacenter_system(seed: int) -> System:
    """The fig9 CI system: two qemu hosts with i40e NICs running KV over
    the datacenter topology, 8 paced background bulk pairs.

    The automorphism fixes what holds the two detailed hosts (agg 0,
    racks 0 and 1, host slot 0) and permutes everything else.
    """
    rng = random.Random(seed)
    aggs = [0] + [1 + a for a in _perm(rng, 3)]
    racks = [[0, 1, 2]] + [_perm(rng, 3) for _ in range(3)]
    slots = {(a, r): ([0] + [1 + h for h in _perm(rng, 3)]
                      if a == 0 and r < 2 else _perm(rng, 4))
             for a in range(4) for r in range(3)}
    names = [f"a{aggs[a]}r{racks[a][r]}h{slots[a, r][h]}"
             for a, r, h in _DC_LAYOUT]

    spec = datacenter(core_bw=40 * GBPS, agg_bw=40 * GBPS, host_bw=10 * GBPS,
                      external_hosts=2, **_DC_DIMS)
    system = System.from_topospec(spec, seed=seed)
    server, client = system.detailed_hosts()
    system.app(server, lambda h: KVServerApp())
    addr = system.addr_of(server)
    system.app(client, lambda h: KVClientApp([addr], closed_loop_window=8))
    for src, dst in zip(names[::2], names[1::2]):
        system.app(dst, lambda h: BulkSink(port=5001))
        system.app(src, lambda h, d=system.addr_of(dst): BulkSender(
            d, 5001, variant="newreno", burst_bytes=1 << 17,
            burst_interval_ps=1 * MS))
    return system


def _instantiate_dc_strict(system: System, **observers):
    return Instantiation(system, mode="strict",
                         network_partition=strategy_rs, **observers).build()


# -- fig6_dctcp -------------------------------------------------------------

def dctcp_system(seed: int) -> System:
    """Dumbbell, 2 long DCTCP flows over an ECN-marking bottleneck (K=15).

    The seed staggers the second flow's start; both flows queue their
    whole transfer up front so they are never application-limited.
    """
    system = System.from_topospec(
        dumbbell(pairs=2, ecn_threshold_pkts=15), seed=seed)
    stagger = (300 + random.Random(seed).randrange(0, 400)) * US
    for i in range(2):
        system.app(f"rcv{i}", lambda h: BulkSink(variant="dctcp"))
        system.app(f"snd{i}", lambda h, a=system.addr_of(f"rcv{i}"),
                   d=i * stagger: BulkSender(
                       a, total_bytes=512 * 1024 * 1024, variant="dctcp",
                       start_delay_ps=d))
    return system


#: workload -> seed -> the inputs the program is given
SYSTEM = {
    "kernel_timers": kernel_timer_periods,
    "ft_fast": fat_tree_system,
    "ft_strict2": fat_tree_system,
    "ft_mp2": fat_tree_system,
    "dc_strict": datacenter_system,
    "fig6_dctcp": dctcp_system,
}

_INSTANTIATE = {
    "kernel_timers": _instantiate_kernel_timers,
    "ft_fast": _instantiate_ft_fast,
    "ft_strict2": _instantiate_ft_partitioned,
    "ft_mp2": _instantiate_ft_partitioned,
    "dc_strict": _instantiate_dc_strict,
    "fig6_dctcp": _instantiate_ft_fast,
}


def instantiate(workload: str, system, **observers):
    """An unrun Simulation (kernel_timers) or Experiment from the inputs.

    ``observers`` (``trace=``, ``timeline=``, ``audit=``) switch on the
    program's own observability for the observers-on ``dc_strict`` rep.
    """
    return _INSTANTIATE[workload](system, **observers)
