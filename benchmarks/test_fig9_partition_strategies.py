"""Fig. 9 — simulation speed under different network partition strategies.

The clock-sync study's datacenter topology carries background traffic while
a pair of detailed hosts (qemu or gem5) with i40e NICs exchange requests.
The network is decomposed with the paper's strategies:

====  ======================================================
s     whole network as one process
ac    one process per aggregation block + one for the core
crN   N racks per process + one backbone process
rs    per-rack, per-agg, and core processes
====  ======================================================

The finest decomposition (rs) is *executed* once per host-simulator type;
coarser strategies are modeled by grouping its components (grouping under
the virtual-time model is exact: co-located components serialize and their
mutual channels cost nothing).

Paper claims: strategies differ widely in simulation speed; the best
strategy differs between qemu and gem5 hosts; past a point, more processes
make the simulation *slower* (sync overhead dominates).
"""

import pytest

from repro.kernel.simtime import MS, SEC, US
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.topology import datacenter
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.strategies import (STRATEGIES, strategy_rs)
from repro.orchestration.system import System

from common import paper_scale, print_table, run_once, save_results

GBPS = 1e9

if paper_scale():
    DIMS = dict(aggs=4, racks_per_agg=6, hosts_per_rack=40)
    RUN = 200 * MS
    BG_PAIRS = 120
else:
    DIMS = dict(aggs=4, racks_per_agg=3, hosts_per_rack=4)
    RUN = 30 * MS
    BG_PAIRS = 8

WORK_WINDOW = 200 * US
STRATEGY_NAMES = ("s", "ac", "cr1", "cr3", "rs")

#: The CI run uses 8 paced background pairs standing in for the paper's
#: ~600 saturating pairs at 100 Gbps.  Network-simulator work is exactly
#: proportional to packet-event count, so the model scales the network
#: components' recorded work by this representation factor (paper-scale
#: runs use 1).
BG_REPRESENTATION = 1.0 if paper_scale() else 40.0


def build_system(host_sim: str):
    spec = datacenter(core_bw=40 * GBPS, agg_bw=40 * GBPS, host_bw=10 * GBPS,
                      external_hosts=2, **DIMS)
    system = System.from_topospec(spec, seed=13)
    server, client = system.detailed_hosts()
    system.set_simulator(server, host_sim)
    system.set_simulator(client, host_sim)
    system.app(server, lambda h: KVServerApp())
    addr = system.addr_of(server)
    system.app(client, lambda h: KVClientApp([addr], closed_loop_window=8))

    # randomized pairs of background hosts performing bulk transfers
    proto = system.protocol_hosts()
    import random
    rng = random.Random(99)
    hosts = proto[:]
    rng.shuffle(hosts)
    pairs = min(BG_PAIRS, len(hosts) // 2)
    for i in range(pairs):
        src, dst = hosts[2 * i], hosts[2 * i + 1]
        system.app(dst, lambda h: BulkSink(port=5001))
        d = system.addr_of(dst)
        system.app(src, lambda h, d=d: BulkSender(
            d, 5001, variant="newreno", burst_bytes=1 << 19,
            burst_interval_ps=5 * MS))
    return system


def scaled_model(exp):
    """Execution model with network work scaled by BG_REPRESENTATION."""
    from repro.parallel.model import (ParallelExecutionModel, model_channels,
                                      scale_recorder)
    rec = scale_recorder(exp.recorders["work"], BG_REPRESENTATION,
                         only=lambda name: name.startswith("net."))
    return ParallelExecutionModel(
        rec, RUN, model_channels(exp.sim.channels),
        components=[c.name for c in exp.sim.components],
        baselines={c.name: getattr(c, "baseline_cycles_per_ps", 0.0)
                   for c in exp.sim.components})


def run_host_sim(host_sim: str):
    """Execute once under the finest (rs) partitioning, model all strategies."""
    system = build_system(host_sim)
    inst = Instantiation(system, network_partition=strategy_rs,
                        work_window_ps=WORK_WINDOW)
    exp = inst.build()
    exp.run(RUN)
    model = scaled_model(exp)

    # rs partition label of each network component, keyed by its tor/agg/core
    rs_assignment = strategy_rs(system.spec)
    results = {}
    for name in STRATEGY_NAMES:
        strategy = STRATEGIES[name]
        target = strategy(system.spec)
        groups = {}
        for comp in exp.sim.components:
            cname = comp.name
            if cname.startswith("net."):
                rs_label = cname[len("net."):]
                switches = [sw for sw, lab in rs_assignment.items()
                            if lab == rs_label]
                groups[cname] = "net." + target[switches[0]]
            else:
                groups[cname] = cname  # hosts/NICs: own process
        res = model.run("splitsim", groups=dict(groups))
        results[name] = {
            "cores": res.n_procs,
            "sim_speed": res.sim_speed,
            "wall_s": res.wall_seconds,
        }
    return results


@pytest.fixture(scope="module")
def results():
    return {hs: run_host_sim(hs) for hs in ("qemu", "gem5")}


def test_fig9_partition_strategies(benchmark, results):
    run_once(benchmark, lambda: run_host_sim("qemu"))

    rows = []
    for name in STRATEGY_NAMES:
        q = results["qemu"][name]
        g = results["gem5"][name]
        rows.append([name, q["cores"],
                     f'{q["sim_speed"]:.2e}', f'{g["sim_speed"]:.2e}'])
    print_table("Fig 9: sim speed (sim-s per wall-s) by partition strategy",
                ["strategy", "cores", "qemu hosts", "gem5 hosts"], rows)
    save_results("fig9_partition_strategies", results)

    qemu_speeds = {n: results["qemu"][n]["sim_speed"] for n in STRATEGY_NAMES}
    # strategies differ significantly (with qemu hosts the network is the
    # contended resource, so partitioning choices matter a lot)
    assert max(qemu_speeds.values()) > 1.3 * min(qemu_speeds.values())
    # decomposition helps: some strategy beats the single process
    assert max(qemu_speeds.values()) > qemu_speeds["s"]

    # past a point adding cores lowers sim speed again: some strategy with
    # MORE processes is slower than one with FEWER (paper: "past a point
    # adding more cores results in lower simulation speeds")
    inversions = [
        (a, b) for a in STRATEGY_NAMES for b in STRATEGY_NAMES
        if results["qemu"][a]["cores"] > results["qemu"][b]["cores"]
        and results["qemu"][a]["sim_speed"] <
        0.95 * results["qemu"][b]["sim_speed"]
    ]
    assert inversions, "no cores-vs-speed inversion found"

    # gem5 hosts slow the whole simulation down dramatically
    assert results["gem5"]["ac"]["sim_speed"] < \
        results["qemu"]["ac"]["sim_speed"] / 5
