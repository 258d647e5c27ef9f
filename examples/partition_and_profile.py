#!/usr/bin/env python3
"""Decompose a datacenter network and profile it (paper §4.5 workflow).

Builds the background-traffic datacenter with a detailed host pair,
decomposes the network with the ``rs`` strategy (per-rack processes), runs
it, and uses the SplitSim profiler + virtual-time execution model to show
simulation speed and the wait-time profile graph (WTPG) for two partition
strategies — the workflow a user follows to pick a partitioning.

Run:  python examples/partition_and_profile.py
"""

from repro import Instantiation, MS, SEC, System, US
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.topology import datacenter
from repro.orchestration.strategies import STRATEGIES, strategy_rs
from repro.profiler.instrument import rows_from_model
from repro.profiler.postprocess import analyze
from repro.profiler.wtpg import build_wtpg, to_text

GBPS = 1e9
RUN = 30 * MS


def main() -> None:
    spec = datacenter(aggs=2, racks_per_agg=3, hosts_per_rack=4,
                      core_bw=40 * GBPS, agg_bw=40 * GBPS,
                      host_bw=10 * GBPS, external_hosts=2)
    system = System.from_topospec(spec, seed=13)
    server, client = system.detailed_hosts()
    system.app(server, lambda h: KVServerApp())
    addr = system.addr_of(server)
    system.app(client, lambda h: KVClientApp([addr], closed_loop_window=8))
    protocol = system.protocol_hosts()
    for i in range(4):
        src, dst = protocol[2 * i], protocol[2 * i + 1]
        system.app(dst, lambda h: BulkSink(port=5001))
        d = system.addr_of(dst)
        system.app(src, lambda h, d=d: BulkSender(d, 5001, None, "newreno"))

    # execute once under the finest decomposition, recording work
    exp = Instantiation(system, network_partition=strategy_rs,
                        work_window_ps=200 * US).build()
    stats = exp.run(RUN)
    print(f"executed {stats.stats.events} events in "
          f"{stats.stats.wall_seconds:.1f}s across "
          f"{exp.core_count()} component simulators\n")

    model = exp.execution_model(RUN)
    rs_assignment = strategy_rs(system.spec)

    for name in ("s", "ac", "cr3", "rs"):
        target = STRATEGIES[name](system.spec)
        groups = {}
        for comp in exp.sim.components:
            if comp.name.startswith("net."):
                rs_label = comp.name[len("net."):]
                sw = next(s for s, lab in rs_assignment.items()
                          if lab == rs_label)
                groups[comp.name] = "net." + target[sw]
            else:
                groups[comp.name] = comp.name
        res = model.run("splitsim", groups=groups)
        print(f"strategy {name:>4}: {res.n_procs:>2} procs, "
              f"sim speed {res.sim_speed:.2e} sim-s/wall-s")
        if name in ("ac", "cr3"):
            analysis = analyze(rows_from_model(res))
            print(to_text(build_wtpg(analysis), title=f"strategy {name}"))
            print()


if __name__ == "__main__":
    main()
