#!/usr/bin/env python3
"""A SplitSim configuration script for the ``splitsim-run`` CLI.

This is the paper's orchestration workflow: configurations are plain
Python — loops, functions, and modules generate the simulated system —
and execution is fully automatic:

    splitsim-run examples/config_kv.py --duration 10ms --out run
    splitsim-run examples/config_kv.py --profile --out prof  # + WTPG
    splitsim-inspect profile prof --drop-head 2              # re-analyze
    splitsim-run examples/config_kv.py --control --profile --out mp  # mp
"""

from repro import System
from repro.netsim.apps.kv import KVClientApp, KVServerApp

GBPS = 1e9
US = 1_000_000

DURATION = "10ms"
SERVERS = 2
CLIENTS = 3


def build() -> System:
    system = System(seed=7)
    system.switch("tor")
    addrs = []
    for i in range(SERVERS):
        name = system.host(f"server{i}", simulator="qemu")
        system.link(name, "tor", 10 * GBPS, 1 * US)
        system.app(name, lambda h: KVServerApp())
        addrs.append(system.addr_of(name))
    for i in range(CLIENTS):
        name = system.host(f"client{i}")
        system.link(name, "tor", 10 * GBPS, 1 * US)
        system.app(name, lambda h: KVClientApp(addrs, closed_loop_window=8))
    return system
