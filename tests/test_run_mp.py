"""The orchestrated experiment can run as real OS processes (fork)."""

import pytest

from repro.kernel.simtime import MS, US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.system import System

GBPS = 1e9


def kv_system():
    system = System(seed=3)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1 * US)
    system.link("client", "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    return system


@pytest.mark.slow
def test_experiment_runs_multiprocess_and_matches_inproc():
    inproc = Instantiation(kv_system()).build()
    inproc.run(2 * MS)
    expected = inproc.app("client").stats.completed

    exp = Instantiation(kv_system()).build()
    results = exp.run_mp(2 * MS, timeout_s=120)
    assert set(results) == {"net", "server.host", "server.nic"}
    net_out = results["net"].outputs
    client_stats = net_out["client.app0"]
    assert client_stats["completed"] == expected
    host_out = results["server.host"].outputs
    assert host_out["instructions"] > 0
    # real waiting was measured somewhere
    assert any(r.wait_seconds >= 0 for r in results.values())


def test_run_mp_after_in_process_run_is_rejected():
    # forking already-drained components used to return garbage silently
    exp = Instantiation(kv_system()).build()
    exp.run(100 * US)
    with pytest.raises(RuntimeError, match="already ran; build a fresh one"):
        exp.run_mp(2 * MS, timeout_s=10)
