"""Tests for the configuration & orchestration framework."""

import pytest

from repro.kernel.simtime import MS, US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.topology import datacenter, single_switch_rack
from repro.orchestration.instantiate import Experiment, Instantiation
from repro.orchestration.strategies import strategy_ac
from repro.orchestration.system import System

GBPS = 1e9


def kv_system(server_sim="qemu", nic="i40e"):
    system = System(seed=3)
    system.switch("tor")
    system.host("server", simulator=server_sim, nic=nic)
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1 * US)
    system.link("client", "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    return system


def test_system_validates_choices():
    system = System()
    with pytest.raises(ValueError):
        system.host("h", simulator="verilator")
    system.host("h")
    with pytest.raises(ValueError):
        system.host("h2", nic="magic")
    with pytest.raises(KeyError):
        system.app("ghost", lambda h: None)


def test_detailed_vs_protocol_classification():
    system = kv_system()
    assert system.detailed_hosts() == ["server"]
    assert system.protocol_hosts() == ["client"]
    system.set_simulator("server", "ns3")
    assert system.detailed_hosts() == []


def test_instantiation_counts_components():
    exp = Instantiation(kv_system()).build()
    # net + host + nic
    assert exp.core_count() == 3
    assert set(exp.hosts) == {"server"}
    assert set(exp.nics) == {"server"}
    assert len(exp.sim.channels) == 2  # host-nic PCI + nic-net Eth


def test_direct_nic_omits_nic_component():
    exp = Instantiation(kv_system(nic="direct")).build()
    assert exp.core_count() == 2
    assert not exp.nics


def test_protocol_only_system_single_component():
    system = kv_system(server_sim="ns3")
    exp = Instantiation(system).build()
    assert exp.core_count() == 1


def test_experiment_runs_and_finds_apps():
    exp = Instantiation(kv_system()).build()
    result = exp.run(3 * MS)
    client = exp.app("client")
    assert client.stats.completed > 10
    server = exp.app("server")
    assert server.served_reads + server.served_writes > 0
    assert result.sim_time_ps == 3 * MS


def test_gem5_host_choice_builds_gem5_cpu():
    from repro.hostsim.cpu import Gem5Cpu
    exp = Instantiation(kv_system(server_sim="gem5")).build()
    assert isinstance(exp.hosts["server"].cpu, Gem5Cpu)


def test_same_factory_runs_on_both_fidelities():
    """The mixed-fidelity premise: identical app code either way."""
    ns3 = Instantiation(kv_system(server_sim="ns3")).build()
    e2e = Instantiation(kv_system(server_sim="qemu")).build()
    ns3.run(3 * MS)
    e2e.run(3 * MS)
    lat_ns3 = ns3.app("client").stats.mean_latency()
    lat_e2e = e2e.app("client").stats.mean_latency()
    assert lat_ns3 > 0 and lat_e2e > 0
    # detailed server software makes latency much larger
    assert lat_e2e > 3 * lat_ns3


def test_partitioned_instantiation():
    spec = datacenter(aggs=2, racks_per_agg=2, hosts_per_rack=2)
    system = System.from_topospec(spec, seed=1)
    inst = Instantiation(system, network_partition=strategy_ac,
                         work_window_ps=10 * US)
    exp = inst.build()
    # core + 2 agg blocks = 3 network components
    assert exp.core_count() == 3
    assert len(exp.sim.channels) == 2
    exp.run(1 * MS)
    model = exp.execution_model(1 * MS)
    res = model.run("splitsim")
    assert res.n_procs == 3


def test_execution_model_requires_recorder():
    exp = Instantiation(kv_system()).build()
    with pytest.raises(RuntimeError, match="work_window_ps"):
        exp.execution_model(1 * MS)


def test_transparent_clock_flag_installs_hooks():
    system = kv_system()
    exp = Instantiation(system, transparent_clocks=True).build()
    nets = exp.network_components()
    assert any(att.ext.direction.on_tx_start is not None
               for net in nets for att in net.externals.values())


def test_from_topospec_moves_factories_once():
    spec = single_switch_rack(servers=1, clients=1)
    spec.on_host("client0", lambda h: KVClientApp([spec.addr_of("server0")],
                                                  closed_loop_window=2))
    system = System.from_topospec(spec)
    assert spec.hosts["client0"].app_factories == []
    assert len(system.hosts["client0"].app_factories) == 1


def test_profile_flag_collects_and_analyzes():
    """The paper's workflow: add the profiling flag, run, post-process."""
    from repro.profiler.wtpg import build_wtpg
    exp = Instantiation(kv_system(), timeline=True).build()
    assert exp.sim.mode == "strict"
    exp.run(1 * MS)
    analysis = exp.profile_analysis(drop_head=0)
    assert set(analysis.components)  # non-empty
    graph = build_wtpg(analysis)
    assert graph.number_of_nodes() >= 2


def test_profile_analysis_requires_flag():
    exp = Instantiation(kv_system()).build()
    exp.run(1 * MS)
    with pytest.raises(RuntimeError, match="timeline=True"):
        exp.profile_analysis()
