"""The execution model reads its channel graph off the simulation.

Each build below is one shape of channel list: a partitioned network on
trunks and on per-link channels, detailed hosts behind an i40e NIC or a
direct Ethernet driver, and the decomposed gem5 multi-core system.  The
model's channels, derived from ``sim.channels``, must equal the list the
builders used to keep by hand (the pin ``parent_model_channels`` of
:mod:`tests.pins`, produced by :func:`derived_channels`), order included.
"""

import pytest

from repro.bench.workloads import build_mixed_system
from repro.gem5split.build import build_multicore
from repro.kernel.simtime import US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.topology import datacenter, fat_tree
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.strategies import partition_fat_tree, strategy_rs
from repro.orchestration.system import System

from .pins import pinned

GBPS = 1e9


def _datacenter_rs():
    spec = datacenter(core_bw=40 * GBPS, agg_bw=40 * GBPS,
                      host_bw=10 * GBPS, external_hosts=2, aggs=4,
                      racks_per_agg=3, hosts_per_rack=4)
    return Instantiation(System.from_topospec(spec, seed=1), mode="strict",
                         network_partition=strategy_rs).build()


def _fat_tree_2way(use_trunk=True):
    system = System.from_topospec(fat_tree(k=4), seed=1)
    return Instantiation(system, mode="strict", use_trunk=use_trunk,
                         network_partition=partition_fat_tree(system.spec,
                                                              2)).build()


def _direct_nic():
    system = System(seed=3)
    system.switch("tor")
    system.host("server", simulator="gem5", nic="direct")
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1 * US)
    system.link("client", "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    return Instantiation(system).build()


#: name -> a build exposing ``.sim``, unrun
BUILDS = {
    "dc_rs_strict": _datacenter_rs,
    "ft_strict2": _fat_tree_2way,
    "ft_strict2_per_link": lambda: _fat_tree_2way(use_trunk=False),
    "mixed": lambda: Instantiation(build_mixed_system()).build(),
    "multicore4": lambda: build_multicore(4),
    "direct_nic": _direct_nic,
}


def channels(name) -> list:
    """One build's model channels: ``[comp_a, comp_b, latency_ps]``."""
    from repro.parallel.model import model_channels
    return [[c.comp_a, c.comp_b, c.latency_ps]
            for c in model_channels(BUILDS[name]().sim.channels)]


def derived_channels() -> dict:
    """The pin ``parent_model_channels``."""
    return {name: channels(name) for name in BUILDS}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_model_channels_are_the_simulation_channels(name):
    assert channels(name) == pinned("parent_model_channels")[name]


def test_parent_lists_cover_every_channel_shape():
    recorded = pinned("parent_model_channels")
    assert sorted(recorded) == sorted(BUILDS)
    assert len(recorded["dc_rs_strict"]) == 20
    # per-link channels outnumber the one trunk between the two halves
    assert len(recorded["ft_strict2"]) == 1
    assert len(recorded["ft_strict2_per_link"]) > 1
