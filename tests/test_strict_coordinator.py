"""The strict coordinator's observable contract.

Cheaper scheduling must not change *who waits for whom*: the per-end
profiler counters (the Fig 10 / WTPG input), the round count and the
per-component event counts of two fixed workloads are pinned against
``golden_strict_coordinator.json``, recorded before the in-process sync
promise moved out of the message deque.  Regenerate (only when the protocol
itself is meant to change) with ``PYTHONPATH=src python -m tests.pins
--write golden_strict_coordinator``; its producer is :func:`golden`.
"""

import pytest

from repro.bench.workloads import build_mixed_system
from repro.channels.channel import ChannelEnd, connect
from repro.channels.messages import RawMsg, SyncMsg
from repro.kernel.component import Component
from repro.kernel.simtime import MS, NS, US
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.topology import datacenter
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.strategies import strategy_rs
from repro.orchestration.system import System
from repro.parallel.simulation import DeadlockError, Simulation

from .pins import pinned
from .test_channel import horizon, publish, receive

GBPS = 1e9


def fig9_ci_experiment(**options):
    """``datacenter(4,3,4)``, two qemu hosts running KV, four paced bulk
    pairs, ``rs`` partition: 21 components under the strict coordinator.
    ``options`` go to :class:`Instantiation`."""
    spec = datacenter(aggs=4, racks_per_agg=3, hosts_per_rack=4,
                      core_bw=40 * GBPS, agg_bw=40 * GBPS, host_bw=10 * GBPS,
                      external_hosts=2)
    system = System.from_topospec(spec, seed=13)
    server, client = system.detailed_hosts()
    system.app(server, lambda h: KVServerApp())
    addr = system.addr_of(server)
    system.app(client, lambda h: KVClientApp([addr], closed_loop_window=8))
    hosts = system.protocol_hosts()
    for src, dst in zip(hosts[:8:2], hosts[1:8:2]):
        system.app(dst, lambda h: BulkSink(port=5001))
        system.app(src, lambda h, d=system.addr_of(dst): BulkSender(
            d, 5001, variant="newreno", burst_bytes=1 << 15,
            burst_interval_ps=100 * US))
    return Instantiation(system, mode="strict",
                         network_partition=strategy_rs, **options).build()


def mixed_experiment():
    return Instantiation(build_mixed_system(), mode="strict").build()


WORKLOADS = {"fig9_ci": (fig9_ci_experiment, 200 * US),
             "strict_mixed": (mixed_experiment, 1 * MS)}


def coordinator_snapshot(name: str) -> dict:
    build, until = WORKLOADS[name]
    exp = build()
    stats = exp.run(until).stats
    return {"rounds": stats.rounds,
            "per_component_events": stats.per_component_events,
            "ends": {f"{c.name}/{e.name}": e.counters()
                     for c in exp.sim.components for e in c.ends}}


def golden() -> dict:
    """The pin ``golden_strict_coordinator``."""
    return {name: coordinator_snapshot(name) for name in sorted(WORKLOADS)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_rounds_and_events_match_golden(name):
    golden = pinned("golden_strict_coordinator")[name]
    got = coordinator_snapshot(name)
    assert got["rounds"] == golden["rounds"]
    assert got["per_component_events"] == golden["per_component_events"]
    assert got["ends"].keys() == golden["ends"].keys()
    for end, counters in got["ends"].items():
        assert counters == golden["ends"][end], end
    # the fixture is only worth pinning while the protocol is exercised
    assert sum(c["tx_syncs"] for c in got["ends"].values()) > got["rounds"]
    assert sum(c["wait_polls"] for c in got["ends"].values()) > 0


# -- no SyncMsg objects in process --------------------------------------------

@pytest.fixture
def sync_msgs_built(monkeypatch):
    built = []
    init = SyncMsg.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SyncMsg, "__init__", counting_init)
    return built


def test_in_process_strict_run_builds_no_sync_messages(sync_msgs_built):
    exp = mixed_experiment()
    exp.run(200 * US)
    ends = [e for c in exp.sim.components for e in c.ends]
    assert sum(e.rx_syncs for e in ends) > 100
    assert not sync_msgs_built


def test_promise_after_data_is_invisible_until_the_receiver_polls():
    a = ChannelEnd("a", latency=10 * NS)
    b = ChannelEnd("b", latency=10 * NS)
    connect(a, b)
    assert receive(b) == []
    a.send(RawMsg(payload="x"), now=0)
    publish(a, 50 * NS)
    assert horizon(b) == 0 and b.rx_syncs == 0
    assert [m.payload for m in receive(b)] == ["x"]
    assert horizon(b) == 60 * NS and b.rx_syncs == 1
    publish(a, 70 * NS)
    assert horizon(b) == 60 * NS
    assert receive(b) == []
    assert horizon(b) == 80 * NS and b.rx_syncs == 2


# -- assembly and deadlock report ---------------------------------------------

def test_duplicate_component_name_rejected_and_lookup_by_name():
    sim = Simulation(mode="strict")
    first = sim.add(Component("x"))
    sim.add(Component("y"))
    with pytest.raises(ValueError, match="duplicate component name 'x'"):
        sim.add(Component("x"))
    assert sim.component("x") is first
    with pytest.raises(KeyError):
        sim.component("z")


class _Stuck(Component):
    """Sees its inputs but never raises its commit, so its peer's horizon
    stops growing."""

    def advance(self, target: int) -> int:
        # a step to -1 receives, but can neither run an event nor publish
        super().advance(-1)
        return 0


def test_deadlock_error_names_every_component_commit_and_horizon():
    sim = Simulation(mode="strict")
    stuck, waiter = sim.add(_Stuck("stuck")), sim.add(Component("waiter"))
    es = stuck.attach_end(ChannelEnd("s.e", latency=10 * NS))
    ew = waiter.attach_end(ChannelEnd("w.e", latency=10 * NS))
    sim.connect(es, ew)
    waiter.call_after(5 * NS, lambda: None)
    with pytest.raises(DeadlockError) as err:
        sim.run(1 * US)
    assert str(err.value) == ("no progress after round 2: "
                              "stuck@0 hz=10000, waiter@0 hz=0")
    assert ew.wait_polls == 2 and ew.wait_cycles == 100.0

