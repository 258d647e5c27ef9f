"""Tests for the batched link drain (packet-tier fast path).

The batched path must be *observably equivalent* to the per-packet path:
:func:`repro.netsim.fidelity.packet_digest` pins every host delivery
bit-for-bit on collision-free workloads, and
:func:`repro.netsim.fidelity.queue_decision_digest` pins every queue's
enqueue/dequeue/drop/mark decisions on workloads where phase-locked
senders collide at the same picosecond (DESIGN.md §3 concurrent ties).
"""

import pytest

from repro.bench.workloads import (build_burst_flood, build_fluid_longflows,
                                   build_mixed_system, build_netsim_flood,
                                   run_system)
from repro.kernel.simtime import MS, NS, US
from repro.netsim.fidelity import (FidelityConfig, packet_digest,
                                   queue_decision_digest)
from repro.netsim.network import NetworkSim
from repro.parallel.simulation import Simulation

BATCHED = FidelityConfig(batching=True)


# -- observable equivalence ----------------------------------------------------

def test_burst_flood_digest_identical():
    """Back-to-back UDP bursts: the batched drain's home turf."""
    base = packet_digest(build_burst_flood(), 2 * MS)
    fast = packet_digest(build_burst_flood(), 2 * MS, fidelity=BATCHED)
    assert base == fast


def test_mixed_system_digest_identical():
    """UDP KV + TCP bulk + detailed host, strict mode."""
    base = packet_digest(build_mixed_system(), 1 * MS, mode="strict")
    fast = packet_digest(build_mixed_system(), 1 * MS, mode="strict",
                         fidelity=BATCHED)
    assert base == fast


def test_kv_flood_single_client_digest_identical():
    """Closed-loop KV without cross-sender same-ps collisions."""
    base = packet_digest(build_netsim_flood(n_clients=1), 2 * MS)
    fast = packet_digest(build_netsim_flood(n_clients=1), 2 * MS,
                         fidelity=BATCHED)
    assert base == fast


def test_dctcp_longflows_queue_decisions_identical():
    """ECN marks and drops are bit-for-bit even with same-ps collisions."""
    base = queue_decision_digest(build_fluid_longflows(k=15), 5 * MS)
    fast = queue_decision_digest(build_fluid_longflows(k=15), 5 * MS,
                                 fidelity=BATCHED)
    assert base == fast


def test_batched_tx_counters_equal_per_packet():
    """Two DCTCP flows over a dumbbell: batching counts a packet when its
    serialization ends, like the per-packet path, not when it is given its
    slot — so no packet still on the wire at the horizon is counted."""
    from repro.orchestration.instantiate import Instantiation
    runs = []
    for fidelity in (None, BATCHED):
        exp = Instantiation(build_fluid_longflows(k=15), mode="fast",
                            fidelity=fidelity).build()
        exp.run(3 * MS)
        (net,) = exp.network_components()
        total = net.total_tx_packets()
        dirs = list(net._all_directions())
        runs.append((total,
                     [(d.tx_packets, d.tx_bytes) for d, _ in dirs],
                     [(d.queue.stats.dropped, d.queue.stats.ecn_marked)
                      for d, _ in dirs]))
    assert runs[1] == runs[0]


def test_default_instantiation_unbatched():
    system = build_burst_flood()
    _, counters = run_system(system, 1 * MS, mode="fast")
    assert counters["packets"] > 0
    # no fidelity config: the batched path must never engage
    system2 = build_burst_flood()
    from repro.orchestration.instantiate import Instantiation
    exp = Instantiation(system2, mode="fast").build()
    exp.run(1 * MS)
    for net in exp.network_components():
        assert net.batch_stats()["runs"] == 0


# -- batch statistics ----------------------------------------------------------

def test_batch_counters_account_runs():
    from repro.orchestration.instantiate import Instantiation
    exp = Instantiation(build_burst_flood(), mode="fast",
                        fidelity=BATCHED).build()
    exp.run(2 * MS)
    stats = {}
    for net in exp.network_components():
        stats = net.batch_stats()
    assert stats["runs"] > 0
    # every batched packet has either finished serializing (counted in
    # tx_packets once the counters are settled to now) or is still on the
    # line: a burst starts at the 2 ms horizon
    on_line = 0
    for net in exp.network_components():
        net.total_tx_packets()
        on_line += sum(len(d._sending) for d, _ in net._all_directions())
    assert on_line > 0
    assert stats["packets"] == on_line + sum(
        d.tx_packets for net in exp.network_components()
        for d, _ in net._all_directions() if d.batched)
    # bursts of 32 serialize back-to-back: runs must amortize many packets
    assert stats["pkts_per_run"] > 4
    assert stats["max_run"] >= 32


def test_batch_metrics_in_registry():
    from repro.obs.metrics import collect_simulation
    from repro.orchestration.instantiate import Instantiation
    exp = Instantiation(build_burst_flood(), mode="fast",
                        fidelity=BATCHED).build()
    exp.run(1 * MS)
    metrics = collect_simulation(exp.sim)
    assert any(n.endswith(".batch.runs") for n in metrics)
    assert any(n.endswith(".batch.pkts_per_run") for n in metrics)


# -- building blocks -----------------------------------------------------------

def _two_host_net(batched=True):
    net = NetworkSim("n")
    a = net.add_host("a", addr=1)
    b = net.add_host("b", addr=2)
    net.add_link(a, b, bandwidth_bps=1e9, latency_ps=1 * US)
    if batched:
        assert net.enable_batching() > 0
    return net, a, b


def test_batched_link_timing_matches_per_packet():
    """Serialization + propagation math is identical on the fast path."""
    results = []
    for batched in (False, True):
        net, a, b = _two_host_net(batched)
        got = []
        b.stack.udp_socket(9, lambda pkt: got.append(net.now))
        sock = a.stack.udp_socket(8)

        def send_two():
            sock.sendto(2, 9, 1000 - 46)
            sock.sendto(2, 9, 1000 - 46)

        net.schedule(0, send_two)
        sim = Simulation(mode="fast")
        sim.add(net)
        sim.run(1000 * US)
        results.append(got)
    assert results[0] == results[1]
    assert results[1][1] - results[1][0] == 8 * US  # 8000 bits at 1 Gbps


def test_ptp_hook_disables_batching():
    """Directions with an ``on_tx_start`` hook fall back to per-packet tx.

    Transparent-clock correction (ptp_tc) needs the per-packet tx-start
    callback; a batched direction carrying such a hook must keep using the
    classic path so the hook fires for every packet.
    """
    net, a, b = _two_host_net(batched=True)
    seen = []
    for link in net.links:
        link.dir_ab.on_tx_start = lambda pkt, ts: seen.append(ts)
    got = []
    b.stack.udp_socket(9, lambda pkt: got.append(net.now))
    sock = a.stack.udp_socket(8)
    net.schedule(0, lambda: [sock.sendto(2, 9, 500) for _ in range(3)])
    sim = Simulation(mode="fast")
    sim.add(net)
    sim.run(1000 * US)
    assert len(got) == 3
    assert len(seen) == 3  # hook fired per packet despite batching enabled
    assert all(not d._run for d, _ in net._all_directions())


# -- route-change safety (satellite: invalidate_routes flushes the memo) ------

def _star_with_two_egresses():
    net = NetworkSim("n")
    h1 = net.add_host("h1", addr=1)
    h2 = net.add_host("h2", addr=2)
    h3 = net.add_host("h3", addr=3)
    sw = net.add_switch("sw", proc_delay_ps=0)
    l1 = net.add_link(h1, sw, 10e9, 1 * US)
    l2 = net.add_link(sw, h2, 10e9, 1 * US)
    l3 = net.add_link(sw, h3, 10e9, 1 * US)
    sw.add_route(1, l1.port_b)
    sw.add_route(2, l2.port_a)
    return net, h1, h2, h3, sw, l2, l3


def test_invalidate_routes_flushes_batching_memo():
    """A mid-run route change must not forward a run out the stale port."""
    net, h1, h2, h3, sw, l2, l3 = _star_with_two_egresses()
    net.enable_batching()
    got2, got3 = [], []
    h2.stack.udp_socket(9, lambda pkt: got2.append(net.now))
    h3.stack.udp_socket(9, lambda pkt: got3.append(net.now))
    sock = h1.stack.udp_socket(8)
    net.schedule(0, lambda: sock.sendto(2, 9, 500))

    def rewire():
        # move destination 2 behind h3's port (e.g. VM migration)
        sw.fib[2] = [l3.port_a]
        sw.invalidate_routes()

    # after the first packet has been forwarded (memo primed), rewire
    net.schedule(5 * US, rewire)
    net.schedule(6 * US, lambda: sock.sendto(2, 9, 500))
    sim = Simulation(mode="fast")
    sim.add(net)
    sim.run(1000 * US)
    assert len(got2) == 1  # first packet took the original port
    # second packet must follow the *new* FIB, not the stale memo
    assert sw.tx_packets == 2
    assert l3.dir_ab.tx_packets == 1


def test_add_route_flushes_route_cache():
    net, h1, h2, h3, sw, l2, l3 = _star_with_two_egresses()
    net.enable_batching()
    h2.stack.udp_socket(9, lambda pkt: None)
    sock = h1.stack.udp_socket(8)
    net.schedule(0, lambda: sock.sendto(2, 9, 500))
    sim = Simulation(mode="fast")
    sim.add(net)

    def check_and_add():
        assert sw._route_cache == {2: l2.dir_ab}
        sw.add_route(3, l3.port_a)
        assert 3 not in sw._route_cache
        sw.add_route(2, l3.port_a)
        assert 2 not in sw._route_cache

    net.schedule(10 * US, check_and_add)
    sim.run(1000 * US)
