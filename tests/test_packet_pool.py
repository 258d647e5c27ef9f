"""Packet pooling, precomputed size_bits, and the switch route cache."""

from repro.kernel.simtime import US
from repro.netsim import packet as packet_mod
from repro.netsim.network import NetworkSim
from repro.netsim.packet import MIN_FRAME_BYTES, Packet, pool_stats


def test_size_bits_precomputed_and_clamped():
    p = Packet(src=1, dst=2, size_bytes=200)
    assert p.size_bits == 1600
    small = Packet(src=1, dst=2, size_bytes=1)
    assert small.size_bytes == MIN_FRAME_BYTES
    assert small.size_bits == MIN_FRAME_BYTES * 8


def test_alloc_reuses_released_packet_with_fresh_uid():
    packet_mod._pool.clear()
    p = Packet.alloc(src=1, dst=2, size_bytes=100, payload="x")
    old_uid = p.uid
    p.ce = True
    p.hops = 3
    p.release()
    q = Packet.alloc(src=5, dst=6, size_bytes=10)
    assert q is p  # recycled instance
    assert q.uid != old_uid
    assert q.src == 5 and q.dst == 6
    assert q.size_bytes == MIN_FRAME_BYTES and q.size_bits == MIN_FRAME_BYTES * 8
    assert q.payload is None and not q.ce and q.hops == 0


def test_release_is_idempotent_and_clears_payload():
    packet_mod._pool.clear()
    p = Packet(src=1, dst=2, size_bytes=100, payload=object())
    before = pool_stats()["releases"]
    p.release()
    p.release()
    assert p.payload is None
    assert pool_stats()["releases"] == before + 1
    assert packet_mod._pool.count(p) == 1


def test_clone_for_reply_swaps_addresses():
    p = Packet(src=1, dst=2, size_bytes=100, src_port=10, dst_port=20,
               ect=True)
    r = p.clone_for_reply(64, payload="pong")
    assert (r.src, r.dst, r.src_port, r.dst_port) == (2, 1, 20, 10)
    assert r.ect and r.payload == "pong"


def _star(n_hosts=3):
    net = NetworkSim("net")
    sw = net.add_switch("sw", proc_delay_ps=0)
    hosts = []
    for i in range(n_hosts):
        h = net.add_host(f"h{i}", addr=i + 1)
        net.add_link(h, sw, 10e9, 1 * US)
        sw.add_route(h.addr, sw.ports[i])
        hosts.append(h)
    return net, sw, hosts


def test_route_cache_fills_on_forward_and_matches_fib():
    net, sw, hosts = _star()
    pkt = Packet(src=1, dst=2, size_bytes=100)
    sw.forward(pkt)
    assert sw._route_cache[2] is sw.fib[2][0].egress
    assert sw.tx_packets == 1


def test_add_route_invalidates_cached_entry_and_ecmp_uncached():
    net, sw, hosts = _star()
    sw.forward(Packet(src=1, dst=2, size_bytes=100))
    assert 2 in sw._route_cache
    # second path to the same destination -> entry dropped, ECMP from now on
    sw.add_route(2, sw.ports[2])
    assert 2 not in sw._route_cache
    sw.forward(Packet(src=1, dst=2, size_bytes=100))
    assert 2 not in sw._route_cache  # ECMP sets are never cached


def test_topology_change_invalidates_route_cache():
    net, sw, hosts = _star()
    sw.forward(Packet(src=1, dst=2, size_bytes=100))
    assert sw._route_cache
    h = net.add_host("late", addr=99)
    net.add_link(h, sw, 10e9, 1 * US)
    assert not sw._route_cache


def test_no_route_still_drops():
    net, sw, hosts = _star()
    sw.forward(Packet(src=1, dst=77, size_bytes=100))
    assert sw.no_route_drops == 1
