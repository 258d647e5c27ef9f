"""Property-based TCP tests: reliable delivery under arbitrary conditions."""

from hypothesis import example, given, settings, strategies as st

from repro.kernel.simtime import MS, US
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.topology import dumbbell, instantiate
from repro.netsim.transport.tcp import INIT_RTO_PS
from repro.parallel.simulation import Simulation

#: Simulated deadline: room for 16 timeouts in a row under exponential
#: backoff capped at 60 s (~262 s).  The run ends when the event queue
#: empties, so the tail of a flow costs a handful of RTO events, not time.
DEADLINE_PS = sum(min(INIT_RTO_PS << k, 60_000 * MS) for k in range(16))


@st.composite
def tcp_scenario(draw):
    total_bytes = draw(st.integers(min_value=1, max_value=400_000))
    variant = draw(st.sampled_from(["newreno", "dctcp"]))
    bottleneck_gbps = draw(st.sampled_from([0.5, 1.0, 10.0]))
    queue_kb = draw(st.sampled_from([8, 32, 512]))
    latency_us = draw(st.integers(min_value=1, max_value=20))
    ecn = draw(st.sampled_from([None, 10, 65]))
    return total_bytes, variant, bottleneck_gbps, queue_kb, latency_us, ecn


@given(tcp_scenario())
# RTO backoff does not collapse while ACKs advance snd_una in the tail of a
# flow (no new segment is timed): 11 timeouts leave rto at 2.1 s and the
# last segment goes out after 4.2 s of simulated time
@example((361593, "newreno", 10.0, 32, 10, None))
@settings(max_examples=15, deadline=None)
def test_tcp_delivers_exactly_once_in_order(scenario):
    total_bytes, variant, gbps, queue_kb, latency_us, ecn = scenario
    spec = dumbbell(pairs=1, bottleneck_bw=gbps * 1e9,
                    bottleneck_latency_ps=latency_us * US,
                    ecn_threshold_pkts=ecn)
    for link in spec.links:
        link.queue_capacity_bytes = queue_kb * 1024
    spec.on_host("rcv0", lambda h: BulkSink(port=5001, variant=variant,
                                            sample_every_bytes=1))
    dst = spec.addr_of("rcv0")
    spec.on_host("snd0", lambda h: BulkSender(dst, 5001,
                                              total_bytes=total_bytes,
                                              variant=variant))
    build = instantiate(spec)
    sim = Simulation(mode="fast")
    sim.add(build.net)
    # run to completion: this checks delivery, not how soon
    sim.run(DEADLINE_PS)
    assert len(build.net.queue) == 0
    sink = build.host("rcv0").apps[0]
    conn = build.host("snd0").apps[0].conn

    # exactly-once, in-order byte stream
    assert sink.delivered == total_bytes
    deliveries = [d for _, d in sink.samples]
    assert deliveries == sorted(deliveries)
    assert conn.snd_una == total_bytes
    # sender believes it is done and has FINed
    assert conn.state == "fin_wait"
