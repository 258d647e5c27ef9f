"""The histogram primitive and the one flat metrics walk."""

import pytest

from repro.kernel.simtime import MS, US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.obs.metrics import (Histogram, METRICS_SCHEMA,
                               collect_experiment, collect_simulation,
                               snapshot)
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.system import System

GBPS = 1e9


def kv_experiment(mode="fast"):
    system = System(seed=3)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1 * US)
    system.link("client", "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    return Instantiation(system, mode=mode).build()


# -- primitives ---------------------------------------------------------------

def test_histogram_exponential_buckets():
    h = Histogram("h", start=1.0, factor=2.0, buckets=4)
    assert h.bounds == [1.0, 2.0, 4.0, 8.0]
    for v in (0.5, 1.5, 3.0, 100.0):
        h.observe(v)
    assert h.count == 4
    assert h.max == 100.0
    assert h.mean == pytest.approx((0.5 + 1.5 + 3.0 + 100.0) / 4)
    assert h.counts == [1, 1, 1, 0, 1]  # last is overflow
    d = h.to_dict()
    assert d["overflow"] == 1 and d["count"] == 4


def test_histogram_quantiles():
    h = Histogram("h", start=1.0, factor=2.0, buckets=8)
    for v in [1, 1, 1, 1, 1, 1, 1, 1, 1, 100]:
        h.observe(v)
    assert h.quantile(0.5) == 1.0
    assert h.quantile(1.0) == 128.0  # bucket upper bound holding the max
    assert Histogram("e").quantile(0.9) == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_rejects_bad_shape():
    with pytest.raises(ValueError):
        Histogram("h", start=0.0)
    with pytest.raises(ValueError):
        Histogram("h", factor=1.0)
    with pytest.raises(ValueError):
        Histogram("h", buckets=0)


# -- snapshot -----------------------------------------------------------------

def test_snapshot_key_order_is_deterministic():
    # snapshots feed JSON artifacts that get diffed across runs: key
    # order must depend only on the names, never on insertion order
    snap_a = snapshot({"z.last": 1.0, "a.first": 1.0, "m.middle": 1.0})
    snap_b = snapshot({"m.middle": 1.0, "z.last": 1.0, "a.first": 1.0})
    assert list(snap_a["metrics"]) == list(snap_b["metrics"]) == \
        ["a.first", "m.middle", "z.last"]
    import json
    assert json.dumps(snap_a) == json.dumps(snap_b)


def test_snapshot_is_versioned_and_flat():
    snap = snapshot({"kernel.queue.executed": 10.0,
                     "run.events_per_sec": 1e6})
    assert snap == {"schema": METRICS_SCHEMA,
                    "metrics": {"kernel.queue.executed": 10.0,
                                "run.events_per_sec": 1e6}}


# -- collection ---------------------------------------------------------------

def test_collect_simulation_unifies_all_layers():
    exp = kv_experiment()
    result = exp.run(2 * MS)
    metrics = collect_simulation(exp.sim, stats=result.stats)
    assert all(type(v) is float for v in metrics.values())
    # kernel.*: event-queue health aggregates
    assert metrics["kernel.queue.executed"] == float(result.stats.events)
    # component.*: per-component progress
    assert metrics["component.net.events"] > 0
    assert metrics["component.server.host.work_cycles"] > 0
    # channel.*: per-end counters under subsystem.component.metric naming
    assert any(n.startswith("channel.server.nic.") and n.endswith(".tx_msgs")
               for n in metrics)
    # netsim.*: per-link-direction counters including the node names
    assert metrics["netsim.net.tx_packets"] > 0
    assert any(".link.tor->" in n for n in metrics)
    # run.*: run-level throughput from SimStats
    assert metrics["run.events"] == float(result.stats.events)


def test_collect_experiment_adds_app_metrics():
    exp = kv_experiment()
    exp.run(2 * MS)
    metrics = collect_experiment(exp)
    assert metrics["app.client.app0.completed"] > 0
    assert snapshot(metrics)["metrics"]["app.client.app0.completed"] == \
        metrics["app.client.app0.completed"]


def test_experiment_metrics_convenience():
    exp = kv_experiment()
    result = exp.run(1 * MS)
    metrics = exp.metrics(result.stats)
    assert "run.events" in metrics
    assert metrics["run.sim_ps"] == float(1 * MS)


def test_transport_counters_flatten_under_the_component():
    from repro.obs.metrics import transport_counters

    transport = {
        "frames_out": 100, "batches_out": 10, "bytes_out": 5000,
        "frames_in": 90, "batches_in": 9, "bytes_in": 4500,
        "frames_per_batch": 10.0,
        "wire": {"msg_pickle_fallbacks": 3, "payload_pickles": 7},
    }
    metrics = transport_counters("nic", transport)
    assert metrics["transport.nic.frames_out"] == 100.0
    assert metrics["transport.nic.frames_per_batch"] == 10.0
    assert metrics["transport.nic.msg_pickle_fallbacks"] == 3.0
    assert metrics["transport.nic.payload_pickles"] == 7.0
    assert len(metrics) == 9


def test_live_metrics_reply_reads_like_the_snapshot():
    """An mp child's live ``metrics`` reply on a real network component
    has exactly that component's ``component.*``/``channel.*``/
    ``netsim.*`` entries of the post-hoc snapshot."""
    import queue

    from repro.obs.live import ChildMailbox

    exp = kv_experiment(mode="strict")
    exp.run(1 * MS)
    net = next(c for c in exp.sim.components if c.name == "net")
    assert net.ends, "the network component must have channel ends"
    cmd_q, reply_q = queue.Queue(), queue.Queue()
    cmd_q.put({"cmd": "metrics", "req": 1})
    ChildMailbox("net", cmd_q, reply_q, net).poll(net.now)
    _, _, payload = reply_q.get_nowait()
    post_hoc = {k: v for k, v in collect_simulation(exp.sim).items()
                if k.startswith(("component.net.", "channel.net.",
                                 "netsim.net."))}
    assert any(k.startswith("netsim.net.link.") for k in post_hoc)
    assert sorted(payload) == sorted(post_hoc)
    assert payload == post_hoc


# -- histogram edge cases -----------------------------------------------------

def test_histogram_zero_and_sub_bucket_values_land_in_first_bucket():
    h = Histogram("h", start=1.0, factor=2.0, buckets=4)
    for v in (0.0, 0.25, 1.0):  # zero, sub-start, exactly-at-start
        h.observe(v)
    assert h.counts[0] == 3
    assert h.count == 3
    assert h.sum == 1.25
    assert h.max == 1.0
    assert h.quantile(1.0) == 1.0  # upper bound of the holding bucket


def test_histogram_single_observation_snapshot():
    h = Histogram("h", start=1.0, factor=2.0, buckets=4)
    h.observe(3.0)
    d = h.to_dict()
    assert d["count"] == 1
    assert d["sum"] == 3.0 and d["max"] == 3.0 and d["mean"] == 3.0
    assert d["buckets"] == {"4": 1}  # only the non-empty bucket serializes
    assert d["overflow"] == 0
    assert h.quantile(1.0) == 4.0


def test_histogram_bucket_boundary_values_are_inclusive():
    # bucket i counts observations <= start * factor**i: a value exactly
    # on a bound belongs to that bucket, never the next one up
    h = Histogram("h", start=1.0, factor=2.0, buckets=4)
    for bound in h.bounds:
        h.observe(bound)
    assert h.counts == [1, 1, 1, 1, 0]


def test_histogram_quantile_at_exact_rank_boundaries():
    # ranks landing exactly on a cumulative bucket count resolve to that
    # bucket's bound, not the next one up
    h = Histogram("h", start=1.0, factor=2.0, buckets=4)
    for v in (1.0, 2.0, 4.0, 8.0):  # one observation per bucket
        h.observe(v)
    assert h.quantile(0.25) == 1.0
    assert h.quantile(0.5) == 2.0
    assert h.quantile(0.75) == 4.0
    assert h.quantile(1.0) == 8.0


def test_histogram_quantile_q_zero_is_minimum_bucket():
    # q=0 maps to rank 1 — the first occupied bucket — never below the
    # smallest observation
    h = Histogram("h", start=1.0, factor=2.0, buckets=8)
    h.observe(30.0)
    h.observe(100.0)
    assert h.quantile(0.0) == 32.0  # bound of the bucket holding 30
    assert Histogram("e").quantile(0.0) == 0.0  # empty stays 0


def test_histogram_quantile_single_observation_every_q():
    h = Histogram("h", start=1.0, factor=2.0, buckets=8)
    h.observe(3.0)
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert h.quantile(q) == 4.0  # the one occupied bucket's bound


def test_histogram_bounds_stable_across_snapshot_versions():
    # the bucket layout is part of the snapshot contract: committed
    # BENCH/report artifacts compare histograms across runs, so the
    # geometric series (and the schema tag) must not drift
    assert METRICS_SCHEMA == 1
    h = Histogram("h", start=1.0, factor=4.0, buckets=16)
    assert h.bounds == [4.0 ** i for i in range(16)]
    assert len(h.counts) == 17  # buckets + overflow
    h2 = Histogram("h", start=1.0, factor=4.0, buckets=16)
    assert h2.bounds == h.bounds
