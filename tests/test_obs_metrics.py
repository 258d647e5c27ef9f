"""Metrics primitives and the unified collection API."""

import pytest

from repro.kernel.simtime import MS, US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.obs.metrics import (Counter, Gauge, Histogram, METRICS_SCHEMA,
                               MetricsRegistry, collect_experiment,
                               collect_simulation)
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.system import System

GBPS = 1e9


def kv_experiment():
    system = System(seed=3)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("client")
    system.link("server", "tor", 10 * GBPS, 1 * US)
    system.link("client", "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("client", lambda h: KVClientApp([addr], closed_loop_window=4))
    return Instantiation(system).build()


# -- primitives ---------------------------------------------------------------

def test_counter_is_monotonic():
    c = Counter("c")
    c.inc()
    c.inc(4.0)
    assert c.value == 5.0
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_sets_freely():
    g = Gauge("g")
    g.set(7.0)
    g.set(2.5)
    assert g.value == 2.5


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


# -- registry -----------------------------------------------------------------

def test_registry_get_or_create_returns_same_object():
    reg = MetricsRegistry()
    assert reg.counter("a.b.c") is reg.counter("a.b.c")
    assert len(reg) == 1
    assert "a.b.c" in reg


def test_registry_rejects_kind_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_snapshot_key_order_is_deterministic():
    # snapshots feed JSON artifacts that get diffed across runs: key
    # order must depend only on the names, never on insertion order
    reg_a = MetricsRegistry()
    for name in ("z.last", "a.first", "m.middle"):
        reg_a.counter(name).inc()
    reg_b = MetricsRegistry()
    for name in ("m.middle", "z.last", "a.first"):
        reg_b.counter(name).inc()
    snap_a, snap_b = reg_a.snapshot(), reg_b.snapshot()
    assert list(snap_a["metrics"]) == list(snap_b["metrics"]) == \
        ["a.first", "m.middle", "z.last"]
    import json
    assert json.dumps(snap_a) == json.dumps(snap_b)


def test_snapshot_is_versioned_and_flat():
    reg = MetricsRegistry()
    reg.counter("kernel.queue.executed").inc(10)
    reg.gauge("run.events_per_sec").set(1e6)
    reg.histogram("lat", buckets=4).observe(3.0)
    snap = reg.snapshot()
    assert snap["schema"] == METRICS_SCHEMA
    assert snap["metrics"]["kernel.queue.executed"] == 10.0
    assert snap["metrics"]["run.events_per_sec"] == 1e6
    assert snap["metrics"]["lat"]["count"] == 1


# -- collection ---------------------------------------------------------------

def test_collect_simulation_unifies_all_layers():
    exp = kv_experiment()
    result = exp.run(2 * MS)
    reg = collect_simulation(exp.sim, stats=result.stats)
    names = reg.names()
    # kernel.*: event-queue health aggregates
    assert reg.value("kernel.queue.executed") == float(result.stats.events)
    # component.*: per-component progress
    assert reg.value("component.net.events") > 0
    assert reg.value("component.server.host.work_cycles") > 0
    # channel.*: per-end counters under subsystem.component.metric naming
    assert any(n.startswith("channel.server.nic.") and n.endswith(".tx_msgs")
               for n in names)
    # netsim.*: per-link-direction counters including the node names
    assert reg.value("netsim.net.tx_packets") > 0
    assert any(".link.tor->" in n for n in names)
    # run.*: run-level throughput from SimStats
    assert reg.value("run.events") == float(result.stats.events)


def test_collect_experiment_adds_app_metrics():
    exp = kv_experiment()
    exp.run(2 * MS)
    reg = collect_experiment(exp)
    assert reg.value("app.client.app0.completed") > 0
    snap = reg.snapshot()
    assert snap["metrics"]["app.client.app0.completed"] == \
        reg.value("app.client.app0.completed")


def test_experiment_metrics_convenience():
    exp = kv_experiment()
    result = exp.run(1 * MS)
    reg = exp.metrics(result.stats)
    assert "run.events" in reg
    assert reg.value("run.sim_ps") == float(1 * MS)


def test_collect_live_children_maps_transport_counters():
    from repro.obs.metrics import collect_live_children

    transport = {
        "frames_out": 100, "batches_out": 10, "bytes_out": 5000,
        "frames_in": 90, "batches_in": 9, "bytes_in": 4500,
        "frames_per_batch": 10.0,
        "wire": {"msg_pickle_fallbacks": 3, "payload_pickles": 7},
    }
    reg = collect_live_children({"nic": {"events": 4,
                                         "transport": transport}})
    assert reg.value("component.nic.events") == 4.0
    assert reg.value("transport.nic.frames_out") == 100.0
    assert reg.value("transport.nic.frames_per_batch") == 10.0
    assert reg.value("transport.nic.msg_pickle_fallbacks") == 3.0
    assert reg.value("transport.nic.payload_pickles") == 7.0


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
