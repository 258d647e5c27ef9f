"""Tests for the fluid flow-level fidelity tier (promote/demote handoff).

The invariants pinned here:

* **exact byte conservation** — a transfer that promotes to the fluid tier
  and demotes at finish delivers *exactly* its byte count, and the FIN
  teardown runs at packet level;
* **fidelity** — the fig6 threshold-study goodput at both tiers agrees
  within a pinned tolerance, at every swept ECN threshold K;
* **economy** — the fluid run needs an order of magnitude fewer kernel
  events than the packet oracle (the tier's reason to exist);
* **eligibility** — non-DCTCP flows and default (no-fidelity)
  instantiations never touch the fluid machinery;
* **mp identity** — a partitioned multiprocess run with fluid enabled
  executes the same per-component event timeline as in-process strict.
"""

import pytest

from repro.bench.workloads import build_fluid_longflows, run_system
from repro.kernel.simtime import MS, US
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.fidelity import FidelityConfig
from repro.netsim.topology import TopoSpec, dumbbell
from repro.obs.flows import analyze_doc, uninstall_flow_recorder
from repro.obs.trace import chrome_doc
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.system import System

GBPS = 1e9


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    yield
    uninstall_flow_recorder()


def run_longflows(duration_ps, fidelity=None, k=15, total=None):
    kwargs = {} if total is None else {"total_bytes": total}
    system = build_fluid_longflows(k=k, **kwargs)
    exp = Instantiation(system, mode="fast", fidelity=fidelity).build()
    result = exp.run(duration_ps)
    return exp, result.stats


def goodput(exp, duration_ps, pairs=2):
    delivered = sum(exp.app(f"rcv{i}").delivered for i in range(pairs))
    return delivered * 8 / (duration_ps / 1e12)


# -- handoff -------------------------------------------------------------------

def test_promote_demote_conserves_bytes_exactly():
    """Promote mid-transfer, demote at finish: byte-exact, FIN at packet."""
    total = 8 * 1024 * 1024
    exp, _ = run_longflows(40 * MS, FidelityConfig(fluid=True), total=total)
    net = exp.network_components()[0]
    stats = net.fluid.stats()
    assert stats["promoted"] == 2
    assert stats["demoted"] == 2
    assert stats["active"] == 0
    assert stats["bytes_modeled"] > total  # the bulk went through the tier
    for i in range(2):
        sink = exp.app(f"rcv{i}")
        conn = exp.app(f"snd{i}").conn
        assert sink.delivered == total          # exact, not approximate
        assert conn.snd_una == total
        assert not conn.fluid_mode
        assert conn.fin_sent and conn.state == "fin_wait"  # packet teardown
        assert conn.timeouts == 0


def test_handoff_keeps_flow_id_across_promote_demote():
    """The causal-tracing id spans the handoff: one flow, both hop kinds."""
    total = 8 * 1024 * 1024
    system = build_fluid_longflows(total_bytes=total)
    exp = Instantiation(system, mode="fast", flow_sample=1,
                        fidelity=FidelityConfig(fluid=True)).build()
    try:
        exp.run(40 * MS)
        doc = chrome_doc([exp.recorders["trace"].tracer])
    finally:
        uninstall_flow_recorder()
    rep = analyze_doc(doc)
    spanning = [f for f in rep.flows.values()
                if {"promote", "demote"} <= {h.kind for h in f.hops}]
    assert len(spanning) == 2  # both bulk flows kept one id across handoff
    for flow in spanning:
        kinds = [h.kind for h in flow.hops]
        assert kinds.index("promote") < kinds.index("demote")


def test_delivery_callback_fires_during_fluid_phase():
    total = 8 * 1024 * 1024
    exp, _ = run_longflows(40 * MS, FidelityConfig(fluid=True), total=total)
    sink = exp.app("rcv0")
    # progress samples span the fluid phase, monotonically
    deliveries = [d for _, d in sink.samples]
    assert deliveries == sorted(deliveries)
    # one sample per ~sample_every_bytes of progress (boundary crossings
    # may coalesce when one fluid tick advances past several)
    assert len(deliveries) >= total // sink.sample_every_bytes - 2


# -- fidelity vs the packet oracle (fig6 threshold study) ----------------------

@pytest.mark.parametrize("k", [5, 65])
def test_fig6_goodput_matches_packet_oracle(k):
    duration = 20 * MS
    exp_p, stats_p = run_longflows(duration, None, k=k)
    exp_f, stats_f = run_longflows(duration, FidelityConfig(fluid=True), k=k)
    gp_packet = goodput(exp_p, duration)
    gp_fluid = goodput(exp_f, duration)
    assert gp_packet > 5e9  # the oracle itself is healthy (no RTO wedge)
    # pinned tolerance of the acceptance criterion
    assert abs(gp_fluid - gp_packet) / gp_packet < 0.05
    # and the tier must actually have run fluid
    assert exp_f.network_components()[0].fluid.stats()["promoted"] == 2


def test_fluid_event_reduction_at_least_10x():
    duration = 20 * MS
    _, stats_p = run_longflows(duration, None)
    _, stats_f = run_longflows(duration, FidelityConfig(fluid=True))
    assert stats_p.events >= 10 * stats_f.events


def test_fluid_charges_work_cycles():
    exp, _ = run_longflows(10 * MS, FidelityConfig(fluid=True))
    net = exp.network_components()[0]
    assert net.fluid.stats()["updates"] > 0
    assert net.work_cycles > 0


# -- eligibility ---------------------------------------------------------------

def test_newreno_never_promotes():
    spec = dumbbell(pairs=1, ecn_threshold_pkts=15)
    system = System.from_topospec(spec, seed=9)
    dst = system.addr_of("rcv0")
    system.app("rcv0", lambda h: BulkSink())
    system.app("snd0", lambda h: BulkSender(dst, total_bytes=4 * 1024 * 1024))
    exp = Instantiation(system, mode="fast",
                        fidelity=FidelityConfig(fluid=True)).build()
    exp.run(10 * MS)
    net = exp.network_components()[0]
    assert net.fluid.stats()["promoted"] == 0
    assert exp.app("rcv0").delivered == 4 * 1024 * 1024


def test_default_instantiation_has_no_fluid_machinery():
    system = build_fluid_longflows(total_bytes=1024 * 1024)
    exp = Instantiation(system, mode="fast").build()
    exp.run(2 * MS)
    for net in exp.network_components():
        assert net.fluid is None
        for node in net.nodes.values():
            stack = getattr(node, "stack", None)
            if stack is not None:
                assert stack.fluid_ctl is None


def test_fluid_links_predicate_restricts_paths():
    """A predicate rejecting the bottleneck keeps every flow packet-level."""
    fid = FidelityConfig(fluid=True, fluid_links=lambda label: False)
    exp, _ = run_longflows(10 * MS, fid)
    net = exp.network_components()[0]
    stats = net.fluid.stats()
    assert stats["promoted"] == 0
    assert stats["rejected"] > 0


def test_fluid_metrics_in_registry():
    from repro.obs.metrics import collect_simulation
    exp, _ = run_longflows(10 * MS, FidelityConfig(fluid=True))
    reg = collect_simulation(exp.sim)
    assert reg.value("netsim.net.fluid.promoted") == 2.0
    assert reg.value("netsim.net.fluid.updates") > 0
    assert any(n.endswith(".fluid.active") for n in reg.names())


# -- multiprocess identity -----------------------------------------------------

def two_rack_system(k=15, total=1536 * 1024):
    """Two independent racks (flows stay inside their partition)."""
    spec = TopoSpec()
    for r in range(2):
        spec.add_switch(f"sw{r}")
        spec.add_host(f"snd{r}")
        spec.add_host(f"rcv{r}")
        spec.add_link(f"snd{r}", f"sw{r}", 10 * GBPS, 1 * US)
        spec.add_link(f"sw{r}", f"rcv{r}", 10 * GBPS, 1 * US,
                      ecn_threshold_pkts=k)
    spec.add_link("sw0", "sw1", 10 * GBPS, 2 * US)
    system = System.from_topospec(spec, seed=21)
    for r in range(2):
        dst = system.addr_of(f"rcv{r}")
        system.app(f"rcv{r}", lambda h: BulkSink(variant="dctcp"))
        system.app(f"snd{r}", lambda h, a=dst: BulkSender(
            a, total_bytes=total, variant="dctcp"))
    return system


RACK_SPLIT = {"sw0": "p0", "sw1": "p1"}
MP_DURATION = 3 * MS


def _inproc_strict_digests(fidelity):
    from repro.parallel.procrunner import timeline_digest
    exp = Instantiation(two_rack_system(), mode="strict",
                        network_partition=RACK_SPLIT,
                        fidelity=fidelity).build()
    sim = exp.sim
    sim._wire()
    timelines = {c.name: [] for c in sim.components}
    for c in sim.components:
        c.queue.trace = (lambda owner, ts, tl=timelines[c.name]:
                         tl.append(ts))
    sim._run_strict(MP_DURATION)
    fluid_stats = {net.name: (net.fluid.stats() if net.fluid else None)
                   for net in exp.network_components()}
    return ({name: timeline_digest(name, tl)
             for name, tl in timelines.items()}, fluid_stats)


def test_mp_run_with_fluid_matches_inproc():
    """Fluid state is partition-local: mp timelines == in-process strict."""
    fid = FidelityConfig(fluid=True)
    expected, fluid_stats = _inproc_strict_digests(fid)
    # the oracle run must actually exercise the tier in both partitions
    assert all(st and st["promoted"] >= 1 for st in fluid_stats.values())

    exp = Instantiation(two_rack_system(), mode="strict",
                        network_partition=RACK_SPLIT, fidelity=fid).build()
    results = exp.run_mp(MP_DURATION, timeout_s=180, digest=True)
    got = {name: res.timeline_digest for name, res in results.items()}
    assert got == expected
