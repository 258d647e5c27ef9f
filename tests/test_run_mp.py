"""The orchestrated experiment can run as real OS processes (fork)."""

import pytest

from repro.kernel.simtime import MS, US
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.obs.audit import load_audit
from repro.obs.timeline import load_timeline
from repro.orchestration.instantiate import Instantiation
from repro.orchestration.system import System

from .test_determinism_guard import assert_same_timeline

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


@pytest.mark.slow
def test_run_mp_collects_the_recorders_the_instantiation_declared(tmp_path):
    """One declaration serves every runtime: ``run_mp`` feeds the
    experiment's own audit and timeline collectors, so ``save`` writes a
    complete mp ledger equal to the strict in-process one (not an empty
    document whose root is the hash of nothing), a timeline covering every
    event, and headers equal to the in-process ones of the same build."""
    strict = Instantiation(kv_system(), audit=True, timeline=True).build()
    strict.run(2 * MS)
    strict.save("audit", str(tmp_path / "strict_audit.jsonl"))
    strict.save("timeline", str(tmp_path / "strict_timeline.jsonl"))

    exp = Instantiation(kv_system(), audit=True, timeline=True).build()
    results = exp.run_mp(2 * MS, timeout_s=120)
    exp.save("audit", str(tmp_path / "audit.jsonl"))
    exp.save("timeline", str(tmp_path / "timeline.jsonl"))

    ledger = load_audit(str(tmp_path / "audit.jsonl"))
    assert ledger.mode == "mp" and not ledger.partial
    assert_same_timeline(load_audit(str(tmp_path / "strict_audit.jsonl")),
                         ledger)
    tl = load_timeline(str(tmp_path / "timeline.jsonl"))
    assert set(tl.components) == set(results)
    assert sum(r.events for r in tl.rows) == \
        sum(r.events for r in results.values())

    # the advisor's switch map and the system name travel in mp headers too
    ref_tl = load_timeline(str(tmp_path / "strict_timeline.jsonl"))
    assert tl.meta == ref_tl.meta == {"net_switches": {"net": ["tor"]}}
    ref_ledger = load_audit(str(tmp_path / "strict_audit.jsonl"))
    assert ledger.meta == ref_ledger.meta
    assert "system" in ledger.meta


def test_save_before_any_run_is_rejected(tmp_path):
    # an unrun collector would write an empty ledger that reads as complete
    exp = Instantiation(kv_system(), audit=True).build()
    with pytest.raises(RuntimeError, match="run the experiment"):
        exp.save("audit", str(tmp_path / "audit.jsonl"))
    assert not (tmp_path / "audit.jsonl").exists()


@pytest.mark.parametrize("first,second", [
    ("run", "run_mp"), ("run_mp", "run"), ("run_mp", "run_mp")],
    ids=["run_mp-after-run", "run-after-run_mp", "run_mp-after-run_mp"])
def test_run_mp_after_in_process_run_is_rejected(first, second):
    # an experiment runs once, in either runtime: forking already-drained
    # components used to return garbage silently, and a second run would
    # mix two runs into the recorders both runtimes feed
    exp = Instantiation(kv_system()).build()
    getattr(exp, first)(1 * US)
    with pytest.raises(RuntimeError, match="already ran; build a fresh one"):
        getattr(exp, second)(2 * MS)
