"""Tests for CPU models, drifting clocks, and the simulated OS."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hostsim.clock import DriftingClock
from repro.hostsim.cpu import Gem5Cpu, QemuCpu
from repro.hostsim.driver import DirectEthDriver
from repro.hostsim.host import HostSim, gem5_host, qemu_host
from repro.kernel.rng import make_rng
from repro.kernel.simtime import MS, NS, SEC, US


# -- CPU models ---------------------------------------------------------------

def test_qemu_cpu_linear_and_deterministic():
    cpu = QemuCpu(freq_ghz=4.0, ipc=1.0)
    assert cpu.time_for(4000) == 1 * US // 1000 * 1000  # 4000 inst @4GHz = 1us
    assert cpu.time_for(4000) == cpu.time_for(4000)
    assert cpu.time_for(8000) == 2 * cpu.time_for(4000)


def test_qemu_cpu_validates():
    with pytest.raises(ValueError):
        QemuCpu(freq_ghz=0)


def test_gem5_slower_than_base_and_variable():
    rng = make_rng(0, "cpu")
    cpu = Gem5Cpu(freq_ghz=4.0, base_ipc=1.6, rng=rng)
    base_ps = 1000 / (4.0 * 1.6) * 10_000
    times = [cpu.time_for(10_000) for _ in range(20)]
    assert all(t > base_ps for t in times)  # stalls add time
    assert len(set(times)) > 1  # seeded variance


def test_gem5_host_cost_much_higher_than_qemu():
    q, g = QemuCpu(), Gem5Cpu()
    assert g.host_cycles(1000) > 10 * q.host_cycles(1000)


# -- drifting clock -------------------------------------------------------------

def test_clock_zero_drift_tracks_true_time():
    clk = DriftingClock()
    assert clk.read(5 * SEC) == 5 * SEC
    assert clk.error_ps(5 * SEC) == 0


def test_clock_drift_accumulates():
    clk = DriftingClock(drift_ppm=100.0)
    # 100 ppm over 1 s = 100 us ahead
    assert clk.error_ps(1 * SEC) == pytest.approx(100 * US, rel=1e-6)


def test_clock_step():
    clk = DriftingClock(drift_ppm=0.0, offset_ps=500)
    clk.step(true_now=1000, delta_ps=-500)
    assert clk.error_ps(1000) == 0


def test_clock_freq_adjust_cancels_drift():
    clk = DriftingClock(drift_ppm=50.0)
    t0 = 1 * SEC
    clk.step(t0, -clk.error_ps(t0))
    clk.adj_freq_ppm(t0, -50.0)
    assert abs(clk.error_ps(t0 + 1 * SEC)) < 100  # sub-100ps residual


def test_clock_set_freq():
    clk = DriftingClock(drift_ppm=30.0)
    clk.set_freq_ppm(0, 0.0)
    assert clk.freq_ppm == pytest.approx(0.0)
    assert clk.error_ps(1 * SEC) == 0


@given(st.floats(min_value=-200, max_value=200),
       st.integers(min_value=0, max_value=10**12),
       st.integers(min_value=1, max_value=10**12))
@settings(max_examples=50)
def test_clock_monotonic_for_physical_drifts(ppm, t0, dt):
    clk = DriftingClock(drift_ppm=ppm)
    assert clk.read(t0 + dt) >= clk.read(t0)


@given(st.floats(min_value=-200, max_value=200),
       st.integers(min_value=0, max_value=10**10))
@settings(max_examples=50)
def test_clock_rebase_preserves_reading(ppm, t):
    clk = DriftingClock(drift_ppm=ppm)
    before = clk.read(t)
    clk.step(t, 0)  # rebase with no delta
    assert clk.read(t) == before


# -- SimOS ------------------------------------------------------------------------

def make_host(name="h", addr=1, cpu=None):
    return HostSim(name, addr, cpu=cpu or QemuCpu(),
                   driver=DirectEthDriver())


def test_charge_advances_cpu_ledger():
    host = make_host()
    os = host.os
    os.charge(4000)  # 1 us at 4 GHz
    assert os.cpu_free_at == 1 * US
    assert os.cpu_busy_ps == 1 * US
    os.charge(4000)
    assert os.cpu_free_at == 2 * US
    assert os.instructions_retired == 8000


def test_charge_records_host_work():
    host = make_host()
    host.os.charge(1000)
    assert host.work_cycles > 0


def test_tx_deferred_until_cpu_free():
    """The observable effect of CPU queueing: replies leave late."""
    from repro.netsim.packet import Packet
    host = make_host()
    sent_at = []
    host.os.driver.transmit = lambda pkt: sent_at.append(host.now)
    host.os.charge(40_000)  # 10 us of work
    host.os.tx(Packet(src=1, dst=2, size_bytes=100))
    host.advance(1 * MS)
    assert sent_at == [10 * US]


def test_clock_ps_reads_host_clock():
    from repro.hostsim.clock import DriftingClock
    host = HostSim("h", 1, cpu=QemuCpu(), driver=DirectEthDriver(),
                   clock=DriftingClock(offset_ps=123))
    assert host.os.clock_ps() == 123


def test_factories_assign_drift_and_cpu():
    q = qemu_host("q", 1, seed=3)
    g = gem5_host("g", 2, seed=3)
    assert isinstance(q.cpu, QemuCpu)
    assert isinstance(g.cpu, Gem5Cpu)
    assert q.cycles_per_event < g.cycles_per_event
    # factory seeds produce bounded drifts
    assert abs(q.os.clock.freq_ppm) <= 50.0


def test_apps_share_env_interface():
    """The same app code must see the NetHost-compatible surface."""
    host = make_host()
    os = host.os
    for attr in ("stack", "now", "call_after", "timer", "cancel", "charge",
                 "rng", "addr", "clock_ps", "add_app"):
        assert hasattr(os, attr)


def test_collect_outputs_shape():
    host = make_host()
    host.os.charge(100)
    out = host.collect_outputs()
    assert out["addr"] == 1
    assert out["instructions"] == 100
