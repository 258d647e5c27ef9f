"""Deterministic workloads shared by the ladder benchmark and the tests.

``TimerWheelComponent`` and ``CancelChurnComponent`` are the event-kernel
rung of ``benchmarks/ladder`` (``kernel_timers``).  The ``build_*``
functions return a *fresh* seeded :class:`System`, so two runs of one
builder execute the same event timeline.

``build_mixed_system`` doubles as the determinism-guard workload: it mixes
UDP request/response traffic, TCP bulk transfers (exercising timer
cancellation via RTO re-arming), and a detailed host, so its event timeline
covers every hot-path code branch the kernel overhaul touches.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..kernel.component import Component
from ..kernel.simtime import US
from ..netsim.apps.base import App
from ..netsim.apps.bulk import BulkSender, BulkSink
from ..netsim.apps.kv import KVClientApp, KVServerApp
from ..netsim.topology import dumbbell
from ..orchestration.system import System

GBPS = 1e9


# -- kernel-level workloads ---------------------------------------------------

class TimerWheelComponent(Component):
    """``n_timers`` self-rescheduling timers with coprime-ish periods.

    Pure event-queue churn: every event costs one post + one pop + one
    dispatch, with nothing else on the path; a run builds no ``Event``.
    """

    def __init__(self, name: str, n_timers: int, base_period_ps: int) -> None:
        super().__init__(name)
        self.n_timers = n_timers
        self.base_period_ps = base_period_ps
        self.ticks = 0

    def start(self) -> None:
        for i in range(self.n_timers):
            self.call_after(self.base_period_ps + (i % 97), self._tick, i)

    def _tick(self, i: int) -> None:
        self.ticks += 1
        self.call_after(self.base_period_ps + (i % 97), self._tick, i)


class CancelChurnComponent(Component):
    """RTO-style pattern: every tick cancels a pending guard and re-arms it.

    Half of all scheduled events are cancelled before they fire, exercising
    the lazy-deletion path and the live-count bookkeeping: the guards are
    the rung's handles (:meth:`Component.timer`), the ticks are posts.
    """

    def __init__(self, name: str, n_streams: int, period_ps: int) -> None:
        super().__init__(name)
        self.n_streams = n_streams
        self.period_ps = period_ps
        self.ticks = 0
        self._guards: dict = {}

    def start(self) -> None:
        for i in range(self.n_streams):
            self.call_after(self.period_ps + i, self._tick, i)

    def _noop(self, i: int) -> None:  # pragma: no cover - always cancelled
        self._guards.pop(i, None)

    def _tick(self, i: int) -> None:
        self.ticks += 1
        guard = self._guards.pop(i, None)
        if guard is not None:
            self.cancel(guard)
        # guard far enough out that the next tick always cancels it
        self._guards[i] = self.timer(self.period_ps * 8, self._noop, i)
        self.call_after(self.period_ps + (i % 13), self._tick, i)


# -- netsim packet-path workload ----------------------------------------------

def build_netsim_flood(n_clients: int = 4, seed: int = 7,
                       link_bw_bps: float = 10 * GBPS,
                       link_latency_ps: int = 1 * US) -> System:
    """Star topology: ``n_clients`` KV clients hammering one server via UDP.

    Every request/response crosses two links and one switch, so each
    completed operation costs a full packet-path round trip (enqueue,
    serialize, propagate, forward, deliver).
    """
    system = System(seed=seed)
    system.switch("tor")
    system.host("server")
    system.link("server", "tor", link_bw_bps, link_latency_ps)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    for i in range(n_clients):
        name = f"client{i}"
        system.host(name)
        system.link(name, "tor", link_bw_bps, link_latency_ps)
        system.app(name, lambda h, a=addr: KVClientApp([a], closed_loop_window=8))
    return system


class BurstSource(App):
    """Open-loop UDP source: ``burst`` back-to-back datagrams per interval.

    Each burst enqueues its datagrams in one instant, so the egress link
    serializes them back-to-back — the traffic shape the batched link
    drain amortizes (one run event instead of per-packet tx events).
    """

    def __init__(self, dst_addr: int, dst_port: int = 9000,
                 burst: int = 32, interval_ps: int = 40 * US,
                 nbytes: int = 1400) -> None:
        super().__init__()
        self.dst_addr = dst_addr
        self.dst_port = dst_port
        self.burst = burst
        self.interval_ps = interval_ps
        self.nbytes = nbytes
        self.sent = 0
        self._sock = None

    def start(self) -> None:
        self._sock = self.stack.udp_socket()
        self._fire()

    def _fire(self) -> None:
        sock = self._sock
        for _ in range(self.burst):
            sock.sendto(self.dst_addr, self.dst_port, self.nbytes)
            self.sent += 1
        self.call_after(self.interval_ps, self._fire)


class BurstSink(App):
    """Counts and releases burst datagrams."""

    def __init__(self, port: int = 9000) -> None:
        super().__init__()
        self.port = port
        self.received = 0

    def start(self) -> None:
        self.stack.udp_socket(self.port, self._on_dgram)

    def _on_dgram(self, pkt) -> None:
        self.received += 1
        pkt.release()


def build_burst_flood(n_senders: int = 4, burst: int = 32,
                      interval_ps: int = 40 * US, nbytes: int = 1400,
                      seed: int = 3,
                      link_bw_bps: float = 10 * GBPS,
                      link_latency_ps: int = 1 * US) -> System:
    """Star of paired senders/sinks exchanging back-to-back UDP bursts.

    Each sender targets its own sink, so per-pair offered load stays just
    under line rate and the switch egress queues hold sustained runs —
    the best case for the batched drain and the shape the ≥2x
    batched-vs-per-packet acceptance criterion is measured on.
    """
    system = System(seed=seed)
    system.switch("tor")
    for i in range(n_senders):
        src, dst = f"src{i}", f"dst{i}"
        system.host(src)
        system.host(dst)
        system.link(src, "tor", link_bw_bps, link_latency_ps)
        system.link(dst, "tor", link_bw_bps, link_latency_ps)
        addr = system.addr_of(dst)
        system.app(dst, lambda h: BurstSink())
        system.app(src, lambda h, a=addr: BurstSource(
            a, burst=burst, interval_ps=interval_ps, nbytes=nbytes))
    return system


def build_fluid_longflows(k: int = 15, pairs: int = 2,
                          seed: int = 31,
                          total_bytes: int = 512 * 1024 * 1024) -> System:
    """Dumbbell of long-lived DCTCP bulk flows (the fluid-tier workload).

    The same shape as the fig6 threshold study: ``pairs`` large finite
    DCTCP transfers sharing one ECN-marking bottleneck.  Each sender
    queues its whole transfer up front (``send()`` once), so the flows
    are never application-limited — the refill-paced unlimited mode lets
    cwnd balloon while idle and then bursts the full window, wedging the
    packet-level oracle in RTO recovery.  Starts are staggered by 500us
    so slow-start overshoot is not synchronized.  Run packet-level this
    is dominated by per-packet events; run fluid it needs only
    rate-update ticks — the workload behind the ≥10x events criterion.
    """
    system = System.from_topospec(
        dumbbell(pairs=pairs, ecn_threshold_pkts=k), seed=seed)
    for i in range(pairs):
        dst = system.addr_of(f"rcv{i}")
        system.app(f"rcv{i}", lambda h: BulkSink(variant="dctcp"))
        system.app(f"snd{i}", lambda h, a=dst, d=i * 500 * US: BulkSender(
            a, total_bytes=total_bytes, variant="dctcp", start_delay_ps=d))
    return system


# -- mixed workload (determinism guard + overhead guards) ---------------------

def build_mixed_system(seed: int = 11) -> System:
    """UDP KV + TCP bulk + one detailed host: the determinism-guard workload.

    The TCP flow exercises RTO arm/cancel churn; the KV traffic exercises
    the UDP fast path; the detailed (qemu) host exercises the host-simulator
    and driver channels.  Built identically for fast and strict runs.
    """
    system = System(seed=seed)
    system.switch("tor")
    system.host("server", simulator="qemu")
    system.host("kvclient")
    system.host("bulksrc")
    system.host("bulkdst")
    for name in ("server", "kvclient", "bulksrc", "bulkdst"):
        system.link(name, "tor", 10 * GBPS, 1 * US)
    system.app("server", lambda h: KVServerApp())
    addr = system.addr_of("server")
    system.app("kvclient",
               lambda h: KVClientApp([addr], closed_loop_window=4))
    dst_addr = system.addr_of("bulkdst")
    system.app("bulkdst", lambda h: BulkSink())
    system.app("bulksrc",
               lambda h: BulkSender(dst_addr, total_bytes=256 * 1024))
    return system


# -- run helpers ---------------------------------------------------------------

def run_system(system: System, duration_ps: int, mode: str,
               fidelity=None) -> Tuple[object, Dict[str, int]]:
    """Instantiate and run a :class:`System`; returns (stats, counters)."""
    from ..orchestration.instantiate import Instantiation
    exp = Instantiation(system, mode=mode, fidelity=fidelity).build()
    result = exp.run(duration_ps)
    packets = sum(net.total_tx_packets() for net in exp.network_components())
    counters = {"packets": packets}
    for net in exp.network_components():
        if net.fluid is not None:
            fstats = net.fluid.stats()
            counters["fluid_promoted"] = (
                counters.get("fluid_promoted", 0) + fstats["promoted"])
            counters["fluid_bytes_modeled"] = (
                counters.get("fluid_bytes_modeled", 0)
                + fstats["bytes_modeled"])
    return result.stats, counters
