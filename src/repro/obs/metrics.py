"""Metrics registry: one snapshot API over the simulator's counters.

Before this module, run statistics were scattered: :class:`SimStats` fields,
``ChannelEnd`` raw counters, per-queue :class:`QueueStats`, per-link tx
totals.  The registry unifies them behind three primitives —
:class:`Counter` (monotonic), :class:`Gauge` (point-in-time) and
:class:`Histogram` (exponential buckets) — with one naming convention::

    subsystem.component.metric          # e.g. kernel.queue.executed
                                        #      channel.server.nic.pci.tx_msgs
                                        #      netsim.net.link.tor->server.drops

:func:`collect_simulation` walks a finished (or live) simulation and fills a
registry from every layer; ``splitsim-run --stats-json`` consumes
:meth:`MetricsRegistry.snapshot` directly, and
``splitsim-inspect`` reuses :class:`Histogram` for its per-edge wait
histograms.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from . import names

#: Schema version of the snapshot document
#: (re-exported from the central registry in :mod:`repro.obs.schema`).
from .schema import METRICS_SCHEMA


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value (queue depth, occupancy, rate)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Exponential-bucket histogram (base-``factor`` from ``start``).

    Bucket ``i`` counts observations ``<= start * factor**i``; one overflow
    bucket catches the rest.  Tracks count/sum/max for summary statistics.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "max")

    def __init__(self, name: str, start: float = 1.0, factor: float = 2.0,
                 buckets: int = 24) -> None:
        if start <= 0 or factor <= 1.0 or buckets <= 0:
            raise ValueError("need start > 0, factor > 1, buckets > 0")
        self.name = name
        self.bounds: List[float] = [start * factor ** i for i in range(buckets)]
        self.counts: List[int] = [0] * (buckets + 1)  # + overflow
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: upper bound of the bucket holding rank q.

        ``q=0`` maps to rank 1 (the first occupied bucket, i.e. the
        minimum observation's bound), not to the histogram's lowest bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1.0, q * self.count)
        seen = 0
        for i, c in enumerate(self.counts[:-1]):
            seen += c
            if seen >= rank:
                return self.bounds[i]
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "sum": self.sum, "max": self.max,
                "mean": self.mean,
                "buckets": {f"{b:g}": c for b, c in
                            zip(self.bounds, self.counts) if c},
                "overflow": self.counts[-1]}


class MetricsRegistry:
    """Flat namespace of metrics, snapshot-able as one JSON document."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls, **kwargs):
        m = self._metrics.get(name)
        if m is None:
            m = cls(name, **kwargs)
            self._metrics[name] = m
        elif not isinstance(m, cls):
            raise TypeError(f"{name} already registered as {type(m).__name__}")
        return m

    def counter(self, name: str) -> Counter:
        """Get or create a monotonic counter."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self._get(name, Gauge)

    def histogram(self, name: str, start: float = 1.0, factor: float = 2.0,
                  buckets: int = 24) -> Histogram:
        """Get or create an exponential-bucket histogram."""
        return self._get(name, Histogram, start=start, factor=factor,
                         buckets=buckets)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def value(self, name: str):
        """Scalar value (or histogram dict) of one metric."""
        m = self._metrics[name]
        return m.to_dict() if isinstance(m, Histogram) else m.value

    def snapshot(self) -> Dict[str, Any]:
        """The unified snapshot document (stable interface; versioned)."""
        return {"schema": METRICS_SCHEMA,
                "metrics": {name: self.value(name)
                            for name in self.names()}}


# -- collection from the running system --------------------------------------

def collect_simulation(sim, stats=None,
                       registry: Optional[MetricsRegistry] = None
                       ) -> MetricsRegistry:
    """Fill a registry from every layer of a :class:`Simulation`.

    Unifies the previously ad-hoc counters: event-queue health (``kernel.*``),
    per-component progress (``component.*``), channel-end sync/profiler
    counters (``channel.*``) and network link/queue stats (``netsim.*``).
    ``stats`` (a :class:`SimStats`) adds run-level throughput when given.
    """
    reg = registry if registry is not None else MetricsRegistry()

    # kernel: aggregate queue health over all (possibly shared) queues
    queues = {id(c.queue): c.queue for c in sim.components}
    for key in names.KERNEL_QUEUE_KEYS:
        total = sum(q.stats()[key] for q in queues.values())
        reg.counter(names.kernel_queue(key)).value = float(total)

    for comp in sim.components:
        reg.counter(names.component(comp.name, "events")).value = \
            float(comp.events_processed)
        reg.counter(names.component(comp.name, "work_cycles")).value = \
            float(comp.work_cycles)
        reg.gauge(names.component(comp.name,
                                  names.COMPONENT_SIM_PS)).set(float(comp.now))
        for end in comp.ends:
            for k, v in end.counters().items():
                reg.counter(names.channel(comp.name, end.name,
                                          k)).value = float(v)
        # network partitions expose link/queue statistics
        links = getattr(comp, "links", None)
        if links is not None:
            _collect_network(reg, comp)

    if stats is not None:
        reg.gauge(names.run("events_per_sec")).set(stats.events_per_second)
        reg.counter(names.run("events")).value = float(stats.events)
        reg.gauge(names.run("wall_seconds")).set(stats.wall_seconds)
        reg.gauge(names.run("sim_ps")).set(float(stats.sim_time_ps))
    return reg


def _collect_network(reg: MetricsRegistry, net) -> None:
    name = net.name
    reg.counter(names.netsim(name, "tx_packets")).value = \
        float(net.total_tx_packets())
    bstats = net.batch_stats()
    if bstats["runs"]:
        for key in names.BATCH_COUNTER_KEYS:
            reg.counter(names.netsim_batch(name, key)).value = \
                float(bstats[key])
        for key in names.BATCH_GAUGE_KEYS:
            reg.gauge(names.netsim_batch(name, key)).set(float(bstats[key]))
    if net.fluid is not None:
        fstats = net.fluid.stats()
        for key in names.FLUID_COUNTER_KEYS:
            reg.counter(names.netsim_fluid(name, key)).value = \
                float(fstats[key])
        for key in names.FLUID_GAUGE_KEYS:
            reg.gauge(names.netsim_fluid(name, key)).set(float(fstats[key]))
    for link in net.links:
        for direction, a, b in ((link.dir_ab, link.port_a, link.port_b),
                                (link.dir_ba, link.port_b, link.port_a)):
            label = f"{a.node.name}->{b.node.name}"
            _collect_direction(reg, names.netsim(name, f"link.{label}"),
                               direction)
    for label, att in net.externals.items():
        _collect_direction(reg, names.netsim(name, f"ext.{label}"),
                           att.ext.direction)
        reg.counter(names.netsim_ext(name, label, "rx_packets")).value = \
            float(att.rx_packets)


def _collect_direction(reg: MetricsRegistry, base: str, direction) -> None:
    reg.counter(f"{base}.tx_packets").value = float(direction.tx_packets)
    reg.counter(f"{base}.tx_bytes").value = float(direction.tx_bytes)
    qs = direction.queue.stats
    reg.counter(f"{base}.drops").value = float(qs.dropped)
    reg.counter(f"{base}.ecn_marked").value = float(qs.ecn_marked)
    reg.gauge(f"{base}.max_depth_pkts").set(float(qs.max_depth_pkts))
    reg.gauge(f"{base}.max_depth_bytes").set(float(qs.max_depth_bytes))


def _fill_transport(reg: MetricsRegistry, base: str,
                    transport: dict) -> None:
    """Shared shm-transport counter mapping (``transport.<comp>.*``)."""
    for key in names.TRANSPORT_COUNTER_KEYS:
        if key in transport:
            reg.counter(f"{base}.{key}").value = float(transport[key])
    if names.TRANSPORT_FRAMES_PER_BATCH in transport:
        reg.gauge(f"{base}.{names.TRANSPORT_FRAMES_PER_BATCH}").set(
            float(transport[names.TRANSPORT_FRAMES_PER_BATCH]))
    wire = transport.get("wire") or {}
    for key in names.WIRE_FALLBACK_KEYS:
        if key in wire:
            reg.counter(f"{base}.{key}").value = float(wire[key])


def collect_mp_transport(results,
                         registry: Optional[MetricsRegistry] = None
                         ) -> MetricsRegistry:
    """Registry over a multiprocess run's per-component transport counters.

    ``results`` is the ``{name: ProcResult}`` mapping returned by
    :class:`~repro.parallel.procrunner.ProcessRunner`.  Exposes the shm
    fast-path health numbers — frames per cursor publish, bytes moved, and
    how often the wire codec fell back to pickle — under
    ``transport.<component>.*``.
    """
    reg = registry if registry is not None else MetricsRegistry()
    for name, res in sorted(results.items()):
        transport = getattr(res, "transport", None) or {}
        base = f"{names.TRANSPORT_PREFIX}.{name}"
        _fill_transport(reg, base, transport)
        if res.wall_seconds > 0 and "bytes_out" in transport:
            reg.gauge(names.transport(name, "bytes_per_sec")).set(
                transport["bytes_out"] / res.wall_seconds)
    return reg


def collect_live_children(payloads: Dict[str, dict],
                          registry: Optional[MetricsRegistry] = None
                          ) -> MetricsRegistry:
    """Registry over live child snapshots from the control plane.

    ``payloads`` maps component name to the mailbox ``metrics`` reply:
    ``commit_ps``, ``events``, ``work_cycles``, per-end counter dicts
    under ``ends``, and optionally ``transport``.  Mirrors the
    :func:`collect_simulation` namespace (``component.*``, ``channel.*``)
    plus :func:`collect_mp_transport`'s ``transport.*``, so one consumer
    reads post-hoc and live snapshots identically.
    """
    reg = registry if registry is not None else MetricsRegistry()
    for name, p in sorted(payloads.items()):
        reg.counter(names.component(name, "events")).value = \
            float(p.get("events", 0))
        reg.counter(names.component(name, "work_cycles")).value = \
            float(p.get("work_cycles", 0))
        reg.gauge(names.component(name, names.COMPONENT_SIM_PS)).set(
            float(p.get("commit_ps", 0)))
        for end_name, counters in sorted((p.get("ends") or {}).items()):
            for k, v in counters.items():
                reg.counter(names.channel(name, end_name,
                                          k)).value = float(v)
        transport = p.get("transport")
        if transport:
            _fill_transport(reg, f"{names.TRANSPORT_PREFIX}.{name}",
                            transport)
    return reg


def collect_experiment(exp, stats=None) -> MetricsRegistry:
    """Registry over a built :class:`Experiment` (simulation + app layer)."""
    reg = collect_simulation(exp.sim, stats=stats)
    for name in exp.system.hosts:
        for i, app in enumerate(exp.apps_of(name)):
            app_stats = getattr(app, "stats", None)
            if app_stats is not None and hasattr(app_stats, "completed"):
                reg.counter(names.app(name, i, "completed")).value = \
                    float(app_stats.completed)
                reg.gauge(names.app(name, i, "mean_latency_ps")).set(
                    float(app_stats.mean_latency()))
            delivered = getattr(app, "delivered", None)
            if delivered is not None:
                reg.counter(names.app(name, i, "delivered_bytes")).value = \
                    float(delivered)
    return reg
