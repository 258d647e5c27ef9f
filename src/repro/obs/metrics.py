"""Metrics: one flat snapshot of the simulator's counters.

Run statistics live in every layer: :class:`SimStats` fields,
``ChannelEnd`` raw counters, per-queue :class:`QueueStats`, per-link tx
totals.  This module reads them into one flat ``{name: float}`` dict with
one naming convention (the literals live in :mod:`repro.obs.names`)::

    subsystem.component.metric          # e.g. kernel.queue.executed
                                        #      channel.server.nic.pci.tx_msgs
                                        #      netsim.net.link.tor->server.drops

:func:`component_counters` is the only reader of a component's cumulative
counters.  :func:`collect_simulation` / :func:`collect_experiment` add the
run-wide ``kernel.*``, ``run.*`` and ``app.*`` values to it and
:func:`snapshot` wraps the result as the versioned ``stats.json`` of a
run directory; an mp child's live ``metrics`` reply
(:mod:`repro.obs.live`) and its share of an mp run's ``stats.json`` are
the same walk plus :func:`transport_counters`;
an epoch-timeline beat (:mod:`repro.obs.timeline`) keeps a fixed
``netsim.*`` subset of it.  :class:`Histogram` backs ``splitsim-inspect``'s
per-edge wait histograms.
"""

from __future__ import annotations

from typing import Any, Dict, List

from . import names

#: Schema version of the snapshot document
#: (re-exported from the central registry in :mod:`repro.obs.schema`).
from .schema import METRICS_SCHEMA


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


def snapshot(metrics: Dict[str, float]) -> Dict[str, Any]:
    """The versioned snapshot document of a flat metrics dict; names are
    sorted, so the JSON never depends on collection order."""
    return {"schema": METRICS_SCHEMA, "metrics": dict(sorted(metrics.items()))}


# -- collection from the running system --------------------------------------

def component_counters(comp) -> Dict[str, float]:
    """Every cumulative counter of one live component, by metric name.

    Per-component progress (``component.*``), channel-end sync/profiler
    counters (``channel.*``) and, for a network partition, its link,
    external-attachment, batched-drain and fluid-tier stats
    (``netsim.<net>.*``).
    """
    name = comp.name
    out = {names.component(name, "events"): float(comp.events_processed),
           names.component(name, "work_cycles"): float(comp.work_cycles),
           names.component(name, names.COMPONENT_SIM_PS): float(comp.now)}
    for end in comp.ends:
        for key, value in end.counters().items():
            out[names.channel(name, end.name, key)] = float(value)
    if getattr(comp, "links", None) is not None:
        out.update(network_totals(comp))
        _link_counters(out, comp)
    return out


def network_totals(net) -> Dict[str, float]:
    """A network partition's own ``netsim.<net>.*`` totals, without the
    per-link detail: tx packets, batched-drain and fluid-tier stats."""
    name = net.name
    out = {names.netsim(name, "tx_packets"): float(net.total_tx_packets())}
    bstats = net.batch_stats()
    if bstats["runs"]:
        for key in names.BATCH_COUNTER_KEYS + names.BATCH_GAUGE_KEYS:
            out[names.netsim(name, f"batch.{key}")] = float(bstats[key])
    if net.fluid is not None:
        fstats = net.fluid.stats()
        for key in names.FLUID_COUNTER_KEYS + names.FLUID_GAUGE_KEYS:
            out[names.netsim(name, f"fluid.{key}")] = float(fstats[key])
    return out


def _link_counters(out: Dict[str, float], net) -> None:
    name = net.name
    for link in net.links:
        for direction, a, b in ((link.dir_ab, link.port_a, link.port_b),
                                (link.dir_ba, link.port_b, link.port_a)):
            label = f"{a.node.name}->{b.node.name}"
            _direction_counters(out, names.netsim(name, f"link.{label}"),
                                direction)
    for label, att in net.externals.items():
        _direction_counters(out, names.netsim(name, f"ext.{label}"),
                            att.ext.direction)
        out[names.netsim(name, f"ext.{label}.rx_packets")] = \
            float(att.rx_packets)


def _direction_counters(out: Dict[str, float], base: str,
                        direction) -> None:
    direction.count_sent(direction.net.now)
    qs = direction.queue.stats
    values = (direction.tx_packets, direction.tx_bytes, qs.dropped,
              qs.ecn_marked, qs.max_depth_pkts, qs.max_depth_bytes)
    for key, value in zip(names.LINK_KEYS, values):
        out[f"{base}.{key}"] = float(value)


def transport_counters(comp: str, transport: dict) -> Dict[str, float]:
    """An mp child's shm-transport stats as ``transport.<comp>.*``."""
    base = f"{names.TRANSPORT_PREFIX}.{comp}"
    wire = transport.get("wire") or {}
    out = {f"{base}.{key}": float(transport[key])
           for key in names.TRANSPORT_KEYS if key in transport}
    out.update((f"{base}.{key}", float(wire[key]))
               for key in names.WIRE_FALLBACK_KEYS if key in wire)
    return out


def collect_simulation(sim, stats=None) -> Dict[str, float]:
    """Every layer of a :class:`Simulation`: event-queue health
    (``kernel.*``, summed over all, possibly shared, queues) plus each
    component's :func:`component_counters`; ``stats`` (a
    :class:`SimStats`) adds run-level throughput (``run.*``)."""
    queues = {id(c.queue): c.queue for c in sim.components}
    out = {names.kernel_queue(key):
           float(sum(q.stats()[key] for q in queues.values()))
           for key in names.KERNEL_QUEUE_KEYS}
    for comp in sim.components:
        out.update(component_counters(comp))
    if stats is not None:
        out[names.run("events_per_sec")] = float(stats.events_per_second)
        out[names.run("events")] = float(stats.events)
        out[names.run("wall_seconds")] = float(stats.wall_seconds)
        out[names.run("sim_ps")] = float(stats.sim_time_ps)
    return out


def collect_experiment(exp, stats=None) -> Dict[str, float]:
    """:func:`collect_simulation` of a built :class:`Experiment` plus its
    app layer (``app.*``)."""
    out = collect_simulation(exp.sim, stats=stats)
    for name in exp.system.hosts:
        for i, app in enumerate(exp.apps_of(name)):
            app_stats = getattr(app, "stats", None)
            if app_stats is not None and hasattr(app_stats, "completed"):
                out[names.app(name, i, "completed")] = \
                    float(app_stats.completed)
                out[names.app(name, i, "mean_latency_ps")] = \
                    float(app_stats.mean_latency())
            delivered = getattr(app, "delivered", None)
            if delivered is not None:
                out[names.app(name, i, "delivered_bytes")] = float(delivered)
    return out
