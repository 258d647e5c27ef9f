"""Canonical metric names: the single source of the metrics namespace.

Every metric of a :mod:`repro.obs.metrics` snapshot follows
``subsystem.component.metric``.  The string literals used to be scattered
over the emitters (``collect_simulation``/``collect_*``), the epoch
timeline, and ``splitsim-inspect``; a typo in any one of them would
silently fork the namespace.  This module centralizes the prefixes, the
per-subsystem key tuples, and tiny name-builder helpers — emitters and
consumers alike import from here, so names cannot drift.

The concrete names are a stable interface (pinned by tests and consumed by
readers of a run directory's ``stats.json``); do not rename existing keys,
only add.
"""

from __future__ import annotations

# -- subsystem prefixes -------------------------------------------------------

KERNEL_QUEUE_PREFIX = "kernel.queue"
COMPONENT_PREFIX = "component"
CHANNEL_PREFIX = "channel"
NETSIM_PREFIX = "netsim"
TRANSPORT_PREFIX = "transport"
RUN_PREFIX = "run"
APP_PREFIX = "app"

# -- per-subsystem key sets ---------------------------------------------------

#: Event-queue health counters (summed over all queues of a run).
KERNEL_QUEUE_KEYS = ("peak_heap", "allocations", "pool_reuse",
                     "cancelled_total", "postponed_total", "executed")

#: Per-component clock (next to the ``events``/``work_cycles`` counters).
COMPONENT_SIM_PS = "sim_ps"

#: Batched-drain tier counters / gauges (``netsim.<net>.batch.*``).
BATCH_COUNTER_KEYS = ("runs", "packets")
BATCH_GAUGE_KEYS = ("max_run", "pkts_per_run")

#: Fluid flow-level tier counters / gauges (``netsim.<net>.fluid.*``).
FLUID_COUNTER_KEYS = ("promoted", "demoted", "rejected", "updates",
                      "bytes_modeled")
FLUID_GAUGE_KEYS = ("active",)

#: Per-link-direction stats (``netsim.<net>.link.<label>.*``,
#: ``netsim.<net>.ext.<label>.*``).
LINK_KEYS = ("tx_packets", "tx_bytes", "drops", "ecn_marked",
             "max_depth_pkts", "max_depth_bytes")

#: Shm-transport stats (``transport.<comp>.*``): ring totals and the
#: derived ``frames_per_batch``.
TRANSPORT_KEYS = ("frames_out", "batches_out", "bytes_out", "frames_in",
                  "batches_in", "bytes_in", "frames_per_batch")

#: Wire-codec fallback counters nested under the transport stats.
WIRE_FALLBACK_KEYS = ("msg_pickle_fallbacks", "payload_pickles")


# -- name builders ------------------------------------------------------------

def kernel_queue(key: str) -> str:
    """``kernel.queue.<key>``"""
    return f"{KERNEL_QUEUE_PREFIX}.{key}"


def component(comp: str, key: str) -> str:
    """``component.<comp>.<key>``"""
    return f"{COMPONENT_PREFIX}.{comp}.{key}"


def channel(comp: str, end: str, key: str) -> str:
    """``channel.<comp>.<end>.<key>``"""
    return f"{CHANNEL_PREFIX}.{comp}.{end}.{key}"


def netsim(net: str, key: str) -> str:
    """``netsim.<net>.<key>``"""
    return f"{NETSIM_PREFIX}.{net}.{key}"


def run(key: str) -> str:
    """``run.<key>``"""
    return f"{RUN_PREFIX}.{key}"


def app(host: str, index: int, key: str) -> str:
    """``app.<host>.app<index>.<key>``"""
    return f"{APP_PREFIX}.{host}.app{index}.{key}"
