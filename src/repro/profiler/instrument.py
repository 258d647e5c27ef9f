"""Where the profiler's epoch rows come from.

The counters themselves live on :class:`~repro.channels.channel.ChannelEnd`
(updated by the channel code and the runners); the profiler's record is
the epoch-timeline row (:class:`~repro.obs.timeline.EpochRow`), sampled by
the timeline's recorder (``Instantiation(timeline=True)``, in process or
under ``run_mp``).

One converter renders another source as the same rows, so
post-processing and WTPG generation are one code path for every view:
:func:`rows_from_model` (a virtual-time
:class:`~repro.parallel.model.ModelResult`).
"""

from __future__ import annotations

from typing import Dict, List

from ..obs.timeline import EpochRow
from ..parallel.model import ModelResult


def rows_from_model(result: ModelResult) -> List[EpochRow]:
    """Render a modeled parallel execution as one row per process.

    A row carries the process's modeled totals over the whole run
    (``wall_s`` is the modeled makespan).  Its edge waits name every
    process it shares a waiting edge with, in either direction; a process
    that shares none has no edges.
    """
    peers: Dict[str, set] = {name: set() for name in result.components}
    for src, dst in result.edge_wait_cycles:
        peers[src].add(dst)
        peers[dst].add(src)
    rows = []
    for name, stats in result.components.items():
        waits = {peer: result.edge_wait_cycles.get((name, peer), 0.0)
                 for peer in sorted(peers[name])}
        rows.append(EpochRow(
            comp=name, epoch=0, sim_ps=result.sim_time_ps,
            wall_s=result.wall_seconds, events=0,
            work_cycles=stats.work_cycles, wait_cycles=sum(waits.values()),
            comm_cycles=stats.comm_cycles, events_per_sec=0.0,
            edge_wait=waits))
    return rows
