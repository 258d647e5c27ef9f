"""Where the profiler's epoch rows come from.

The counters themselves live on :class:`~repro.channels.channel.ChannelEnd`
(updated by the channel code and the runners); the profiler's record is
the epoch-timeline row (:class:`~repro.obs.timeline.EpochRow`), sampled by
the timeline's recorder (``Instantiation(timeline=True)``, in process or
under ``run_mp``).

Two converters render other sources as the same rows, so post-processing
and WTPG generation are one code path for every view:
:func:`rows_from_trace` (the ``comp|`` / ``chan|`` counter tracks of a
Chrome trace) and :func:`rows_from_model` (a virtual-time
:class:`~repro.parallel.model.ModelResult`).
"""

from __future__ import annotations

from typing import Dict, List

from ..obs.timeline import EpochRow, counter_state, epoch_row, state_delta
from ..parallel.model import ModelResult


def rows_from_trace(doc: dict) -> List[EpochRow]:
    """Difference a trace's cumulative counter tracks into epoch rows.

    :func:`repro.obs.install.sample_counter_tracks` writes one
    ``comp|<comp>`` sample and then one ``chan|<comp>|<end>|<peer>`` sample
    per channel end: each such group is a snapshot of the component, and
    consecutive snapshots make one row — the timeline probe's arithmetic.
    ``wall_s`` counts in the trace's clock (simulated time in process,
    wall clock in mp) from the component's first sample; a trace has no
    separate simulated-time column, so ``sim_ps`` is 0.
    """
    samples: Dict[str, list] = {}
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") != "C":
            continue
        kind, _, key = ev.get("name", "").partition("|")
        args = ev.get("args") or {}
        if kind == "comp":
            samples.setdefault(key, []).append((ev["ts"], args, []))
        elif kind == "chan" and key.count("|") == 2:
            comp, _, peer = key.split("|")
            if samples.get(comp):
                samples[comp][-1][2].append((peer, args))
    rows = []
    for comp, series in samples.items():
        t0 = series[0][0]
        states = [(ts, counter_state(args.get("events", 0),
                                     args.get("work_cycles", 0.0), ends))
                  for ts, args, ends in series]
        for epoch, ((_, prev), (ts, cur)) in enumerate(zip(states,
                                                           states[1:])):
            rows.append(epoch_row(comp, epoch, (ts - t0) / 1e6,
                                  state_delta(prev, cur, 0)))
    return rows


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
