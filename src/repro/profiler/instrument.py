"""Profiler instrumentation: where profiler records come from.

The counters themselves live on :class:`~repro.channels.channel.ChannelEnd`
(updated by the channel code and the runners); the profiler only
*samples* them, as one recorder of the recorder seam
(:mod:`repro.obs.recorder`):

* :class:`AdapterSampler` — the probe: every beat, one snapshot of a
  component's adapter counters (monotonic totals);
* :class:`ProfileCollector` — the collector: turns beats into a
  :class:`~repro.profiler.records.ProfileLog`.
  ``Instantiation(profile=True)`` attaches it: in process it is beaten
  every :data:`PROFILE_INTERVAL_ROUNDS` (modeled cycles); under
  ``run_mp`` the children beat it on their heartbeats (real-nanosecond
  waits next to modeled work cycles).

Two converters render other sources as the same records, so
post-processing and WTPG generation are one code path for every view:
:func:`log_from_model` (a virtual-time
:class:`~repro.parallel.model.ModelResult`) and :func:`log_from_trace`
(the ``comp|`` / ``chan|`` counter tracks of a Chrome trace).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs.recorder import Collector
from ..parallel.model import ModelResult
from .records import AdapterRecord, ProfileLog

#: The per-adapter counters of an :class:`AdapterRecord`, in field order.
ADAPTER_COUNTERS = ("wait_cycles", "tx_cycles", "rx_cycles", "tx_msgs",
                    "rx_msgs", "tx_syncs", "rx_syncs")

#: In-process sampling period in strict sync rounds.
PROFILE_INTERVAL_ROUNDS = 200


class AdapterSampler:
    """The profiler probe: one component's adapter counters per beat.

    The peer is the peer *component* (``end.peer_comp_name``), so WTPG
    nodes are simulator instances, as in the trace view.
    """

    name = "profile"

    def __init__(self, comp) -> None:
        self.comp = comp

    def beat(self, commit_ps: int) -> tuple:
        comp = self.comp
        return commit_ps, comp.work_cycles, [
            (end.name, end.peer_comp_name or end.peer_name,
             *(getattr(end, key) for key in ADAPTER_COUNTERS))
            for end in comp.ends]

    def result(self) -> None:
        """Nothing beyond the beats: the final beat closes the run."""


class ProfileCollector(Collector):
    """Assembles the probes' beats into the run's profiler log
    (``profile.jsonl``).  Record timestamps are the beats' wall clock
    since the run started."""

    name = "profile"
    probe = AdapterSampler

    def __init__(self, path: Optional[str] = None) -> None:
        super().__init__(path)
        self.log = ProfileLog()

    def note(self, comp: str, beat, payload: tuple) -> None:
        sim_ps, work, ends = payload
        tsc_ns = beat.wall_s * 1e9
        for adapter, peer, *counters in ends:
            self.log.append(AdapterRecord(comp, adapter, peer, tsc_ns,
                                          sim_ps, *counters,
                                          work_cycles=work))

    def write(self, path: str) -> None:
        self.log.save(path)


def log_from_trace(doc: dict) -> ProfileLog:
    """Read a trace's cumulative counter tracks back into profiler records.

    Every ``chan|<comp>|<end>|<peer>`` sample becomes one record, carrying
    the work cycles of the ``comp|<comp>`` sample emitted just before it
    (:func:`repro.obs.install.sample_counter_tracks` writes them together).
    A trace has no simulated-time column: ``sim_ps`` is 0.
    """
    log = ProfileLog()
    work: Dict[str, float] = {}
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") != "C":
            continue
        kind, _, key = ev.get("name", "").partition("|")
        args = ev.get("args") or {}
        if kind == "comp":
            work[key] = args.get("work_cycles", 0.0)
        elif kind == "chan" and key.count("|") == 2:
            comp, adapter, peer = key.split("|")
            log.append(AdapterRecord(
                comp, adapter, peer, ev["ts"] * 1e3, 0,
                *(args.get(k, 0) for k in ADAPTER_COUNTERS),
                work_cycles=work.get(comp, 0.0)))
    return log


def log_from_model(result: ModelResult) -> ProfileLog:
    """Render a modeled parallel execution as begin/end profiler records.

    Produces two records per component pair edge — one at time zero with
    zero counters and one at the end with the modeled totals — which is
    exactly what the post-processor needs to compute diffs.
    """
    log = ProfileLog()
    ns_per_cycle = 1e9 / result.machine.hz
    end_tsc = result.makespan_cycles * ns_per_cycle
    # Collect peers per component from the edge map (both directions).
    peers: dict[str, set] = {name: set() for name in result.components}
    for (src, dst) in result.edge_wait_cycles:
        peers.setdefault(src, set()).add(dst)
        peers.setdefault(dst, set()).add(src)
    for name, stats in result.components.items():
        plist = sorted(peers.get(name, ())) or ["<all>"]
        for peer in plist:
            wait = result.edge_wait_cycles.get((name, peer), 0.0)
            comm_share = stats.comm_cycles / len(plist)
            for tsc, sim, w, c, work in (
                (0.0, 0, 0.0, 0.0, 0.0),
                (end_tsc, result.sim_time_ps, wait, comm_share, stats.work_cycles),
            ):
                log.append(AdapterRecord(
                    comp=name,
                    adapter=f"{name}->{peer}",
                    peer=peer,
                    tsc_ns=tsc,
                    sim_ps=sim,
                    wait_cycles=w,
                    tx_cycles=c / 2,
                    rx_cycles=c / 2,
                    work_cycles=work,
                ))
    return log
