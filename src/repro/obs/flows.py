"""End-to-end causal flow tracing: per-message provenance across simulators.

The counter profiler and the WTPG say *which simulator* is the bottleneck;
this module answers *where an individual request's latency went* as it
crossed host -> NIC -> links/switches -> host across component simulators.

Recording side
--------------
A :class:`FlowRecorder` is installed process-globally (``_ACTIVE``, one
slot mutated in place so forked multiprocess children and import-time site
caches all observe the same cell).  Instrumented sites across the message
path — app send, TCP segment birth, channel send/deliver, trunk mux/demux,
link enqueue/dequeue/serialization, NIC/driver DMA legs, final delivery —
do::

    rec = _ACTIVE[0]
    if rec is not None and flow:
        rec.hop(flow, "enq", comp_name, now_ps, at=label)

so the disabled hot path costs one list subscript and an ``is None`` test.
Flow ids are allocated deterministically (origin address in the high bits,
a per-origin serial in the low 24) — no RNG, no wall clock — so tagging
cannot perturb simulated behaviour, and ids are unique across processes
because every origin address lives in exactly one process.  Sampling keeps
1-in-N flows (on the serial, so it is origin-uniform); unsampled flows pay
only the id tag and the sampling test per hop.

Each sampled hop emits one instant record (``cat="flow"``,
``name="fhop|<kind>"``) into the bounded Tracer ring, carrying exact
integer picoseconds, the emitting track, a site label, and a per-recorder
emission counter ``n`` used to order same-timestamp hops.  Alongside it a
Chrome flow event (``ph`` s/t/f, id = flow id) is emitted on the same
thread track, which Perfetto binds to the enclosing slice and renders as
arrows across pid lanes.

Analysis side
-------------
:func:`analyze_doc` reconstructs flows from a (merged, possibly
multi-process) trace document: hops are ordered globally by ``(ps, n)``
(correct across processes because crossing a process boundary always adds
positive channel latency), consecutive hop intervals are classified into
host processing / NIC / queueing / serialization / propagation, and
cumulative per-end sync-wait counters are differenced into a per-flow sync
stall attribution (wall-cycle domain, reported separately from the
simulated-time breakdown).  The per-flow category breakdown *partitions*
``[first hop, last hop]``, so it sums to the end-to-end latency exactly.
``splitsim-inspect flows`` renders top-K slowest flows, per-hop waterfalls,
and the aggregate attribution histogram from this report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Bits of the per-origin serial inside a flow id.
_SERIAL_BITS = 24
_SERIAL_MASK = (1 << _SERIAL_BITS) - 1

#: Bound on the recorder's per-flow hop-counter map.
_HOPS_MAX = 1 << 16

#: Process-global recorder slot.  Mutated in place (never rebound) so the
#: module-level caches at instrumentation sites — and forked children —
#: all see installs/uninstalls.
_ACTIVE: List[Optional["FlowRecorder"]] = [None]

#: Latency categories of the per-flow breakdown (simulated-time domain).
CATEGORIES = ("host", "nic", "queue", "serialization", "propagation")


def flow_serial(flow: int) -> int:
    """The per-origin serial encoded in a flow id."""
    return flow & _SERIAL_MASK


def flow_origin(flow: int) -> int:
    """The origin address encoded in a flow id."""
    return flow >> _SERIAL_BITS


class FlowRecorder:
    """Allocates flow ids and emits per-hop records into a Tracer ring."""

    __slots__ = ("tracer", "sample_n", "_serials", "_hops", "_tids", "_n",
                 "emitted")

    def __init__(self, tracer, sample_n: int = 1) -> None:
        if sample_n <= 0:
            raise ValueError("sample_n must be >= 1")
        self.tracer = tracer
        self.sample_n = int(sample_n)
        self._serials: Dict[int, int] = {}
        self._hops: Dict[int, int] = {}
        self._tids: Dict[str, int] = {}
        #: per-recorder emission counter; orders same-ps hops in analysis
        self._n = 0
        self.emitted = 0

    # -- identity ----------------------------------------------------------

    def new_flow(self, origin: int) -> int:
        """Allocate the next flow id for ``origin`` (deterministic)."""
        serial = self._serials.get(origin, 0)
        self._serials[origin] = serial + 1
        return (origin << _SERIAL_BITS) | (serial & _SERIAL_MASK)

    def sampled(self, flow: int) -> bool:
        """Whether this flow is in the 1-in-N sampled set."""
        return not (flow & _SERIAL_MASK) % self.sample_n

    def next_hop(self, flow: int) -> int:
        """Next channel-crossing index for ``flow`` (u16, observational)."""
        hops = self._hops
        if len(hops) >= _HOPS_MAX:
            hops.clear()
        h = hops.get(flow, 0)
        hops[flow] = h + 1
        return h & 0xFFFF

    def seed_hop(self, flow: int, nxt: int) -> None:
        """Raise the hop floor after a cross-process delivery."""
        if nxt > self._hops.get(flow, 0):
            if len(self._hops) >= _HOPS_MAX:
                self._hops.clear()
            self._hops[flow] = nxt

    # -- emission ----------------------------------------------------------

    def hop(self, flow: int, kind: str, track: str, ps: int, at: str = "",
            hop: int = -1, w: float = -1.0) -> None:
        """Record one hop of a sampled flow (no-op for unsampled flows).

        ``kind`` is the site kind (origin/send/cpu/chsend/chdeliver/demux/
        enq/deq/txdone/deliver/done/drop); ``track`` the emitting component
        (doubles as the Perfetto thread track so flow arrows bind to the
        kernel drain spans); ``ps`` exact integer picoseconds; ``at`` a
        site label (channel end, link, node); ``w`` the end's *cumulative*
        sync-wait cycles where the site has them.
        """
        if (flow & _SERIAL_MASK) % self.sample_n:
            return
        tr = self.tracer
        tid = self._tids.get(track)
        if tid is None:
            tid = self._tids[track] = tr.tid(track)
        n = self._n
        self._n = n + 1
        args: Dict[str, Any] = {"flow": flow, "n": n, "ps": ps,
                                "tk": track, "at": at}
        if hop >= 0:
            args["hop"] = hop
        if w >= 0.0:
            args["w"] = w
        ts_us = ps / 1_000_000
        tr.instant(tid, "flow", "fhop|" + kind, ts_us, args)
        ph = "s" if kind == "origin" else ("f" if kind == "done" else "t")
        tr.flow_event(ph, tid, ts_us, flow)
        self.emitted += 1


def install_flow_recorder(tracer, sample_n: int = 1) -> FlowRecorder:
    """Install a process-global flow recorder writing into ``tracer``."""
    rec = FlowRecorder(tracer, sample_n)
    _ACTIVE[0] = rec
    return rec


def uninstall_flow_recorder() -> None:
    """Disable flow recording in this process."""
    _ACTIVE[0] = None


def active_recorder() -> Optional[FlowRecorder]:
    """The installed recorder, or ``None``."""
    return _ACTIVE[0]


def retune_sample(sample_n: int) -> bool:
    """Retune origin-side 1-in-N sampling on the installed recorder.

    Returns ``False`` when no recorder is installed.  Safe mid-run: only
    sampling decisions for flows *originated after* the change are
    affected (already-tagged flows keep emitting), and sampling is
    observation-only, so retuning never perturbs simulated behaviour.
    The live control plane's ``set-flow-sample`` command calls this at a
    quiescent sync-round boundary in every child process.
    """
    if sample_n < 1:
        raise ValueError("sample_n must be >= 1")
    rec = _ACTIVE[0]
    if rec is None:
        return False
    rec.sample_n = int(sample_n)
    return True


def env_track(env) -> tuple:
    """``(component track, site label)`` for a transport environment.

    Protocol-level stacks run inside a network-simulator component
    (``NetHost.net``); detailed stacks run on a host simulator
    (``SimOS.host``).  The track is the owning *component* name so the
    Perfetto flow events land on the thread carrying that component's
    kernel drain spans; the label is the node-level detail.
    """
    net = getattr(env, "net", None)
    if net is not None:
        return net.name, getattr(env, "name", "")
    host = getattr(env, "host", None)
    if host is not None:
        return host.name, host.name
    return getattr(env, "name", "?"), ""


# -- analysis -----------------------------------------------------------------

@dataclass
class FlowHop:
    """One recorded hop of one flow (post-processed)."""

    flow: int
    kind: str
    track: str
    at: str
    ps: int
    n: int
    pid: int
    hop: int = -1
    #: cumulative sync-wait cycles of the receiving end (chdeliver sites)
    wait_cycles: float = 0.0
    #: positive per-end delta of ``wait_cycles`` (computed globally)
    sync_wait: float = 0.0
    #: latency category of the interval *ending* at this hop
    category: str = ""
    #: duration of that interval (ps); 0 for the first hop of a flow
    dur_ps: int = 0


@dataclass
class Flow:
    """A reconstructed end-to-end flow."""

    flow: int
    hops: List[FlowHop] = field(default_factory=list)

    @property
    def first(self) -> FlowHop:
        return self.hops[0]

    @property
    def last(self) -> FlowHop:
        return self.hops[-1]

    @property
    def complete(self) -> bool:
        """Origin and final-consumer records both present."""
        return (len(self.hops) >= 2 and self.hops[0].kind == "origin"
                and self.hops[-1].kind == "done")

    @property
    def end_to_end_ps(self) -> int:
        return self.last.ps - self.first.ps

    @property
    def breakdown(self) -> Dict[str, int]:
        """Simulated-time latency per category; sums to ``end_to_end_ps``."""
        out = {cat: 0 for cat in CATEGORIES}
        for h in self.hops[1:]:
            out[h.category] = out.get(h.category, 0) + h.dur_ps
        return out

    @property
    def sync_wait_cycles(self) -> float:
        """Sync-stall attribution (wall/model cycles, not simulated time)."""
        return sum(h.sync_wait for h in self.hops)

    def to_dict(self) -> dict:
        return {
            "flow": self.flow,
            "origin": flow_origin(self.flow),
            "complete": self.complete,
            "end_to_end_ps": self.end_to_end_ps,
            "breakdown_ps": self.breakdown,
            "sync_wait_cycles": self.sync_wait_cycles,
            "hops": [{"kind": h.kind, "track": h.track, "at": h.at,
                      "ps": h.ps, "dur_ps": h.dur_ps,
                      "category": h.category} for h in self.hops],
        }


def _classify(prev: FlowHop, cur: FlowHop) -> str:
    """Latency category of the interval ``prev -> cur``.

    The table keys off the hop kind (and where ambiguous, the site label):
    channel latency to a ``.pci`` end is NIC/device-interface time, link
    dequeue closes a queueing interval, ``txdone`` closes a serialization
    interval, and everything executed on a simulator's own clock between
    crossings is host (or NIC, for sends from ``.nic.`` ends) processing.
    """
    k = cur.kind
    if k == "deq":
        return "queue"
    if k == "txdone":
        return "serialization"
    if k == "chdeliver":
        return "nic" if ".pci" in cur.at else "propagation"
    if k in ("enq", "deliver"):
        return "propagation" if prev.kind == "txdone" else "host"
    if k == "chsend":
        return "nic" if ".nic." in cur.at else "host"
    return "host"


def extract_flows(doc: dict) -> Dict[int, Flow]:
    """Reconstruct flows from a trace document (single- or multi-process).

    Hops are ordered globally by ``(ps, n)``: within one process the
    recorder's emission counter ``n`` is authoritative, and hops of one
    flow recorded by *different* processes can never share a timestamp
    because crossing a process boundary adds positive channel latency.
    """
    raw: List[FlowHop] = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "i":
            continue
        name = ev.get("name", "")
        if not name.startswith("fhop|"):
            continue
        a = ev.get("args") or {}
        fid = a.get("flow")
        if fid is None:
            continue
        raw.append(FlowHop(
            flow=fid, kind=name[5:], track=a.get("tk", ""),
            at=a.get("at", ""), ps=int(a.get("ps", 0)),
            n=int(a.get("n", 0)), pid=ev.get("pid", 0),
            hop=int(a.get("hop", -1)), wait_cycles=float(a.get("w", 0.0))))
    raw.sort(key=lambda h: (h.ps, h.n))

    # Sync-wait attribution: the recorded wait counters are cumulative per
    # receiving end; walk all hops in global order and assign the positive
    # increments to the flows whose delivery observed them.
    last_wait: Dict[tuple, float] = {}
    flows: Dict[int, Flow] = {}
    for h in raw:
        if h.kind == "chdeliver":
            key = (h.pid, h.track, h.at)
            prev = last_wait.get(key, 0.0)
            if h.wait_cycles > prev:
                h.sync_wait = h.wait_cycles - prev
            last_wait[key] = max(prev, h.wait_cycles)
        flows.setdefault(h.flow, Flow(flow=h.flow)).hops.append(h)

    for fl in flows.values():
        hops = fl.hops
        for prev, cur in zip(hops, hops[1:]):
            cur.category = _classify(prev, cur)
            cur.dur_ps = cur.ps - prev.ps
    return flows


@dataclass
class FlowReport:
    """Aggregate view over the reconstructed flows of one run."""

    flows: Dict[int, Flow]

    @property
    def complete(self) -> List[Flow]:
        return [f for f in self.flows.values() if f.complete]

    def slowest(self, k: int = 5) -> List[Flow]:
        """Top-``k`` complete flows by end-to-end latency."""
        return sorted(self.complete, key=lambda f: -f.end_to_end_ps)[:k]

    def breakdown_totals(self) -> Dict[str, int]:
        """Aggregate attribution over complete flows (simulated ps)."""
        out = {cat: 0 for cat in CATEGORIES}
        for fl in self.complete:
            for cat, ps in fl.breakdown.items():
                out[cat] = out.get(cat, 0) + ps
        return out

    def sync_wait_cycles(self) -> float:
        return sum(fl.sync_wait_cycles for fl in self.complete)

    def component_time(self) -> Dict[str, float]:
        """Simulated processing time attributed per component.

        Propagation intervals belong to channels/links, not simulators,
        and are excluded; everything else lands on the track that closed
        the interval.
        """
        out: Dict[str, float] = {}
        for fl in self.complete:
            for h in fl.hops[1:]:
                if h.category != "propagation" and h.track:
                    out[h.track] = out.get(h.track, 0.0) + h.dur_ps
        return out

    def bottleneck(self) -> Optional[str]:
        """Component holding the most critical-path processing time."""
        times = self.component_time()
        if not times:
            return None
        return max(sorted(times), key=lambda c: times[c])

    def to_dict(self, top: int = 5) -> dict:
        return {
            "flows_total": len(self.flows),
            "flows_complete": len(self.complete),
            "breakdown_totals_ps": self.breakdown_totals(),
            "sync_wait_cycles": self.sync_wait_cycles(),
            "component_time_ps": self.component_time(),
            "bottleneck": self.bottleneck(),
            "slowest": [fl.to_dict() for fl in self.slowest(top)],
        }


def analyze_doc(doc: dict) -> FlowReport:
    """Full flow reconstruction + attribution for a trace document."""
    return FlowReport(flows=extract_flows(doc))
