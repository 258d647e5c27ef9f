"""End-to-end causal flow tracing: per-message provenance across simulators.

The counter profiler and the WTPG say *which simulator* is the bottleneck;
this module records *where an individual request's latency went* as it
crossed host -> NIC -> links/switches -> host across component simulators.

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

The post-processor that reconstructs flows from these records
(:func:`repro.obs.inspect.flows.analyze_doc`) lives with its one caller,
the ``splitsim-inspect flows`` view, so a simulation compiles only this
recording side.
"""

from __future__ import annotations

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
