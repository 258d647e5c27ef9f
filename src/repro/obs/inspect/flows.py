"""``splitsim-inspect flows RUN``: causal flow waterfalls.

Post-processes the causal flow-hop records of a trace (``splitsim-run
--flows N`` / ``Instantiation(flow_sample=N)``, recorded by
:mod:`repro.obs.flows`) into per-flow latency waterfalls, an aggregate
attribution histogram, and the flow-derived bottleneck.

:func:`analyze_doc` reconstructs flows from a (merged, possibly
multi-process) trace document: hops are ordered globally by ``(ps, n)``
(correct across processes because crossing a process boundary always adds
positive channel latency), consecutive hop intervals are classified into
host processing / NIC / queueing / serialization / propagation, and
cumulative per-end sync-wait counters are differenced into a per-flow sync
stall attribution (wall-cycle domain, reported separately from the
simulated-time breakdown).  The per-flow category breakdown *partitions*
``[first hop, last hop]``, so it sums to the end-to-end latency exactly.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import rundir
from ..flows import flow_origin
from .render import count, write_json

#: Latency categories of the per-flow breakdown (simulated-time domain).
CATEGORIES = ("host", "nic", "queue", "serialization", "propagation")


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


def _fmt_ps(ps: int) -> str:
    """Human-readable picosecond duration."""
    if ps >= 1_000_000_000:
        return f"{ps / 1e9:.3f}ms"
    if ps >= 1_000_000:
        return f"{ps / 1e6:.3f}us"
    if ps >= 1_000:
        return f"{ps / 1e3:.1f}ns"
    return f"{ps}ps"


def render_flow_report(rep: FlowReport, top: int = 5) -> str:
    """Text rendering: summary, attribution histogram, waterfalls."""
    lines: List[str] = []
    complete = rep.complete
    lines.append(f"flows: {len(rep.flows)} traced, {len(complete)} complete "
                 "(origin..done)")
    totals = rep.breakdown_totals()
    grand = sum(totals.values()) or 1
    lines.append("\nlatency attribution (complete flows):")
    for cat, ps in sorted(totals.items(), key=lambda kv: -kv[1]):
        frac = ps / grand
        bar = "#" * max(1, int(frac * 40)) if ps else ""
        lines.append(f"  {cat:<14} {_fmt_ps(ps):>12}  {frac:>6.1%} |{bar}")
    sync = rep.sync_wait_cycles()
    if sync:
        lines.append(f"  sync-wait      {sync:,.0f} cycles "
                     "(co-attributed, wall domain)")
    comp_time = rep.component_time()
    if comp_time:
        lines.append("\nper-component time on traced flows:")
        for comp, ps in sorted(comp_time.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {comp:<24} {_fmt_ps(ps):>12}")
        lines.append(f"  bottleneck: {rep.bottleneck()}")
    slowest = rep.slowest(top)
    if slowest:
        lines.append(f"\nslowest {len(slowest)} complete flows:")
    for fl in slowest:
        first = fl.first
        lines.append(f"\n  flow {fl.flow:#x} origin={first.track} "
                     f"end-to-end={_fmt_ps(fl.end_to_end_ps)} "
                     f"({len(fl.hops)} hops)")
        t0 = first.ps
        for hop in fl.hops:
            dur = f" (+{_fmt_ps(hop.dur_ps)} {hop.category})" \
                if hop.dur_ps else ""
            at = f" @{hop.at}" if hop.at and hop.at != hop.track else ""
            lines.append(f"    {_fmt_ps(hop.ps - t0):>12} {hop.kind:<10} "
                         f"{hop.track}{at}{dur}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsim-inspect flows",
        description="Per-flow latency waterfalls, attribution histogram, "
                    "and flow-derived bottleneck from causal hop records.")
    parser.add_argument("trace", help="Chrome-trace JSON file or run dir")
    parser.add_argument("--top", type=count, default=5,
                        help="slowest flows to show (default 5)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable flow report")
    args = parser.parse_args(argv)
    rep = analyze_doc(rundir.load_trace(args.trace))
    if not rep.flows:
        print(f"error: {args.trace} has no flow-hop records — run with "
              "flow tracing on (splitsim-run --flows N or "
              "Instantiation(flow_sample=N))",
              file=sys.stderr)
        return 1
    print(render_flow_report(rep, top=args.top))
    if args.json:
        write_json(args.json, rep.to_dict(top=args.top))
    return 0
