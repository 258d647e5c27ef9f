"""Fluid flow-level fidelity tier: rate-space DCTCP without per-packet events.

The packet tier spends multiple kernel events per segment; a long-lived bulk
flow in steady state generates millions of them while its behavior is
captured by a handful of slowly-varying quantities (window, RTT, bottleneck
queue).  This module advances such flows *in rate space*: each
:class:`FluidFlow` carries a continuous congestion window ``w`` and each
:class:`FluidLink` a continuous queue occupancy ``q``; one discrete
rate-update event per :data:`FLUID_DT_PS`
advances every fluid flow at once, so the event cost is per *tick*, not per
packet — the classic fluid-model decoupling (Misra/Gong/Towsley), here with
the DCTCP mark-fraction estimator of Alizadeh et al.:

* per link: ``dq/dt = arrival_rate - capacity`` (clamped at zero), marking
  while ``q`` exceeds the ECN threshold ``K`` — the step-marking DCTCP
  applies at enqueue time;
* per flow: ``rate = w / rtt`` with ``rtt = base_rtt + sum(q_l / cap_l)``;
  once per RTT the mark-time fraction updates ``alpha`` (gain 1/16) and the
  window: ``w *= 1 - alpha/2`` on a marked window, else ``w += MSS``.

**Handoff** is the fidelity boundary.  A flow starts packet-level (connection
setup, slow start, short flows never promote); once
:meth:`FluidDomain.consider` finds it eligible — DCTCP, established, past
:data:`PROMOTE_BYTES`, both endpoints protocol hosts in this partition, a
single-path ECN-enabled route — the sender stops emitting segments and the
flow's delivered edge advances analytically.  In-flight segments drain at
packet level; the fluid edge starts at ``snd_nxt``, so every byte is counted
exactly once (late packet-level deliveries land below the edge and are
ignored by the receiver's cumulative logic).  When the remaining backlog
drops to :data:`DEMOTE_RESIDUAL_BYTES` the flow *demotes*: the sender's
``cwnd``/``ssthresh``/``alpha`` are restored from the fluid state and the
ordinary packet path finishes the transfer (including FIN teardown), so
connection semantics stay exact at the edges.

Cost model: each tick charges ``FLUID_UPDATE_CYCLES +
FLUID_FLOW_CYCLES * n_flows`` modeled host cycles, replacing the per-event
cost of every packet the tier did not simulate.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..kernel.simtime import SEC, US
from ..obs.flows import _ACTIVE as _FLOWS
from ..parallel.costmodel import FLUID_FLOW_CYCLES, FLUID_UPDATE_CYCLES
from .node import NetHost
from .packet import HEADER_BYTES
from .switch import Switch
from .transport.tcp import DCTCP_G, MSS

#: Wire size of a full data segment (TCP header model adds 14 bytes of
#: framing on top of the common header, see ``TcpConnection._emit``).
SEG_WIRE_BYTES = MSS + HEADER_BYTES + 14

#: Wire size of a pure ACK.
ACK_WIRE_BYTES = HEADER_BYTES + 14

#: Hop bound for path resolution (guards against FIB loops).
MAX_PATH_HOPS = 64

#: Rate-update tick interval (well under the fig6 RTTs, so the
#: discretization error stays small against the packet oracle).
FLUID_DT_PS = 20 * US

#: A flow becomes promotion-eligible only after this many bytes have been
#: cumulatively acknowledged at packet level (so slow start and short RPCs
#: stay packet-accurate).
PROMOTE_BYTES = 64 * 1024

#: A fluid flow is handed back to the packet tier when no more than this
#: many bytes remain, so connection teardown (FIN exchange) is always
#: packet-level.
DEMOTE_RESIDUAL_BYTES = 64 * 1024


class FluidLink:
    """Fluid state shared by all fluid flows crossing one link direction."""

    __slots__ = ("direction", "cap", "mark_bytes", "q", "marked",
                 "arrival", "refs")

    def __init__(self, direction) -> None:
        self.direction = direction
        #: capacity in wire bytes per second
        self.cap = direction.bandwidth_bps / 8.0
        k = direction.queue.ecn_threshold_pkts
        #: ECN threshold K converted to bytes of full segments
        self.mark_bytes = None if k is None else float(k * SEG_WIRE_BYTES)
        self.q = 0.0
        self.marked = False
        self.arrival = 0.0
        self.refs = 0


class FluidFlow:
    """One promoted connection advancing in rate space."""

    __slots__ = ("tx", "rx", "path", "w", "alpha", "base_rtt_ps", "rtt_ps",
                 "rate_wire", "edge", "carry", "marked_ps", "window_ps",
                 "window_end_ps", "trace_flow", "promoted_at")

    def __init__(self, tx, rx, path: List[FluidLink], base_rtt_ps: int,
                 now: int) -> None:
        self.tx = tx
        self.rx = rx
        self.path = path
        #: continuous congestion window, sequence-space bytes
        self.w = float(max(tx.cwnd, 2 * MSS))
        self.alpha = tx.dctcp_alpha
        self.base_rtt_ps = base_rtt_ps
        self.rtt_ps = float(base_rtt_ps)
        #: offered rate in wire bytes/sec (recomputed every tick)
        self.rate_wire = 0.0
        #: cumulative delivered sequence edge (== snd_una == rcv_nxt)
        self.edge = tx.snd_nxt
        self.carry = 0.0
        self.marked_ps = 0.0
        self.window_ps = 0.0
        self.window_end_ps = now + base_rtt_ps
        self.trace_flow = 0
        self.promoted_at = now


class FluidDomain:
    """The fluid tier of one network partition.

    Owns every promoted flow and the fluid state of the links they cross;
    advances them all in one rate-update tick.  Installed by
    :meth:`FidelityConfig.apply` via :meth:`install`; reachable as
    ``net.fluid`` and, from transport stacks, as ``stack.fluid_ctl``.
    """

    def __init__(self, net, cfg) -> None:
        self.net = net
        self.cfg = cfg
        self.flows: List[FluidFlow] = []
        self.links: Dict[int, FluidLink] = {}  # id(direction) -> state
        self.promoted = 0
        self.demoted = 0
        self.rejected = 0
        self.updates = 0
        self.bytes_modeled = 0
        #: ``(tracer, tid)`` when the observability layer is attached
        self.obs: Optional[tuple] = None
        self._ticking = False

    @classmethod
    def install(cls, net, cfg) -> "FluidDomain":
        """Create the domain for ``net`` and wire it into every host stack."""
        domain = cls(net, cfg)
        net.fluid = domain
        for node in net.nodes.values():
            if isinstance(node, NetHost):
                node.stack.fluid_ctl = domain
        return domain

    # ------------------------------------------------------------ promotion

    def consider(self, conn) -> bool:
        """Promote ``conn`` to the fluid tier if it is eligible.

        Called by the sender's ACK path once per cumulative-ACK advance.
        Cheap disqualifiers (young flow, wrong variant, recovery) return
        early; structural rejects (unresolvable path, off-partition peer)
        are memoized on the connection so the path walk runs once.
        """
        # fin_sent alone does not disqualify: a closed-after-send bulk
        # transfer still has its whole backlog ahead, and the backlog check
        # guarantees the FIN exchange itself happens after demotion.
        if (conn.variant != "dctcp" or conn.state != "established"
                or conn.in_recovery or conn.srtt is None
                or conn.snd_una < PROMOTE_BYTES
                or conn.app_limit - conn.snd_nxt <= DEMOTE_RESIDUAL_BYTES
                or getattr(conn, "_fluid_rejected", False)):
            return False
        tx_host = conn.stack.env
        if not isinstance(tx_host, NetHost) or tx_host.net is not self.net:
            conn._fluid_rejected = True
            self.rejected += 1
            return False
        rx_host = self.net.hosts_by_addr.get(conn.peer)
        if rx_host is None:
            conn._fluid_rejected = True
            self.rejected += 1
            return False
        rx_conn = rx_host.stack._tcp.get(
            (conn.stack.addr, conn.local_port, conn.peer_port))
        if (rx_conn is None or rx_conn.state != "established"
                or rx_conn.fluid_mode):
            return False
        resolved = self._resolve_path(tx_host, conn.peer)
        if resolved is None:
            conn._fluid_rejected = True
            self.rejected += 1
            return False
        path, base_rtt_ps = resolved
        self._promote(conn, rx_conn, path, base_rtt_ps)
        return True

    def _resolve_path(self, tx_host: NetHost, dst_addr: int):
        """Walk the FIB from sender to receiver; fluid-eligible paths only.

        Returns ``(fluid_links, base_rtt_ps)`` or ``None``.  Eligible means:
        every hop is an internal link (no external attachments), every
        switch is non-pipelined with a single-port FIB entry for the
        destination (no ECMP — fluid models one path), at least one egress
        queue on the path has an ECN threshold (marking is the model's only
        feedback; fluid does not model drops), and every direction label
        passes ``cfg.fluid_links``.
        """
        allow = self.cfg.fluid_links
        path: List[FluidLink] = []
        base_rtt = 0
        marking = False
        node = tx_host
        port = node.ports[0] if node.ports else None
        for _ in range(MAX_PATH_HOPS):
            if port is None or port.egress is None or port.peer is None:
                return None  # unlinked or external
            direction = port.egress
            if direction.queue.ecn_threshold_pkts is not None:
                marking = True
            if allow is not None and not allow(direction.label):
                return None
            # forward data serialization + both-way propagation + the
            # symmetric reverse direction carrying the ACK stream
            base_rtt += 2 * direction.latency_ps
            base_rtt += -(-SEG_WIRE_BYTES * 8 * SEC // int(direction.bandwidth_bps))
            base_rtt += -(-ACK_WIRE_BYTES * 8 * SEC // int(direction.bandwidth_bps))
            path.append(self._fluid_link(direction))
            nxt = port.peer.node
            if isinstance(nxt, NetHost):
                if nxt.addr == dst_addr and marking:
                    return path, base_rtt
                return None
            if not isinstance(nxt, Switch) or nxt.pipeline is not None:
                return None
            base_rtt += 2 * nxt.proc_delay_ps
            ports = nxt.fib.get(dst_addr)
            if not ports or len(ports) != 1:
                return None  # no route, or ECMP
            port = ports[0]
        return None

    def _fluid_link(self, direction) -> FluidLink:
        fl = self.links.get(id(direction))
        if fl is None:
            fl = FluidLink(direction)
            self.links[id(direction)] = fl
        return fl

    def _promote(self, conn, rx_conn, path: List[FluidLink],
                 base_rtt_ps: int) -> None:
        now = self.net.now
        flow = FluidFlow(conn, rx_conn, path, base_rtt_ps, now)
        for fl in path:
            fl.refs += 1
        conn.fluid_mode = True
        conn.fluid_flow = flow
        rx_conn.fluid_mode = True
        rx_conn.fluid_flow = flow
        self.flows.append(flow)
        self.promoted += 1
        rec = _FLOWS[0]
        if rec is not None:
            f = rec.new_flow(conn.stack.addr)
            if rec.sampled(f):
                flow.trace_flow = f
                rec.hop(f, "promote", self.net.name, now,
                        at=f"{conn.stack.addr}->{conn.peer}")
        if not self._ticking:
            self._ticking = True
            self.net.call_after(FLUID_DT_PS, self._tick)

    # ------------------------------------------------------------- dynamics

    def _tick(self) -> None:
        """One rate-update: advance every fluid flow by :data:`FLUID_DT_PS`."""
        flows = self.flows
        if not flows:
            self._ticking = False
            return
        net = self.net
        now = net.now
        dt = FLUID_DT_PS
        self.updates += 1
        net.add_work(FLUID_UPDATE_CYCLES + FLUID_FLOW_CYCLES * len(flows))

        # offered rates against current queues
        touched: List[FluidLink] = []
        for flow in flows:
            rtt = float(flow.base_rtt_ps)
            for fl in flow.path:
                rtt += fl.q * SEC / fl.cap
            flow.rtt_ps = rtt
            # w is sequence-space; scale to wire bytes for link arrival
            flow.rate_wire = (flow.w * (SEG_WIRE_BYTES / MSS)) * SEC / rtt
            for fl in flow.path:
                if fl.arrival == 0.0:
                    touched.append(fl)
                fl.arrival += flow.rate_wire

        # queue evolution + step marking
        for fl in touched:
            fl.q += (fl.arrival - fl.cap) * dt / SEC
            if fl.q < 0.0:
                fl.q = 0.0
            fl.arrival = 0.0
            fl.marked = fl.mark_bytes is not None and fl.q > fl.mark_bytes

        # per-flow window dynamics + delivered-edge advance
        finished: List[FluidFlow] = []
        for flow in flows:
            marked = False
            for fl in flow.path:
                if fl.marked:
                    marked = True
                    break
            flow.window_ps += dt
            if marked:
                flow.marked_ps += dt
            if now >= flow.window_end_ps and flow.window_ps > 0:
                frac = flow.marked_ps / flow.window_ps
                flow.alpha = (1.0 - DCTCP_G) * flow.alpha + DCTCP_G * frac
                if frac > 0.0:
                    flow.w = max(2.0 * MSS, flow.w * (1.0 - flow.alpha / 2.0))
                else:
                    flow.w += MSS
                flow.marked_ps = 0.0
                flow.window_ps = 0.0
                flow.window_end_ps = now + flow.rtt_ps
            tx = flow.tx
            seq_rate = flow.rate_wire * (MSS / SEG_WIRE_BYTES)
            adv = seq_rate * dt / SEC + flow.carry
            backlog = tx.app_limit - flow.edge
            if adv > backlog:
                adv = float(backlog)
            whole = int(adv)
            flow.carry = adv - whole
            if whole > 0:
                flow.edge += whole
                self.bytes_modeled += whole
                self._apply_edge(flow)
            if tx.app_limit - flow.edge <= DEMOTE_RESIDUAL_BYTES:
                finished.append(flow)

        for flow in finished:
            self._demote(flow)
        if self.obs is not None and not self.updates & 63:
            tracer, tid = self.obs
            tracer.counter(tid, "netsim", f"fluid|{net.name}",
                           now / 1_000_000,
                           {"flows": len(self.flows),
                            "promoted": self.promoted,
                            "demoted": self.demoted,
                            "bytes_modeled": self.bytes_modeled})
        if self.flows:
            net.call_after(dt, self._tick)
        else:
            self._ticking = False

    def _apply_edge(self, flow: FluidFlow) -> None:
        """Reflect the fluid delivered edge into both endpoint connections.

        Keeps ``snd_una == snd_nxt == rcv_nxt == edge`` so every packet-level
        mechanism observes a fully-acknowledged stream: late drain ACKs hit
        the zero-flight fast path, the RTO has nothing outstanding, and the
        application-side refill/delivery callbacks see ordinary progress.
        """
        tx = flow.tx
        rx = flow.rx
        edge = flow.edge
        tx.snd_una = edge
        tx.snd_nxt = edge
        tx.dup_acks = 0
        tx._cancel_rto()
        if edge > rx.rcv_nxt:
            rx.delivered_bytes += edge - rx.rcv_nxt
            rx.rcv_nxt = edge
            if rx.on_delivered is not None:
                rx.on_delivered(rx.delivered_bytes)

    # ------------------------------------------------------------- demotion

    def _demote(self, flow: FluidFlow) -> None:
        """Hand the flow back to the packet tier with congestion state."""
        tx = flow.tx
        rx = flow.rx
        tx.fluid_mode = False
        tx.fluid_flow = None
        rx.fluid_mode = False
        rx.fluid_flow = None
        tx.cwnd = max(2 * MSS, int(flow.w))
        tx.ssthresh = max(tx.cwnd, 2 * MSS)
        tx.dctcp_alpha = flow.alpha
        tx._dctcp_bytes_acked = 0
        tx._dctcp_bytes_marked = 0
        tx._dctcp_window_end = tx.snd_nxt
        tx.in_recovery = False
        tx.dup_acks = 0
        # drop reassembly state the edge advance has subsumed
        stale = [s for s, ln in rx._ooo.items() if s + ln <= rx.rcv_nxt]
        for s in stale:
            del rx._ooo[s]
        for fl in flow.path:
            fl.refs -= 1
        self.flows.remove(flow)
        self.demoted += 1
        rec = _FLOWS[0]
        if rec is not None and flow.trace_flow:
            rec.hop(flow.trace_flow, "demote", self.net.name, self.net.now,
                    at=f"{tx.stack.addr}->{tx.peer}")
        tx._try_send()  # resume at packet level (re-arms the RTO)

    # ------------------------------------------------------------- inspect

    def stats(self) -> dict:
        """Counter snapshot (metrics registry / ``splitsim-inspect``)."""
        return {
            "active": len(self.flows),
            "promoted": self.promoted,
            "demoted": self.demoted,
            "rejected": self.rejected,
            "updates": self.updates,
            "bytes_modeled": self.bytes_modeled,
        }
