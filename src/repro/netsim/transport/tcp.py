"""TCP with NewReno and DCTCP congestion control.

The implementation models the mechanisms that matter for data-center
congestion experiments: slow start, AIMD congestion avoidance, fast
retransmit/recovery on three duplicate ACKs, RTO with exponential backoff,
cumulative ACKs with out-of-order reassembly, and — for the ``"dctcp"``
variant — per-packet CE echo and the DCTCP alpha estimator with
fractional window reduction (Alizadeh et al.).

Sequence space is in bytes.  Application data is a counted byte stream
(``send(nbytes)``); receivers observe cumulative in-order delivery through
``on_delivered``.  This matches how the paper's workloads use TCP (bulk
transfers); request/response workloads in the case studies run over UDP,
as NetCache and Pegasus do.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from ...kernel.simtime import MS, US
from ...obs.flows import _ACTIVE as _FLOWS, env_track
from ..packet import HEADER_BYTES, Packet
from . import costs

if TYPE_CHECKING:  # pragma: no cover
    from .stack import Stack

MSS = 1448
INIT_CWND = 10 * MSS
MIN_RTO_PS = 1 * MS
INIT_RTO_PS = 10 * MS
DCTCP_G = 1.0 / 16.0


class TcpConnection:
    """One TCP connection endpoint."""

    def __init__(self, stack: "Stack", local_port: int, peer: int,
                 peer_port: int, variant: str = "newreno",
                 is_client: bool = True,
                 on_connected: Optional[Callable[["TcpConnection"], None]] = None,
                 ) -> None:
        if variant not in ("newreno", "dctcp"):
            raise ValueError(f"unknown TCP variant {variant!r}")
        self.stack = stack
        self.env = stack.env
        self.local_port = local_port
        self.peer = peer
        self.peer_port = peer_port
        self.variant = variant
        #: whether data segments are sent ECN-capable (fixed by the variant)
        self.ect = variant == "dctcp"
        self._models_cost = stack.models_cost
        self.is_client = is_client
        self.on_connected = on_connected
        #: receiver-side callback: fn(total_in_order_bytes)
        self.on_delivered: Optional[Callable[[int], None]] = None

        self.state = "closed"

        # sender state
        self.snd_una = 0
        self.snd_nxt = 0
        self.app_limit = 0  # total bytes the application has asked to send
        self.cwnd = INIT_CWND
        self.ssthresh = 1 << 30
        self.dup_acks = 0
        self.recover = 0
        self.in_recovery = False
        self.retransmits = 0
        self.timeouts = 0

        # RTT estimation (ps)
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.rto = INIT_RTO_PS
        self._rto_timer = None
        self._ts_seq: Optional[int] = None  # seq being timed
        self._ts_sent = 0

        # receiver state
        self.rcv_nxt = 0
        self.delivered_bytes = 0
        self._ooo: Dict[int, int] = {}  # seq -> length
        self._peer_fin_at: Optional[int] = None

        # DCTCP state (alpha starts at 1.0 as in the Linux implementation:
        # the first marked window halves cwnd, taming slow-start overshoot)
        self.dctcp_alpha = 1.0
        self._dctcp_bytes_acked = 0
        self._dctcp_bytes_marked = 0
        self._dctcp_window_end = 0
        self._last_pkt_ce = False  # receiver: CE of most recent data packet

        self.fin_sent = False
        self.closed_cb: Optional[Callable[[], None]] = None

        #: Fluid fidelity tier (see :mod:`repro.netsim.fluid`): while
        #: ``fluid_mode`` is set this endpoint emits no data segments —
        #: the flow advances analytically and the tick keeps
        #: ``snd_una == snd_nxt`` (sender) / ``rcv_nxt`` (receiver) moving.
        self.fluid_mode = False
        self.fluid_flow = None

    # ---------------------------------------------------------------- utils

    def _emit(self, flags: str, seq: int = 0, ack: int = 0,
              length: int = 0, ece: bool = False) -> None:
        # positional: src dst size proto sport dport seq ack flags wnd
        # data_len ect ce ece residence_ps arrival_ts payload create_ts
        pkt = Packet(self.stack.addr, self.peer, length + HEADER_BYTES + 14,
                     "tcp", self.local_port, self.peer_port, seq, ack, flags,
                     0, length, self.ect and length > 0, False, ece, 0, 0,
                     None, self.env.now)
        rec = _FLOWS[0]
        if rec is not None:
            # Segment birth: every TCP segment is its own traced flow.
            # Unsampled segments stay untagged (flow==0 downstream).
            f = rec.new_flow(self.stack.addr)
            if rec.sampled(f):
                pkt.flow = f
                track, at = env_track(self.env)
                rec.hop(f, "origin", track, self.env.now, at=at)
        self.env.tx(pkt)

    # ------------------------------------------------------------- lifecycle

    def open(self) -> None:
        """Client side: begin the three-way handshake."""
        self.state = "syn_sent"
        self._emit("S")
        self._arm_rto()

    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` more application bytes for transmission."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self.app_limit += nbytes
        self._try_send()

    def close(self) -> None:
        """Send FIN once all queued data is out (half-close semantics)."""
        self.fin_sent = True
        self._try_send()

    # ------------------------------------------------------------- sending

    def _flight(self) -> int:
        return self.snd_nxt - self.snd_una

    def _try_send(self) -> None:
        if self.state != "established" or self.fluid_mode:
            return
        while (self.snd_nxt < self.app_limit
               and self.snd_nxt - self.snd_una + MSS <= self.cwnd):
            length = min(MSS, self.app_limit - self.snd_nxt)
            self._send_segment(self.snd_nxt, length)
            self.snd_nxt += length
        if (self.fin_sent and self.snd_nxt == self.app_limit
                and self.state == "established"):
            self.state = "fin_wait"
            self._emit("FA", seq=self.snd_nxt, ack=self.rcv_nxt)

    def _send_segment(self, seq: int, length: int, retransmit: bool = False) -> None:
        if self._models_cost:
            self.env.charge(costs.TCP_TX_INSTR
                            + int(costs.COPY_INSTR_PER_BYTE * length))
        self._emit("A", seq=seq, ack=self.rcv_nxt, length=length)
        if retransmit:
            self.retransmits += 1
        if self._ts_seq is None and not retransmit:
            self._ts_seq = seq + length
            self._ts_sent = self.env.now
        self._arm_rto()

    # ------------------------------------------------------------ receiving

    def on_packet(self, pkt: Packet) -> None:
        """Demultiplexed entry point for every packet of this connection."""
        flags = pkt.flags
        if "S" in flags and "A" in flags:
            self._on_synack(pkt)
            return
        if "S" in flags:
            self._on_syn(pkt)
            return
        if "F" in flags:
            self._on_fin(pkt)
            # fall through: FIN may carry an ACK
        length = pkt.data_len
        if length > 0:
            self._on_data(pkt, length)
        if "A" in flags:
            self._on_ack(pkt)

    def _on_syn(self, pkt: Packet) -> None:
        if self.state == "closed":
            self.state = "syn_rcvd"
            self._emit("SA", ack=0)
            self._arm_rto()

    def _on_synack(self, pkt: Packet) -> None:
        if self.state == "syn_sent":
            self.state = "established"
            self._cancel_rto()
            self._emit("A", ack=0)
            if self.on_connected is not None:
                self.on_connected(self)
            self._try_send()

    def _on_fin(self, pkt: Packet) -> None:
        fin_seq = pkt.seq
        self._peer_fin_at = fin_seq
        self._maybe_finish()
        self._emit("A", ack=self.rcv_nxt)

    def _maybe_finish(self) -> None:
        if self._peer_fin_at is not None and self.rcv_nxt >= self._peer_fin_at:
            if self.state not in ("closed",):
                self.state = "close_wait"
                if self.closed_cb is not None:
                    self.closed_cb()

    def _on_data(self, pkt: Packet, length: int) -> None:
        if self.state == "syn_rcvd":
            self.state = "established"
            self._cancel_rto()
            self._try_send()
        if self._models_cost:
            self.env.charge(costs.TCP_RX_INSTR
                            + int(costs.COPY_INSTR_PER_BYTE * length))
        self._last_pkt_ce = pkt.ce
        seq = pkt.seq
        if seq == self.rcv_nxt and not self._ooo:
            # in order, nothing buffered: the reassembly below would insert
            # this segment, find it and delete it again
            self.rcv_nxt = seq + length
            self.delivered_bytes += length
            if self.on_delivered is not None:
                self.on_delivered(self.delivered_bytes)
        elif seq + length > self.rcv_nxt:
            self._ooo[seq] = max(self._ooo.get(seq, 0), length)
            advanced = False
            while True:
                # pop any segment that extends the in-order prefix
                hit = None
                for s, ln in self._ooo.items():
                    if s <= self.rcv_nxt < s + ln or s == self.rcv_nxt:
                        hit = (s, ln)
                        break
                if hit is None:
                    break
                s, ln = hit
                del self._ooo[s]
                new_edge = max(self.rcv_nxt, s + ln)
                self.delivered_bytes += new_edge - self.rcv_nxt
                self.rcv_nxt = new_edge
                advanced = True
            if advanced and self.on_delivered is not None:
                self.on_delivered(self.delivered_bytes)
        # ACK every data packet; DCTCP echoes the CE bit of this packet.
        ece = self._last_pkt_ce if self.variant == "dctcp" else False
        self._emit("A", ack=self.rcv_nxt, ece=ece)
        self._maybe_finish()

    # ---------------------------------------------------------------- ACKs

    def _on_ack(self, pkt: Packet) -> None:
        if self.state == "syn_rcvd":
            self.state = "established"
            self._cancel_rto()
            self._try_send()  # flush data queued while mid-handshake
            return
        ack = pkt.ack
        if self._models_cost:
            self.env.charge(costs.TCP_ACK_INSTR)
        if ack > self.snd_una:
            acked = ack - self.snd_una
            self.snd_una = ack
            self.dup_acks = 0
            self._rtt_sample(ack)
            if self.variant == "dctcp":
                self._dctcp_on_ack(acked, pkt.ece)
            if self.in_recovery:
                if ack >= self.recover:
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # partial ACK: retransmit the next missing segment
                    length = min(MSS, self.app_limit - self.snd_una)
                    if length > 0:
                        self._send_segment(self.snd_una, length, retransmit=True)
            else:
                self._grow_cwnd(acked)
            if self.snd_una == self.snd_nxt:
                self._cancel_rto()
            else:
                self._arm_rto()
            self._try_send()
            ctl = self.stack.fluid_ctl
            if ctl is not None and not self.fluid_mode:
                ctl.consider(self)
        elif ack == self.snd_una and self.snd_nxt > self.snd_una:
            self.dup_acks += 1
            if self.dup_acks == 3 and not self.in_recovery:
                self._enter_fast_recovery()

    def _grow_cwnd(self, acked: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += acked  # slow start
        else:
            self.cwnd += max(1, MSS * acked // self.cwnd)

    def _enter_fast_recovery(self) -> None:
        self.ssthresh = max(self._flight() // 2, 2 * MSS)
        self.cwnd = self.ssthresh
        self.in_recovery = True
        self.recover = self.snd_nxt
        length = min(MSS, self.app_limit - self.snd_una)
        if length > 0:
            self._send_segment(self.snd_una, length, retransmit=True)

    # --------------------------------------------------------------- DCTCP

    def _dctcp_on_ack(self, acked: int, ece: bool) -> None:
        self._dctcp_bytes_acked += acked
        if ece:
            self._dctcp_bytes_marked += acked
        if self.snd_una >= self._dctcp_window_end:
            if self._dctcp_bytes_acked > 0:
                frac = self._dctcp_bytes_marked / self._dctcp_bytes_acked
                self.dctcp_alpha = ((1 - DCTCP_G) * self.dctcp_alpha
                                    + DCTCP_G * frac)
                if self._dctcp_bytes_marked > 0:
                    self.cwnd = max(
                        MSS, int(self.cwnd * (1 - self.dctcp_alpha / 2)))
                    # a marked window ends slow start
                    self.ssthresh = max(self.cwnd, 2 * MSS)
            self._dctcp_bytes_acked = 0
            self._dctcp_bytes_marked = 0
            self._dctcp_window_end = self.snd_nxt

    # ----------------------------------------------------------------- RTT

    def _rtt_sample(self, ack: int) -> None:
        if self._ts_seq is not None and ack >= self._ts_seq:
            sample = self.env.now - self._ts_sent
            if self.srtt is None:
                self.srtt = sample
                self.rttvar = sample // 2
            else:
                err = abs(sample - self.srtt)
                self.rttvar = (3 * self.rttvar + err) // 4
                self.srtt = (7 * self.srtt + sample) // 8
            self.rto = max(MIN_RTO_PS, self.srtt + 4 * self.rttvar)
            self._ts_seq = None

    # ---------------------------------------------------------------- timers

    def _arm_rto(self) -> None:
        # Re-armed on every ACK and every segment sent: move the pending
        # timer in place.  Only a first arm, or a deadline that moved
        # *earlier* (the RTO shrank after an RTT sample), schedules afresh.
        timer = self._rto_timer
        if timer is None or not self.env.postpone(timer, self.rto):
            self._cancel_rto()
            self._rto_timer = self.env.timer(self.rto, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self.env.cancel(self._rto_timer)
            self._rto_timer = None

    def _on_rto(self) -> None:
        self._rto_timer = None
        self.timeouts += 1
        if self.state == "syn_sent":
            self._emit("S")
            self.rto = min(self.rto * 2, 60 * 1000 * MS)
            self._arm_rto()
            return
        if self.state == "syn_rcvd":
            self._emit("SA", ack=0)
            self._arm_rto()
            return
        if self._flight() <= 0:
            return
        self.ssthresh = max(self._flight() // 2, 2 * MSS)
        self.cwnd = MSS
        self.in_recovery = False
        self.dup_acks = 0
        self._ts_seq = None
        self.rto = min(self.rto * 2, 60 * 1000 * MS)
        length = min(MSS, max(self.app_limit - self.snd_una, 0)) or MSS
        self._send_segment(self.snd_una, min(length, MSS), retransmit=True)
