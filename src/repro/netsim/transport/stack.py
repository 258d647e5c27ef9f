"""Transport stack: socket creation and packet demultiplexing.

The stack is deliberately environment-agnostic.  Its ``env`` must provide:

``now``             current simulated time (picoseconds)
``call_after``      post a callback (returns nothing)
``timer``           schedule a callback, returning a handle
``cancel``          cancel such a handle
``postpone``        re-arm such a handle in place
``tx(pkt)``         hand a packet to the interface for transmission
``charge(instr)``   account simulated CPU instructions
``models_cost``     optional, ``False`` when ``charge`` is a no-op (as on
                    protocol-level hosts): the stack, TCP and the KV server
                    then skip the call and its argument's arithmetic
``rng``             a seeded ``random.Random``

Protocol-level hosts (:class:`repro.netsim.node.NetHost`) and detailed hosts
(:mod:`repro.hostsim`) both satisfy this, so one UDP/TCP implementation
serves every fidelity level — the property that makes mixed-fidelity
simulation meaningful (same protocol behaviour, different execution cost).
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Dict, Optional, Tuple

from ...obs.flows import _ACTIVE as _FLOWS, env_track
from ..packet import HEADER_BYTES, Packet
from . import costs
from .tcp import TcpConnection

EPHEMERAL_BASE = 49_152


class UdpSocket:
    """A bound UDP socket."""

    def __init__(self, stack: "Stack", port: int,
                 on_dgram: Optional[Callable[[Packet], None]] = None) -> None:
        self.stack = stack
        self.port = port
        self.on_dgram = on_dgram
        self.tx_dgrams = 0
        self.rx_dgrams = 0

    def sendto(self, dst: int, dst_port: int, nbytes: int,
               payload=None, ect: bool = False,
               flow: Optional[int] = None) -> Packet:
        """Send one datagram of ``nbytes`` application payload.

        ``flow`` is the causal-tracing hook: ``None`` (the default) marks a
        flow *origin* — when tracing is active a fresh id is allocated (and
        kept 1-in-N per the sampling divisor).  A nonzero value continues
        an existing traced flow (e.g. a server replying to a traced
        request); ``0`` continues an *untraced* one, so replies inherit the
        request's sampling decision instead of originating a new flow.
        """
        stack = self.stack
        env = stack.env
        if stack.models_cost:
            env.charge(costs.UDP_TX_INSTR
                       + int(costs.COPY_INSTR_PER_BYTE * nbytes))
        pkt = Packet.alloc(
            stack.addr, dst, nbytes + HEADER_BYTES,
            "udp", self.port, dst_port,
            payload=payload, ect=ect, create_ts=env.now,
        )
        rec = _FLOWS[0]
        if rec is not None and flow != 0:
            if flow:
                pkt.flow = flow
                kind = "send"
            else:
                # Sampling decides at the origin: an unsampled flow is
                # never tagged, so every downstream site stays on its
                # flow==0 fast branch.
                flow = rec.new_flow(stack.addr)
                kind = "origin"
                if rec.sampled(flow):
                    pkt.flow = flow
                else:
                    flow = 0
            if flow:
                track, at = env_track(env)
                rec.hop(flow, kind, track, env.now, at=at)
        self.tx_dgrams += 1
        env.tx(pkt)
        return pkt

    def close(self) -> None:
        """Unbind this socket's port."""
        self.stack._udp.pop(self.port, None)

    def _deliver(self, pkt: Packet) -> None:
        self.rx_dgrams += 1
        stack = self.stack
        if stack.models_cost:
            payload_bytes = max(pkt.size_bytes - HEADER_BYTES, 0)
            stack.env.charge(costs.UDP_RX_INSTR
                             + int(costs.COPY_INSTR_PER_BYTE * payload_bytes))
        if self.on_dgram is not None:
            self.on_dgram(pkt)


class Stack:
    """Per-host transport stack: UDP sockets and TCP connections."""

    def __init__(self, env, addr: int) -> None:
        self.env = env
        self.addr = addr
        #: whether ``env.charge`` advances anything, read once for every
        #: socket and connection of this stack; an env that declares
        #: nothing is charged
        self.models_cost = getattr(env, "models_cost", True)
        self._udp: Dict[int, UdpSocket] = {}
        self._tcp_listeners: Dict[int, Tuple[Callable, str]] = {}
        self._tcp: Dict[Tuple[int, int, int], TcpConnection] = {}
        self._ephemeral = count(EPHEMERAL_BASE)
        self.rx_packets = 0
        self.rx_no_handler = 0
        #: :class:`~repro.netsim.fluid.FluidDomain` when the fluid fidelity
        #: tier is installed on this host's partition (``None`` otherwise).
        self.fluid_ctl = None

    # -- UDP -----------------------------------------------------------------

    def udp_socket(self, port: Optional[int] = None,
                   on_dgram: Optional[Callable[[Packet], None]] = None) -> UdpSocket:
        """Bind a UDP socket (ephemeral port when ``port`` is None)."""
        if port is None:
            port = next(self._ephemeral)
        if port in self._udp:
            raise ValueError(f"UDP port {port} already bound on {self.addr}")
        sock = UdpSocket(self, port, on_dgram)
        self._udp[port] = sock
        return sock

    # -- TCP -----------------------------------------------------------------

    def tcp_listen(self, port: int, on_conn: Callable[[TcpConnection], None],
                   variant: str = "newreno") -> None:
        """Accept connections on ``port``; ``on_conn`` gets each new one."""
        if port in self._tcp_listeners:
            raise ValueError(f"TCP port {port} already listening on {self.addr}")
        self._tcp_listeners[port] = (on_conn, variant)

    def tcp_connect(self, dst: int, dst_port: int, variant: str = "newreno",
                    on_connected: Optional[Callable[[TcpConnection], None]] = None,
                    ) -> TcpConnection:
        """Open a client connection (three-way handshake starts now)."""
        local_port = next(self._ephemeral)
        conn = TcpConnection(
            self, local_port=local_port, peer=dst, peer_port=dst_port,
            variant=variant, is_client=True, on_connected=on_connected,
        )
        self._tcp[(dst, dst_port, local_port)] = conn
        conn.open()
        return conn

    def _register_accepted(self, conn: TcpConnection) -> None:
        self._tcp[(conn.peer, conn.peer_port, conn.local_port)] = conn

    def close_conn(self, conn: TcpConnection) -> None:
        """Remove a connection from the demux table."""
        self._tcp.pop((conn.peer, conn.peer_port, conn.local_port), None)

    # -- demux -----------------------------------------------------------------

    def handle_packet(self, pkt: Packet) -> None:
        """Entry point for packets arriving from the network interface."""
        self.rx_packets += 1
        rec = _FLOWS[0]
        if rec is not None and pkt.flow:
            env = self.env
            track, at = env_track(env)
            rec.hop(pkt.flow, "deliver", track, env.now, at=at)
        if pkt.proto == "tcp":
            conn = self._tcp.get((pkt.src, pkt.src_port, pkt.dst_port))
            if conn is not None:
                conn.on_packet(pkt)
            else:
                self._accept_tcp(pkt)
            return
        sock = self._udp.get(pkt.dst_port)
        if sock is None:
            self.rx_no_handler += 1
            return
        sock._deliver(pkt)

    def _accept_tcp(self, pkt: Packet) -> None:
        """A TCP segment no connection owns: a SYN to a listener opens one."""
        if "S" in pkt.flags and "A" not in pkt.flags:
            listener = self._tcp_listeners.get(pkt.dst_port)
            if listener is None:
                self.rx_no_handler += 1
                return
            on_conn, variant = listener
            conn = TcpConnection(
                self, local_port=pkt.dst_port, peer=pkt.src,
                peer_port=pkt.src_port, variant=variant, is_client=False,
            )
            self._register_accepted(conn)
            conn.on_packet(pkt)
            on_conn(conn)
            return
        self.rx_no_handler += 1
