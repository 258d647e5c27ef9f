"""Packet representation for the packet-level network simulator.

One flat packet class keeps the hot path cheap (this is the single most
allocated object in large simulations).  Addresses are plain integers —
every endpoint in a simulation, protocol-level or detailed, gets a unique
address from the topology builder.

``Packet`` is a plain ``__slots__`` class recycled through a module-level
free list.  ``size_bits`` is precomputed at construction so the link
serialization math never re-derives it per hop.

**Pooled-packet lifetime rule:** only call :meth:`Packet.release` when you
are the packet's final consumer (typically the application handler that
just finished with a received datagram) and you retain neither the packet
nor anything reachable only through it.  Release is strictly opt-in:
unreleased packets are simply garbage-collected, forgoing reuse.  A
released handle must not be touched again — :meth:`Packet.alloc` reassigns
a fresh ``uid`` on reuse, so stale uid-keyed lookups never collide.

ECN bits follow DCTCP semantics: ``ect`` marks an ECN-capable transport,
switch queues set ``ce`` on congestion, receivers echo it back via the
transport layer.  ``residence_ps`` accumulates switch residence time for
PTP transparent-clock correction.
"""

from __future__ import annotations

from itertools import count
from typing import Any, List, Optional

_packet_ids = count()

#: Ethernet + IP + UDP header bytes, used as the minimum wire size.
HEADER_BYTES = 46
MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 1518

#: Well-known protocol numbers for demultiplexing.
PROTO_UDP = "udp"
PROTO_TCP = "tcp"

#: What :meth:`Packet.flow_key` holds in place of the protocol string: the
#: string's hash under ``PYTHONHASHSEED=0`` with CPython 3.11+'s SipHash-1-3
#: (3.10's SipHash-2-4 hashes strings differently).  ``hash`` of an int
#: this small is the int itself, so a key hashes the same under every hash
#: seed and interpreter, and to the same value as the string key did under
#: seed 0 on 3.11+ (the ECMP choices the pinned event counts were recorded
#: with).  Any other protocol stays a string.
_PROTO_KEY = {PROTO_TCP: 1824581668213777574, PROTO_UDP: -1393542221191858368}

#: Free list of released packets; bounded so a release burst cannot pin
#: an unbounded amount of memory.
_pool: List["Packet"] = []
_POOL_MAX = 4096
_pool_hits = 0
_pool_releases = 0


class Packet:
    """A network packet / Ethernet frame."""

    __slots__ = (
        "src", "dst", "size_bytes", "size_bits", "proto", "src_port",
        "dst_port", "seq", "ack", "flags", "wnd", "data_len", "ect", "ce",
        "ece", "residence_ps", "arrival_ts", "payload", "create_ts", "hops",
        "uid", "flow", "_pooled",
    )

    def __init__(self, src: int, dst: int, size_bytes: int,
                 proto: str = PROTO_UDP, src_port: int = 0, dst_port: int = 0,
                 seq: int = 0, ack: int = 0, flags: str = "", wnd: int = 0,
                 data_len: int = 0, ect: bool = False, ce: bool = False,
                 ece: bool = False, residence_ps: int = 0,
                 arrival_ts: int = 0, payload: Any = None, create_ts: int = 0,
                 hops: int = 0, uid: Optional[int] = None,
                 flow: int = 0) -> None:
        if size_bytes < MIN_FRAME_BYTES:
            size_bytes = MIN_FRAME_BYTES
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        #: frame size in bits, precomputed for serialization-delay math
        self.size_bits = size_bytes * 8

        self.proto = proto
        self.src_port = src_port
        self.dst_port = dst_port

        # TCP fields: seq/ack numbers, subset of "SAFR" flags, window, and
        # explicit payload length (frames are padded to 64B minimum).
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.wnd = wnd
        self.data_len = data_len

        # ECN (ece = receiver -> sender congestion echo)
        self.ect = ect
        self.ce = ce
        self.ece = ece

        # PTP transparent clock support; arrival_ts is set by switches on
        # ingress and used to compute residence time.
        self.residence_ps = residence_ps
        self.arrival_ts = arrival_ts

        self.payload = payload
        self.create_ts = create_ts
        self.hops = hops
        self.uid = next(_packet_ids) if uid is None else uid
        #: causal flow id (``repro.obs.flows``); 0 = untraced
        self.flow = flow
        self._pooled = False

    # -- pooling -----------------------------------------------------------

    @classmethod
    def alloc(cls, src: int, dst: int, size_bytes: int,
              proto: str = PROTO_UDP, src_port: int = 0, dst_port: int = 0,
              payload: Any = None, ect: bool = False,
              create_ts: int = 0) -> "Packet":
        """Build a packet, reusing a released one when the pool has any.

        Covers the common (UDP datagram) construction profile; all other
        fields come back zeroed exactly as a fresh ``Packet`` would have
        them.  The returned packet carries a fresh ``uid``.
        """
        global _pool_hits
        if _pool:
            p = _pool.pop()
            _pool_hits += 1
            if size_bytes < MIN_FRAME_BYTES:
                size_bytes = MIN_FRAME_BYTES
            p.src = src
            p.dst = dst
            p.size_bytes = size_bytes
            p.size_bits = size_bytes * 8
            p.proto = proto
            p.src_port = src_port
            p.dst_port = dst_port
            p.seq = 0
            p.ack = 0
            p.flags = ""
            p.wnd = 0
            p.data_len = 0
            p.ect = ect
            p.ce = False
            p.ece = False
            p.residence_ps = 0
            p.arrival_ts = 0
            p.payload = payload
            p.create_ts = create_ts
            p.hops = 0
            p.uid = next(_packet_ids)
            p.flow = 0
            p._pooled = False
            return p
        return cls(src, dst, size_bytes, proto, src_port, dst_port,
                   payload=payload, ect=ect, create_ts=create_ts)

    def release(self) -> None:
        """Return this packet to the free list (final-consumer opt-in).

        Idempotent; see the module docstring for the lifetime rule.
        """
        global _pool_releases
        if self._pooled:
            return
        self._pooled = True
        self.payload = None
        _pool_releases += 1
        if len(_pool) < _POOL_MAX:
            _pool.append(self)

    # -- introspection -----------------------------------------------------

    def flow_key(self) -> tuple:
        """5-tuple used for ECMP hashing, with the protocol as a fixed int
        (:data:`_PROTO_KEY`): its hash does not depend on the hash seed."""
        proto = self.proto
        return (self.src, self.dst, self.src_port, self.dst_port,
                _PROTO_KEY.get(proto, proto))

    def clone_for_reply(self, size_bytes: int, payload: Any = None) -> "Packet":
        """Build a reply packet with src/dst and ports swapped.

        The reply inherits the request's flow id so a traced
        request/response pair forms one end-to-end flow.
        """
        p = Packet.alloc(
            src=self.dst, dst=self.src, size_bytes=size_bytes,
            proto=self.proto, src_port=self.dst_port, dst_port=self.src_port,
            ect=self.ect, payload=payload,
        )
        p.flow = self.flow
        return p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Packet uid={self.uid} {self.proto} {self.src}:{self.src_port}"
                f" -> {self.dst}:{self.dst_port} {self.size_bytes}B>")


def pool_stats() -> dict:
    """Free-list counters (for benchmarks and tests)."""
    return {"size": len(_pool), "hits": _pool_hits,
            "releases": _pool_releases}
