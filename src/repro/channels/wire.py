"""Wire codecs for the multiprocess channel transport.

Every fixed-layout :class:`~repro.channels.messages.Msg` subclass gets a
``struct``-packed encoder/decoder registered under a one-byte type tag, so
the shared-memory rings never pay ``pickle`` for protocol traffic — the
same fixed-layout-frame property SimBricks gets from its C shared-memory
queues.  Messages with variable payloads (``EthMsg`` packets, DMA data,
``RawMsg``) carry a length-prefixed bytes tail; the KV case study's
request/reply objects have a fixed tail layout of their own, any other
payload object is pickled *inside* the tail, and message types without a
registered codec (user-defined subclasses) fall back to pickling the whole
message behind the distinct :data:`TAG_PICKLE` tag.  Both fallbacks are
counted (:func:`stats`) so the observability layer can report how much of
a run's traffic left the fast path.

Frame layout (everything little-endian)::

    [u8 tag][u64 promise][body...]

``promise`` piggybacks the sender's sync horizon on every frame: the
sender guarantees that no *future* frame on this queue will carry a
delivery stamp below ``promise``.  Data frames make explicit ``SyncMsg``
markers unnecessary while traffic flows — the receiver raises its input
horizon to ``max(stamp, promise)`` per frame.  A promise of ``0`` carries
no information beyond the stamp itself.

Registered bodies start with the common ``stamp``/``seq`` prefix followed
by the type-specific fields; see :data:`TAGS` for the tag table.  Encoding
failures from out-of-range field values (negative addresses, huge ints)
transparently fall back to the pickle frame, so the codec never restricts
what a message may carry — it only accelerates the common case.

The codec can be disabled globally (:func:`set_codec_enabled`), which
forces every frame through the pickle tag; the determinism tests run the multiprocess transport both ways and
pin identical event timelines.
"""

from __future__ import annotations

import pickle
import struct
from struct import Struct
from typing import Any, Callable, Dict, Tuple

from .messages import (DmaCompletionMsg, DmaReadMsg, DmaWriteMsg, EthMsg,
                       InterruptMsg, MemInvalidateMsg, MemReadMsg, MemRespMsg,
                       MemWriteMsg, MmioMsg, MmioRespMsg, Msg, RawMsg,
                       SyncMsg, TrunkMsg)
from ..netsim.apps.kvproto import KvReply, KvRequest
from ..netsim.packet import Packet

_PROTO = pickle.HIGHEST_PROTOCOL

#: Whole-message pickle fallback tag (distinct from every registered tag).
TAG_PICKLE = 0xFF

#: One-byte tag per registered message class (the wire-format tag table).
TAGS: Dict[type, int] = {
    Msg: 0x01,
    SyncMsg: 0x02,
    EthMsg: 0x03,
    MmioMsg: 0x04,
    MmioRespMsg: 0x05,
    DmaReadMsg: 0x06,
    DmaWriteMsg: 0x07,
    DmaCompletionMsg: 0x08,
    InterruptMsg: 0x09,
    MemReadMsg: 0x0A,
    MemWriteMsg: 0x0B,
    MemRespMsg: 0x0C,
    MemInvalidateMsg: 0x0D,
    TrunkMsg: 0x0E,
    RawMsg: 0x0F,
}

#: Frame header: tag + piggybacked horizon promise.
_HDR = Struct("<BQ")
_HDR_SIZE = _HDR.size
_LEN32 = Struct("<I")

# Common body prefix (stamp, seq, flow, hop) and per-class field layouts.
# ``flow``/``hop`` are the causal-provenance header fields (repro.obs.flows):
# fixed-layout u64/u16 so flow-tagged traffic NEVER leaves the struct fast
# path — tagging a message must not demote it to the pickle frame.
_S_BASE = Struct("<QQQH")
_S_MMIO = Struct("<QQQHQQBI")        # + addr, value, is_write, req_id
_S_MMIO_RESP = Struct("<QQQHQI")     # + value, req_id
_S_ADDR_LEN_REQ = Struct("<QQQHQII") # + addr, length, req_id
_S_DMA_COMP = Struct("<QQQHII")      # + length, req_id
_S_INTR = Struct("<QQQHI")           # + vector
_S_MEM_RESP = Struct("<QQQHIB")      # + req_id, is_write
_S_MEM_INV = Struct("<QQQHQ")        # + addr
_S_TRUNK = Struct("<QQQHIB")         # + subchannel, has_inner
# Packet fast path: src, dst, size_bytes, src_port, dst_port, seq, ack,
# wnd, data_len, ecn bits, residence_ps, arrival_ts, create_ts, hops, uid,
# flow
_S_PACKET = Struct("<QQIHHQQIIBQQQHQQ")

#: Payload-tail kinds.
_TAIL_NONE = b"\x00"
_TAIL_BYTES = b"\x01"
_TAIL_PICKLE = b"\x02"
_TAIL_KV_REQUEST = b"\x03"
_TAIL_KV_REPLY = b"\x04"
# KV case-study payloads (repro.netsim.apps.kvproto), the one object
# payload the packet workloads put on cut links in volume.  Both start
# with op (one ASCII char), key, req_id.
_S_KV_REQUEST = Struct("<cQQQQ")     # + client_addr, client_ts
_S_KV_REPLY = Struct("<cQQqQ")       # + served_by (-1 = switch), value_bytes

#: Codec switch, shared with forked children (mutate, don't rebind).
_CODEC = [True]

# Fallback counters (per process; children report them via ProcResult).
_msg_pickles = 0
_payload_pickles = 0


def set_codec_enabled(enabled: bool) -> None:
    """Globally enable/disable the struct codecs (pickle-everything mode)."""
    _CODEC[0] = bool(enabled)


def codec_enabled() -> bool:
    """Whether the struct fast path is active in this process."""
    return _CODEC[0]


def stats() -> Dict[str, Any]:
    """Per-process fallback counters for the observability layer."""
    return {
        "codec_enabled": _CODEC[0],
        "msg_pickle_fallbacks": _msg_pickles,
        "payload_pickles": _payload_pickles,
    }


def reset_stats() -> None:
    """Zero the fallback counters (bench/test isolation)."""
    global _msg_pickles, _payload_pickles
    _msg_pickles = 0
    _payload_pickles = 0


# -- tail / small-string helpers --------------------------------------------

def _pack_kv_request(r: KvRequest) -> bytes:
    return _TAIL_KV_REQUEST + _S_KV_REQUEST.pack(
        r.op.encode("ascii"), r.key, r.req_id, r.client_addr, r.client_ts)


def _pack_kv_reply(r: KvReply) -> bytes:
    return _TAIL_KV_REPLY + _S_KV_REPLY.pack(
        r.op.encode("ascii"), r.key, r.req_id, r.served_by, r.value_bytes)


#: Object payloads with a fixed tail layout; anything else is pickled.
_TAIL_PACKERS: Dict[type, Callable[[Any], bytes]] = {
    KvRequest: _pack_kv_request, KvReply: _pack_kv_reply,
}


def _pack_tail(parts: list, obj: Any) -> None:
    global _payload_pickles
    if obj is None:
        parts.append(_TAIL_NONE)
    elif type(obj) is bytes:
        parts.append(_TAIL_BYTES)
        parts.append(_LEN32.pack(len(obj)))
        parts.append(obj)
    else:
        pack = _TAIL_PACKERS.get(type(obj))
        if pack is not None:
            try:
                parts.append(pack(obj))
                return
            except (struct.error, OverflowError, UnicodeEncodeError):
                pass  # a field outside its fixed layout: pickle this tail
        _payload_pickles += 1
        blob = pickle.dumps(obj, _PROTO)
        parts.append(_TAIL_PICKLE)
        parts.append(_LEN32.pack(len(blob)))
        parts.append(blob)


def _unpack_tail(buf: bytes, off: int) -> Tuple[Any, int]:
    kind = buf[off]
    off += 1
    if kind == 0:
        return None, off
    if kind == 3:
        op, key, req_id, client_addr, client_ts = \
            _S_KV_REQUEST.unpack_from(buf, off)
        return (KvRequest(op.decode("ascii"), key, req_id, client_addr,
                          client_ts), off + _S_KV_REQUEST.size)
    if kind == 4:
        op, key, req_id, served_by, value_bytes = \
            _S_KV_REPLY.unpack_from(buf, off)
        return (KvReply(op.decode("ascii"), key, req_id, served_by,
                        value_bytes), off + _S_KV_REPLY.size)
    (length,) = _LEN32.unpack_from(buf, off)
    off += 4
    blob = buf[off:off + length]
    off += length
    return (blob if kind == 1 else pickle.loads(blob)), off


def _pack_str(s: str) -> bytes:
    raw = s.encode("ascii")
    if len(raw) > 255:
        raise struct.error("string field too long for wire format")
    return bytes((len(raw),)) + raw


def _unpack_str(buf: bytes, off: int) -> Tuple[str, int]:
    length = buf[off]
    off += 1
    return buf[off:off + length].decode("ascii"), off + length


# -- per-class codecs --------------------------------------------------------
# Decoders construct messages positionally (dataclass field order: the
# stamp/seq base prefix, then subclass fields in declaration order).

def _enc_msg(m: Msg, p: int) -> bytes:
    return _HDR.pack(0x01, p) + _S_BASE.pack(m.stamp, m.seq, m.flow, m.hop)


def _dec_msg(buf: bytes, off: int) -> Msg:
    return Msg(*_S_BASE.unpack_from(buf, off))


def _enc_sync(m: SyncMsg, p: int) -> bytes:
    return _HDR.pack(0x02, p) + _S_BASE.pack(m.stamp, m.seq, m.flow, m.hop)


def _dec_sync(buf: bytes, off: int) -> SyncMsg:
    return SyncMsg(*_S_BASE.unpack_from(buf, off))


def _enc_eth(m: EthMsg, p: int) -> bytes:
    parts = [_HDR.pack(0x03, p), _S_BASE.pack(m.stamp, m.seq, m.flow, m.hop)]
    pkt = m.packet
    if pkt is None:
        parts.append(_TAIL_NONE)
    elif type(pkt) is Packet:
        parts.append(_TAIL_BYTES)  # reused as "inline struct packet" marker
        parts.append(_S_PACKET.pack(
            pkt.src, pkt.dst, pkt.size_bytes, pkt.src_port, pkt.dst_port,
            pkt.seq, pkt.ack, pkt.wnd, pkt.data_len,
            pkt.ect | (pkt.ce << 1) | (pkt.ece << 2),
            pkt.residence_ps, pkt.arrival_ts, pkt.create_ts, pkt.hops,
            pkt.uid, pkt.flow))
        parts.append(_pack_str(pkt.proto))
        parts.append(_pack_str(pkt.flags))
        _pack_tail(parts, pkt.payload)
    else:
        global _payload_pickles
        _payload_pickles += 1
        blob = pickle.dumps(pkt, _PROTO)
        parts.append(_TAIL_PICKLE)
        parts.append(_LEN32.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def _dec_eth(buf: bytes, off: int) -> EthMsg:
    stamp, seq, flow, hop = _S_BASE.unpack_from(buf, off)
    off += _S_BASE.size
    kind = buf[off]
    off += 1
    if kind == 0:
        return EthMsg(stamp, seq, flow, hop, None)
    if kind == 2:
        (length,) = _LEN32.unpack_from(buf, off)
        off += 4
        return EthMsg(stamp, seq, flow, hop,
                      pickle.loads(buf[off:off + length]))
    (src, dst, size_bytes, src_port, dst_port, pseq, ack, wnd, data_len,
     ecn, residence_ps, arrival_ts, create_ts, hops,
     uid, pflow) = _S_PACKET.unpack_from(buf, off)
    off += _S_PACKET.size
    proto, off = _unpack_str(buf, off)
    flags, off = _unpack_str(buf, off)
    payload, off = _unpack_tail(buf, off)
    pkt = Packet(src, dst, size_bytes, proto, src_port, dst_port, pseq, ack,
                 flags, wnd, data_len, bool(ecn & 1), bool(ecn & 2),
                 bool(ecn & 4), residence_ps, arrival_ts, payload, create_ts,
                 hops, uid, pflow)
    return EthMsg(stamp, seq, flow, hop, pkt)


def _enc_mmio(m: MmioMsg, p: int) -> bytes:
    return _HDR.pack(0x04, p) + _S_MMIO.pack(
        m.stamp, m.seq, m.flow, m.hop, m.addr, m.value,
        1 if m.is_write else 0, m.req_id)


def _dec_mmio(buf: bytes, off: int) -> MmioMsg:
    (stamp, seq, flow, hop, addr, value, is_write,
     req_id) = _S_MMIO.unpack_from(buf, off)
    return MmioMsg(stamp, seq, flow, hop, addr, value, bool(is_write), req_id)


def _enc_mmio_resp(m: MmioRespMsg, p: int) -> bytes:
    return _HDR.pack(0x05, p) + _S_MMIO_RESP.pack(
        m.stamp, m.seq, m.flow, m.hop, m.value, m.req_id)


def _dec_mmio_resp(buf: bytes, off: int) -> MmioRespMsg:
    return MmioRespMsg(*_S_MMIO_RESP.unpack_from(buf, off))


def _enc_dma_read(m: DmaReadMsg, p: int) -> bytes:
    return _HDR.pack(0x06, p) + _S_ADDR_LEN_REQ.pack(
        m.stamp, m.seq, m.flow, m.hop, m.addr, m.length, m.req_id)


def _dec_dma_read(buf: bytes, off: int) -> DmaReadMsg:
    return DmaReadMsg(*_S_ADDR_LEN_REQ.unpack_from(buf, off))


def _enc_dma_write(m: DmaWriteMsg, p: int) -> bytes:
    parts = [_HDR.pack(0x07, p),
             _S_ADDR_LEN_REQ.pack(m.stamp, m.seq, m.flow, m.hop, m.addr, m.length, m.req_id)]
    _pack_tail(parts, m.data)
    return b"".join(parts)


def _dec_dma_write(buf: bytes, off: int) -> DmaWriteMsg:
    (stamp, seq, flow, hop, addr, length,
     req_id) = _S_ADDR_LEN_REQ.unpack_from(buf, off)
    data, _ = _unpack_tail(buf, off + _S_ADDR_LEN_REQ.size)
    return DmaWriteMsg(stamp, seq, flow, hop, addr, data, length, req_id)


def _enc_dma_comp(m: DmaCompletionMsg, p: int) -> bytes:
    parts = [_HDR.pack(0x08, p),
             _S_DMA_COMP.pack(m.stamp, m.seq, m.flow, m.hop,
                              m.length, m.req_id)]
    _pack_tail(parts, m.data)
    return b"".join(parts)


def _dec_dma_comp(buf: bytes, off: int) -> DmaCompletionMsg:
    stamp, seq, flow, hop, length, req_id = _S_DMA_COMP.unpack_from(buf, off)
    data, _ = _unpack_tail(buf, off + _S_DMA_COMP.size)
    return DmaCompletionMsg(stamp, seq, flow, hop, data, length, req_id)


def _enc_intr(m: InterruptMsg, p: int) -> bytes:
    return _HDR.pack(0x09, p) + _S_INTR.pack(
        m.stamp, m.seq, m.flow, m.hop, m.vector)


def _dec_intr(buf: bytes, off: int) -> InterruptMsg:
    return InterruptMsg(*_S_INTR.unpack_from(buf, off))


def _enc_mem_read(m: MemReadMsg, p: int) -> bytes:
    return _HDR.pack(0x0A, p) + _S_ADDR_LEN_REQ.pack(
        m.stamp, m.seq, m.flow, m.hop, m.addr, m.length, m.req_id)


def _dec_mem_read(buf: bytes, off: int) -> MemReadMsg:
    return MemReadMsg(*_S_ADDR_LEN_REQ.unpack_from(buf, off))


def _enc_mem_write(m: MemWriteMsg, p: int) -> bytes:
    parts = [_HDR.pack(0x0B, p),
             _S_ADDR_LEN_REQ.pack(m.stamp, m.seq, m.flow, m.hop, m.addr, m.length, m.req_id)]
    _pack_tail(parts, m.data)
    return b"".join(parts)


def _dec_mem_write(buf: bytes, off: int) -> MemWriteMsg:
    (stamp, seq, flow, hop, addr, length,
     req_id) = _S_ADDR_LEN_REQ.unpack_from(buf, off)
    data, _ = _unpack_tail(buf, off + _S_ADDR_LEN_REQ.size)
    return MemWriteMsg(stamp, seq, flow, hop, addr, length, req_id, data)


def _enc_mem_resp(m: MemRespMsg, p: int) -> bytes:
    parts = [_HDR.pack(0x0C, p),
             _S_MEM_RESP.pack(m.stamp, m.seq, m.flow, m.hop, m.req_id,
                              1 if m.is_write else 0)]
    _pack_tail(parts, m.data)
    return b"".join(parts)


def _dec_mem_resp(buf: bytes, off: int) -> MemRespMsg:
    stamp, seq, flow, hop, req_id, is_write = _S_MEM_RESP.unpack_from(buf, off)
    data, _ = _unpack_tail(buf, off + _S_MEM_RESP.size)
    return MemRespMsg(stamp, seq, flow, hop, req_id, data, bool(is_write))


def _enc_mem_inv(m: MemInvalidateMsg, p: int) -> bytes:
    return _HDR.pack(0x0D, p) + _S_MEM_INV.pack(
        m.stamp, m.seq, m.flow, m.hop, m.addr)


def _dec_mem_inv(buf: bytes, off: int) -> MemInvalidateMsg:
    return MemInvalidateMsg(*_S_MEM_INV.unpack_from(buf, off))


def _enc_trunk(m: TrunkMsg, p: int) -> bytes:
    inner = m.inner
    head = _HDR.pack(0x0E, p) + _S_TRUNK.pack(
        m.stamp, m.seq, m.flow, m.hop, m.subchannel,
        0 if inner is None else 1)
    if inner is None:
        return head
    return head + encode(inner, 0)


def _dec_trunk(buf: bytes, off: int) -> TrunkMsg:
    stamp, seq, flow, hop, sub, has_inner = _S_TRUNK.unpack_from(buf, off)
    inner = None
    if has_inner:
        inner, _promise = decode(buf[off + _S_TRUNK.size:])
    return TrunkMsg(stamp, seq, flow, hop, sub, inner)


def _enc_raw(m: RawMsg, p: int) -> bytes:
    parts = [_HDR.pack(0x0F, p), _S_BASE.pack(m.stamp, m.seq, m.flow, m.hop)]
    _pack_tail(parts, m.payload)
    return b"".join(parts)


def _dec_raw(buf: bytes, off: int) -> RawMsg:
    stamp, seq, flow, hop = _S_BASE.unpack_from(buf, off)
    payload, _ = _unpack_tail(buf, off + _S_BASE.size)
    return RawMsg(stamp, seq, flow, hop, payload)


_ENCODERS: Dict[type, Callable[[Any, int], bytes]] = {
    Msg: _enc_msg, SyncMsg: _enc_sync, EthMsg: _enc_eth, MmioMsg: _enc_mmio,
    MmioRespMsg: _enc_mmio_resp, DmaReadMsg: _enc_dma_read,
    DmaWriteMsg: _enc_dma_write, DmaCompletionMsg: _enc_dma_comp,
    InterruptMsg: _enc_intr, MemReadMsg: _enc_mem_read,
    MemWriteMsg: _enc_mem_write, MemRespMsg: _enc_mem_resp,
    MemInvalidateMsg: _enc_mem_inv, TrunkMsg: _enc_trunk, RawMsg: _enc_raw,
}

_DECODERS: Dict[int, Callable[[bytes, int], Msg]] = {
    TAGS[cls]: dec for cls, dec in {
        Msg: _dec_msg, SyncMsg: _dec_sync, EthMsg: _dec_eth,
        MmioMsg: _dec_mmio, MmioRespMsg: _dec_mmio_resp,
        DmaReadMsg: _dec_dma_read, DmaWriteMsg: _dec_dma_write,
        DmaCompletionMsg: _dec_dma_comp, InterruptMsg: _dec_intr,
        MemReadMsg: _dec_mem_read, MemWriteMsg: _dec_mem_write,
        MemRespMsg: _dec_mem_resp, MemInvalidateMsg: _dec_mem_inv,
        TrunkMsg: _dec_trunk, RawMsg: _dec_raw,
    }.items()
}


# -- public API --------------------------------------------------------------

def encode(msg: Msg, promise: int = 0) -> bytes:
    """Serialize one message (plus piggybacked horizon promise) to a frame.

    Unknown message types — and registered types whose field values don't
    fit their fixed layout — fall back to the pickle frame.
    """
    global _msg_pickles
    if _CODEC[0]:
        enc = _ENCODERS.get(type(msg))
        if enc is not None:
            try:
                return enc(msg, promise)
            except (struct.error, OverflowError, UnicodeEncodeError):
                pass
    _msg_pickles += 1
    return _HDR.pack(TAG_PICKLE, promise) + pickle.dumps(msg, _PROTO)


def decode(buf: bytes) -> Tuple[Msg, int]:
    """Deserialize one frame; returns ``(message, promise)``."""
    tag, promise = _HDR.unpack_from(buf, 0)
    if tag == TAG_PICKLE:
        return pickle.loads(buf[_HDR_SIZE:]), promise
    return _DECODERS[tag](buf, _HDR_SIZE), promise
