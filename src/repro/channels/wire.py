"""Wire codecs for the multiprocess channel transport.

Every registered :class:`~repro.channels.messages.Msg` subclass has one row
in :data:`_LAYOUT`: its one-byte type tag, the ``struct`` codes of its fixed
fields, and at most one variable *tail* field.  One encoder/decoder pair is
built from each row at import, so the shared-memory rings never pay
``pickle`` for protocol traffic — the same fixed-layout-frame property
SimBricks gets from its C shared-memory queues.  A trunked message crosses
in its own class's layout: the trunk sub-channel is the ``sub`` field of
the common prefix.

Frame layout (everything little-endian)::

    [u8 tag][u64 promise][stamp u64, seq u64, flow u64, hop u16, sub u32]
    [fixed fields...][tail]

``promise`` piggybacks the sender's sync horizon on every frame: the
sender guarantees that no *future* frame on this queue will carry a
delivery stamp below ``promise``.  Data frames make explicit ``SyncMsg``
markers unnecessary while traffic flows — the receiver raises its input
horizon to ``max(stamp, promise)`` per frame.  A promise of ``0`` carries
no information beyond the stamp itself.

A tail is one kind byte and a body (:func:`_pack_tail`): ``None``, raw
``bytes``, the KV case study's request/reply objects and ``Packet`` have
fixed layouts; any other payload object is pickled *inside* the tail.
Message types without a row (user-defined subclasses) — and registered
types whose field values don't fit their layout (negative addresses, huge
ints) — fall back to pickling the whole message behind the distinct
:data:`TAG_PICKLE` tag, so the codec never restricts what a message may
carry.  Both fallbacks are counted (:func:`stats`) so the observability
layer can report how much of a run's traffic left the fast path.

The codec can be disabled globally (:func:`set_codec_enabled`), which
forces every frame through the pickle tag; the determinism tests run the
multiprocess transport both ways and pin identical event timelines.
"""

from __future__ import annotations

import pickle
import struct
from struct import Struct
from typing import Any, Callable, Dict, Optional, Tuple

from .messages import (DmaCompletionMsg, DmaReadMsg, DmaWriteMsg, EthMsg,
                       InterruptMsg, MemInvalidateMsg, MemReadMsg, MemRespMsg,
                       MemWriteMsg, MmioMsg, MmioRespMsg, Msg, RawMsg,
                       SyncMsg)
from ..netsim.apps.kvproto import KvReply, KvRequest
from ..netsim.packet import Packet

_PROTO = pickle.HIGHEST_PROTOCOL

#: Whole-message pickle fallback tag (distinct from every registered tag).
TAG_PICKLE = 0xFF

#: Frame header: tag + piggybacked horizon promise.
_HDR = Struct("<BQ")
_HDR_SIZE = _HDR.size
_LEN32 = Struct("<I")

#: The fields every body starts with, and their codes.  ``flow``/``hop``
#: are the causal-provenance fields (repro.obs.flows) and ``sub`` the trunk
#: sub-channel: fixed-layout, so tagged traffic never leaves the struct
#: fast path.
_PREFIX = ("stamp", "seq", "flow", "hop", "sub")
_PREFIX_CODES = "QQQHI"

#: The wire-format table: class, tag (never renumber; 0x0E, the retired
#: trunk wrapper, is never reused), the fixed fields after the prefix as
#: ``name:code``, and the tail field (last in the class) or ``None``.
_LAYOUT = (
    (Msg, 0x01, "", None),
    (SyncMsg, 0x02, "", None),
    (EthMsg, 0x03, "", "packet"),
    (MmioMsg, 0x04, "addr:Q value:Q is_write:? req_id:I", None),
    (MmioRespMsg, 0x05, "value:Q req_id:I", None),
    (DmaReadMsg, 0x06, "addr:Q length:I req_id:I", None),
    (DmaWriteMsg, 0x07, "addr:Q length:I req_id:I", "data"),
    (DmaCompletionMsg, 0x08, "length:I req_id:I", "data"),
    (InterruptMsg, 0x09, "vector:I", None),
    (MemReadMsg, 0x0A, "addr:Q length:I req_id:I", None),
    (MemWriteMsg, 0x0B, "addr:Q length:I req_id:I", "data"),
    (MemRespMsg, 0x0C, "req_id:I is_write:?", "data"),
    (MemInvalidateMsg, 0x0D, "addr:Q", None),
    (RawMsg, 0x0F, "", "payload"),
)

#: One-byte tag per registered message class (the wire-format tag table).
TAGS: Dict[type, int] = {cls: tag for cls, tag, _, _ in _LAYOUT}

#: Payload-tail kinds.
_TAIL_NONE = b"\x00"
_TAIL_BYTES = b"\x01"
_TAIL_PICKLE = b"\x02"
_TAIL_KV_REQUEST = b"\x03"
_TAIL_KV_REPLY = b"\x04"
_TAIL_PACKET = b"\x05"
# KV case-study payloads (repro.netsim.apps.kvproto), the one object
# payload the packet workloads put on cut links in volume.  Both start
# with op (one ASCII char), key, req_id.
_S_KV_REQUEST = Struct("<cQQQQ")     # + client_addr, client_ts
_S_KV_REPLY = Struct("<cQQqQ")       # + served_by (-1 = switch), value_bytes
# Packet: src, dst, size_bytes, src_port, dst_port, seq, ack, wnd,
# data_len, ecn bits, residence_ps, arrival_ts, create_ts, hops, uid, flow;
# then proto and flags as length-prefixed ASCII and the payload as a tail
_S_PACKET = Struct("<QQIHHQQIIBQQQHQQ")

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


# -- tails ---------------------------------------------------------------------

def _pack_str(s: str) -> bytes:
    raw = s.encode("ascii")
    if len(raw) > 255:
        raise struct.error("string field too long for wire format")
    return bytes((len(raw),)) + raw


def _unpack_str(buf: bytes, off: int) -> Tuple[str, int]:
    length = buf[off]
    off += 1
    return buf[off:off + length].decode("ascii"), off + length


def _pack_kv_request(r: KvRequest) -> bytes:
    return _TAIL_KV_REQUEST + _S_KV_REQUEST.pack(
        r.op.encode("ascii"), r.key, r.req_id, r.client_addr, r.client_ts)


def _pack_kv_reply(r: KvReply) -> bytes:
    return _TAIL_KV_REPLY + _S_KV_REPLY.pack(
        r.op.encode("ascii"), r.key, r.req_id, r.served_by, r.value_bytes)


_KV_PACKERS: Dict[type, Callable[[Any], bytes]] = {
    KvRequest: _pack_kv_request, KvReply: _pack_kv_reply,
}


def _pack_packet(pkt: Packet) -> bytes:
    # a field outside the packet's layout raises: the whole message then
    # takes the pickle frame
    return b"".join((
        _TAIL_PACKET,
        _S_PACKET.pack(
            pkt.src, pkt.dst, pkt.size_bytes, pkt.src_port, pkt.dst_port,
            pkt.seq, pkt.ack, pkt.wnd, pkt.data_len,
            pkt.ect | (pkt.ce << 1) | (pkt.ece << 2),
            pkt.residence_ps, pkt.arrival_ts, pkt.create_ts, pkt.hops,
            pkt.uid, pkt.flow),
        _pack_str(pkt.proto), _pack_str(pkt.flags), _pack_tail(pkt.payload)))


def _pack_tail(obj: Any) -> bytes:
    global _payload_pickles
    if obj is None:
        return _TAIL_NONE
    kind = type(obj)
    if kind is bytes:
        return _TAIL_BYTES + _LEN32.pack(len(obj)) + obj
    if kind is Packet:
        return _pack_packet(obj)
    pack = _KV_PACKERS.get(kind)
    if pack is not None:
        try:
            return pack(obj)
        except (struct.error, OverflowError, UnicodeEncodeError):
            pass  # a field outside its fixed layout: pickle this tail
    _payload_pickles += 1
    blob = pickle.dumps(obj, _PROTO)
    return _TAIL_PICKLE + _LEN32.pack(len(blob)) + blob


def _unpack_tail(buf: bytes, off: int) -> Tuple[Any, int]:
    kind = buf[off]
    off += 1
    if kind == 0:
        return None, off
    if kind == 5:
        (src, dst, size_bytes, src_port, dst_port, seq, ack, wnd, data_len,
         ecn, residence_ps, arrival_ts, create_ts, hops,
         uid, flow) = _S_PACKET.unpack_from(buf, off)
        proto, off = _unpack_str(buf, off + _S_PACKET.size)
        flags, off = _unpack_str(buf, off)
        payload, off = _unpack_tail(buf, off)
        return Packet(src, dst, size_bytes, proto, src_port, dst_port, seq,
                      ack, flags, wnd, data_len, bool(ecn & 1),
                      bool(ecn & 2), bool(ecn & 4), residence_ps, arrival_ts,
                      payload, create_ts, hops, uid, flow), off
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


# -- one codec pair per layout row ---------------------------------------------

def _codec(cls: type, tag: int, fixed: str,
           tail: Optional[str]) -> Tuple[Callable[[Any, int], bytes],
                               Callable[[bytes, int], Msg]]:
    """The encoder and decoder of one :data:`_LAYOUT` row.

    The decoder constructs positionally, so the row must list the class's
    ``FIELDS`` (its ``__init__`` parameters) in order, the tail (if any)
    last.  The encoder
    is compiled from the row: it reads each field as an attribute and
    calls ``pack`` with them directly, which costs about half of packing a
    tuple gathered with ``attrgetter``.
    """
    names = [*_PREFIX]
    codes = _PREFIX_CODES
    for spec in fixed.split():
        name, code = spec.split(":")
        names.append(name)
        codes += code
    listed = names + ([tail] if tail else [])
    declared = list(cls.FIELDS)
    if declared != listed:
        raise TypeError(f"wire layout of {cls.__name__} lists {listed}, "
                        f"but its fields are {declared}")
    src = (f"def enc(m, p):\n    return pack({tag}, p, "
           + ", ".join(f"m.{name}" for name in names) + ")"
           + (f" + pack_tail(m.{tail})" if tail else ""))
    scope = {"pack": Struct("<BQ" + codes).pack, "pack_tail": _pack_tail}
    exec(src, scope)
    body = Struct("<" + codes)
    unpack, size = body.unpack_from, body.size
    if tail is None:
        def dec(buf, off):
            return cls(*unpack(buf, off))
    else:
        def dec(buf, off):
            return cls(*unpack(buf, off), _unpack_tail(buf, off + size)[0])
    return scope["enc"], dec


_ENCODERS: Dict[type, Callable[[Any, int], bytes]] = {}
_DECODERS: Dict[int, Callable[[bytes, int], Msg]] = {}
for _row in _LAYOUT:
    _ENCODERS[_row[0]], _DECODERS[_row[1]] = _codec(*_row)
del _row


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
