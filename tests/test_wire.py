"""Wire codec round-trip properties and fallback behaviour.

The core invariant: ``decode(encode(msg, promise))`` reconstructs an equal
message and the exact promise for *every* message class — via the struct
fast path for in-range values and transparently via the pickle fallback
otherwise.  ``Packet`` is a ``__slots__`` class without ``__eq__``, so
equality is checked field by field (:func:`msgs_equal`); everything else
uses record equality (``Record.__eq__``), which covers every field.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.channels import wire
from repro.channels.messages import (DmaCompletionMsg, DmaReadMsg,
                                     DmaWriteMsg, EthMsg, InterruptMsg,
                                     MemInvalidateMsg, MemReadMsg,
                                     MemRespMsg, MemWriteMsg, MmioMsg,
                                     MmioRespMsg, Msg, RawMsg, SyncMsg)
from repro.netsim.apps.kvproto import KvReply, KvRequest
from repro.netsim.packet import Packet

u64 = st.integers(min_value=0, max_value=2**64 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
u16 = st.integers(min_value=0, max_value=2**16 - 1)
small_bytes = st.binary(max_size=64)
kv_ops = st.sampled_from(["r", "w"])
kv_payloads = st.one_of(
    st.builds(KvRequest, op=kv_ops, key=u64, req_id=u64, client_addr=u64,
              client_ts=u64),
    st.builds(KvReply, op=kv_ops, key=u64, req_id=u64,
              served_by=st.integers(min_value=-1, max_value=2**63 - 1),
              value_bytes=u64))
payloads = st.one_of(st.none(), small_bytes,
                     st.integers(), st.text(max_size=16),
                     st.tuples(st.integers(), st.text(max_size=8)),
                     kv_payloads)

_PKT_FIELDS = ("src", "dst", "size_bytes", "proto", "src_port", "dst_port",
               "seq", "ack", "flags", "wnd", "data_len", "ect", "ce", "ece",
               "residence_ps", "arrival_ts", "payload", "create_ts", "hops",
               "uid", "flow")


def packets_equal(a, b):
    if a is None or b is None:
        return a is b
    return all(getattr(a, f) == getattr(b, f) for f in _PKT_FIELDS)


def msgs_equal(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, EthMsg):
        return ((a.stamp, a.seq, a.flow, a.hop, a.sub)
                == (b.stamp, b.seq, b.flow, b.hop, b.sub)
                and packets_equal(a.packet, b.packet))
    if isinstance(a, DmaCompletionMsg) and isinstance(a.data, Packet):
        return ((a.stamp, a.seq, a.flow, a.hop, a.sub, a.length, a.req_id)
                == (b.stamp, b.seq, b.flow, b.hop, b.sub, b.length, b.req_id)
                and packets_equal(a.data, b.data))
    return a == b


def packets():
    return st.builds(
        Packet,
        src=u64, dst=u64, size_bytes=u32,
        proto=st.sampled_from(["", "udp", "tcp", "raw"]),
        src_port=u16, dst_port=u16, seq=u64, ack=u64,
        flags=st.sampled_from(["", "S", "SA", "F"]),
        wnd=u32, data_len=u32, ect=st.booleans(), ce=st.booleans(),
        ece=st.booleans(), residence_ps=u64, arrival_ts=u64,
        payload=payloads, create_ts=u64, hops=u16, uid=u64, flow=u64,
    )


def messages():
    base = {"stamp": u64, "seq": u64, "flow": u64, "hop": u16, "sub": u32}
    return st.one_of(
        st.builds(Msg, **base),
        st.builds(SyncMsg, **base),
        st.builds(EthMsg, packet=st.one_of(st.none(), packets()), **base),
        st.builds(MmioMsg, addr=u64, value=u64, is_write=st.booleans(),
                  req_id=u32, **base),
        st.builds(MmioRespMsg, value=u64, req_id=u32, **base),
        st.builds(DmaReadMsg, addr=u64, length=u32, req_id=u32, **base),
        st.builds(DmaWriteMsg, addr=u64, data=st.one_of(st.none(),
                                                        small_bytes),
                  length=u32, req_id=u32, **base),
        st.builds(DmaCompletionMsg, data=st.one_of(st.none(), small_bytes,
                                                   packets()),
                  length=u32, req_id=u32, **base),
        st.builds(InterruptMsg, vector=u32, **base),
        st.builds(MemReadMsg, addr=u64, length=u32, req_id=u32, **base),
        st.builds(MemWriteMsg, addr=u64, length=u32, req_id=u32,
                  data=st.one_of(st.none(), small_bytes), **base),
        st.builds(MemRespMsg, req_id=u32, data=st.one_of(st.none(),
                                                         small_bytes),
                  is_write=st.booleans(), **base),
        st.builds(MemInvalidateMsg, addr=u64, **base),
        st.builds(RawMsg, payload=payloads, **base),
    )


@settings(max_examples=200, deadline=None)
@given(msg=messages(), promise=u64)
def test_roundtrip_every_class(msg, promise):
    out, p = wire.decode(wire.encode(msg, promise))
    assert msgs_equal(out, msg)
    assert p == promise


@settings(max_examples=50, deadline=None)
@given(msg=messages(), promise=u64)
def test_roundtrip_codec_disabled(msg, promise):
    wire.set_codec_enabled(False)
    try:
        buf = wire.encode(msg, promise)
        assert buf[0] == wire.TAG_PICKLE
        out, p = wire.decode(buf)
    finally:
        wire.set_codec_enabled(True)
    assert msgs_equal(out, msg) and p == promise


def test_out_of_range_values_fall_back_to_pickle():
    wire.reset_stats()
    cases = [
        MmioMsg(stamp=5, addr=-1),                 # negative -> no u64 fit
        InterruptMsg(stamp=5, vector=2**40),       # too wide for u32
        MemReadMsg(stamp=2**70),                   # stamp overflows u64
    ]
    for msg in cases:
        buf = wire.encode(msg, 7)
        assert buf[0] == wire.TAG_PICKLE
        out, promise = wire.decode(buf)
        assert out == msg and promise == 7
    assert wire.stats()["msg_pickle_fallbacks"] == len(cases)


class CustomMsg(RawMsg):
    """User-defined message type with no registered codec."""


def test_unknown_subclass_falls_back_to_pickle():
    wire.reset_stats()
    unknown = CustomMsg(stamp=9, payload=b"x")
    buf = wire.encode(unknown, 11)
    assert buf[0] == wire.TAG_PICKLE
    out, promise = wire.decode(buf)
    assert type(out) is CustomMsg
    assert out == unknown and promise == 11
    assert wire.stats()["msg_pickle_fallbacks"] == 1


def test_tag_table_is_injective_and_stable():
    tags = list(wire.TAGS.values())
    assert len(set(tags)) == len(tags)
    assert wire.TAG_PICKLE not in tags
    assert all(0 < t < 0x100 for t in tags)
    # pinned: the tag table is wire format; renumbering breaks mixed-version
    # rings
    assert wire.TAGS[Msg] == 0x01
    assert wire.TAGS[SyncMsg] == 0x02
    assert wire.TAGS[EthMsg] == 0x03
    assert wire.TAGS[RawMsg] == 0x0F
    # 0x0E was the trunk wrapper: retired, never reused
    assert 0x0E not in tags


def test_payload_pickle_counter():
    wire.reset_stats()
    wire.decode(wire.encode(RawMsg(payload=b"raw-bytes")))
    assert wire.stats()["payload_pickles"] == 0
    wire.decode(wire.encode(RawMsg(payload={"not": "bytes"})))
    assert wire.stats()["payload_pickles"] == 1


def test_eth_packet_struct_path_avoids_pickle():
    wire.reset_stats()
    pkt = Packet(src=1, dst=2, size_bytes=1500, proto="udp", src_port=10,
                 dst_port=20, payload=b"\x00" * 32)
    out, _ = wire.decode(wire.encode(EthMsg(stamp=3, packet=pkt)))
    s = wire.stats()
    assert s["msg_pickle_fallbacks"] == 0 and s["payload_pickles"] == 0
    got = out.packet
    assert (got.src, got.dst, got.size_bytes, got.proto, got.src_port,
            got.dst_port, got.payload) == (1, 2, 1500, "udp", 10, 20,
                                           b"\x00" * 32)


def _kv_packet(payload):
    return EthMsg(stamp=3, packet=Packet(src=1, dst=2, size_bytes=96,
                                         proto="udp", payload=payload))


@settings(max_examples=100, deadline=None)
@given(payload=kv_payloads)
def test_kv_payloads_have_a_fixed_tail_layout(payload):
    wire.reset_stats()
    out, _ = wire.decode(wire.encode(_kv_packet(payload)))
    s = wire.stats()
    assert s["msg_pickle_fallbacks"] == 0 and s["payload_pickles"] == 0
    assert out.packet.payload == payload
    assert type(out.packet.payload) is type(payload)


def test_kv_fields_outside_the_layout_pickle_the_tail_only():
    cases = [
        KvRequest(op="r", key=-1, req_id=1, client_addr=2),          # negative
        KvRequest(op="w", key=1, req_id=1, client_addr=2,
                  client_ts=2**64),                                  # > u64
        KvRequest(op="read", key=1, req_id=1, client_addr=2),        # op > 1 char
        KvReply(op="r", key=1, req_id=1, served_by=-2**63 - 1),      # < i64
    ]
    wire.reset_stats()
    for payload in cases:
        buf = wire.encode(_kv_packet(payload))
        assert buf[0] == wire.TAGS[EthMsg]  # the message keeps its layout
        out, _ = wire.decode(buf)
        assert out.packet.payload == payload
    s = wire.stats()
    assert s["payload_pickles"] == len(cases)
    assert s["msg_pickle_fallbacks"] == 0


def test_trunk_tag_roundtrip():
    # a trunked message crosses as itself: the sub-channel is a prefix field
    msg = EthMsg(stamp=9, seq=2, sub=3,
                 packet=Packet(src=7, dst=8, size_bytes=64))
    buf = wire.encode(msg, 123)
    assert buf[0] == wire.TAGS[EthMsg]
    out, promise = wire.decode(buf)
    assert promise == 123
    assert type(out) is EthMsg and out.sub == 3
    assert out.packet.src == 7 and out.packet.dst == 8


def test_sync_frame_is_compact():
    # a sync marker must stay far below pickle size:
    # header + stamp + seq + flow + hop + sub
    frame = wire.encode(SyncMsg(stamp=10**12), promise=10**12)
    assert len(frame) == 9 + 30
    assert len(frame) < len(pickle.dumps(SyncMsg(stamp=10**12)))


@settings(max_examples=200, deadline=None)
@given(msg=messages(), promise=u64)
def test_flow_fields_ride_the_struct_fast_path(msg, promise):
    """Provenance must not knock a message off the fixed-layout codec.

    Every message class carrying in-range flow/hop values round-trips with
    the fields intact and **zero** pickle fallbacks — the flow header is
    part of the common struct prefix, so tagged traffic costs the same as
    untagged on the multiprocess transport.
    """
    wire.reset_stats()
    out, p = wire.decode(wire.encode(msg, promise))
    assert wire.stats()["msg_pickle_fallbacks"] == 0
    assert (out.flow, out.hop) == (msg.flow, msg.hop)
    assert msgs_equal(out, msg) and p == promise
    if isinstance(msg, EthMsg) and msg.packet is not None:
        assert out.packet.flow == msg.packet.flow
