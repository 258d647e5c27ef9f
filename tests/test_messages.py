"""Tests for channel message types and their wire-size accounting."""

import pytest

from repro.channels.messages import (DmaCompletionMsg, DmaReadMsg,
                                     DmaWriteMsg, EthMsg, InterruptMsg,
                                     MemInvalidateMsg, MemReadMsg, MemRespMsg,
                                     MemWriteMsg, MmioMsg, MmioRespMsg, Msg,
                                     RawMsg, SyncMsg)
from repro.netsim.packet import Packet
from repro.record import Record


def test_sync_is_smallest():
    assert SyncMsg().wire_size() < Msg().wire_size()


def test_eth_wire_size_tracks_packet():
    small = EthMsg(packet=Packet(src=1, dst=2, size_bytes=64))
    big = EthMsg(packet=Packet(src=1, dst=2, size_bytes=1500))
    assert big.wire_size() - small.wire_size() == 1500 - 64


def test_eth_without_packet_has_default_size():
    assert EthMsg().wire_size() > 0


def test_dma_write_size_includes_payload():
    msg = DmaWriteMsg(data=b"x" * 100, length=100)
    assert msg.wire_size() >= 100


def test_dma_completion_size_includes_payload():
    msg = DmaCompletionMsg(data=b"y" * 256, length=256)
    assert msg.wire_size() >= 256


def test_default_stamps_are_zero():
    for cls in (SyncMsg, RawMsg, MmioMsg, MmioRespMsg, DmaReadMsg,
                DmaWriteMsg, DmaCompletionMsg, InterruptMsg, MemReadMsg,
                MemWriteMsg, MemRespMsg, MemInvalidateMsg):
        assert cls().stamp == 0


def test_mem_messages_carry_request_identity():
    req = MemReadMsg(addr=0x1000, req_id=42)
    resp = MemRespMsg(req_id=42)
    assert req.req_id == resp.req_id
    assert MemWriteMsg(addr=0x40).addr == 0x40
    assert MemInvalidateMsg(addr=0x80).addr == 0x80


def test_mmio_defaults():
    msg = MmioMsg(addr=0x100, value=7)
    assert msg.is_write
    read = MmioMsg(addr=0x200, is_write=False, req_id=5)
    assert not read.is_write
    assert MmioRespMsg(value=9, req_id=5).req_id == read.req_id


def test_record_fields_are_the_constructor_parameters():
    """A record's ``FIELDS`` is read from its ``__init__``, so the field
    order the wire decoders construct by has one source; a class without
    its own ``__init__`` has its base's fields."""
    assert Msg.FIELDS == ("stamp", "seq", "flow", "hop", "sub")
    assert SyncMsg.FIELDS == Msg.FIELDS
    assert MmioMsg.FIELDS == Msg.FIELDS + ("addr", "value", "is_write",
                                           "req_id")
    a, b = MmioMsg(1, addr=4, value=7), MmioMsg(1, addr=4, value=7)
    assert a == b and a != MmioMsg(1, addr=4, value=8)
    assert repr(a).startswith("MmioMsg(stamp=1, seq=0, flow=0, hop=0, "
                              "sub=0, addr=4, value=7,")

    with pytest.raises(TypeError, match="positional-or-keyword"):
        class _KeywordOnly(Record):
            def __init__(self, a, *, b=0):
                self.a, self.b = a, b
