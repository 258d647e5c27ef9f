"""Message types carried over SplitSim channels.

Channels are typed by the messages they carry, mirroring the SimBricks
protocol families:

* **Ethernet** (`EthMsg`): frames between NICs, switches, and network
  simulator partitions.
* **PCI** (`DmaReadMsg`/`DmaWriteMsg`/`DmaCompletionMsg`/`MmioMsg`/
  `InterruptMsg`): host <-> NIC device interface.
* **Memory** (`MemReadMsg`/`MemWriteMsg`/`MemRespMsg`): gem5-style packetized
  memory requests, used to decompose multi-core host simulations.
* **Sync** (`SyncMsg`): pure synchronization, no payload.

A trunk channel (:mod:`repro.channels.trunk`) multiplexes several logical
sub-channels over one synchronized channel by tagging each message it
carries with ``sub``; it has no message class of its own.

Every message carries ``stamp``: the simulated time at which it takes effect
at the *receiver* (sender's send time plus channel latency).  Stamps on one
directed queue are non-decreasing; this monotonicity is what the conservative
synchronization protocol relies on.
"""

from __future__ import annotations

from typing import Any

from ..record import Record

# Each class writes out its whole ``__init__`` and calls no base class: a
# message is built per send, so its constructor stays one frame.  The
# ``__init__`` parameters are the message's ``FIELDS``, in order;
# :mod:`repro.channels.wire` checks its layout table against them.


class Msg(Record):
    """Base class for all channel messages."""

    __slots__ = ("stamp", "seq", "flow", "hop", "sub")

    #: Cached :meth:`wire_size` for fixed-size message classes (the common
    #: case on the per-send hot path); ``None`` on classes whose size
    #: depends on the payload.  Mirrors the precomputed ``Packet.size_bits``
    #: treatment: :func:`wire_size_of` reads the class constant and only
    #: calls the method for variable-size messages.
    WIRE_SIZE = 32

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0) -> None:
        self.stamp = stamp
        #: Global send order (assigned by :meth:`ChannelEnd.send` on
        #: synchronized ends, 0 otherwise).  Breaks same-stamp delivery ties
        #: across *different* channels of one receiver so the strict sync
        #: protocol dispatches them in the same order as the fast-mode
        #: oracle.
        self.seq = seq
        #: Causal flow id (``repro.obs.flows``): nonzero when the message
        #: belongs to a traced end-to-end flow.  Assigned at the message
        #: origin (app send, TCP segment birth) and propagated across every
        #: channel crossing — and through the struct wire codec — so per-hop
        #: records from different processes can be stitched back into one
        #: flow.  ``0`` = untagged; the field never influences simulated
        #: behaviour.
        self.flow = flow
        #: Channel-crossing index of this message within its flow
        #: (provenance ordering hint for the waterfall view).  Like
        #: ``flow``, purely observational.
        self.hop = hop
        #: Trunk sub-channel this message travels on (set by
        #: :meth:`~repro.channels.trunk.TrunkPort.send`, read by the
        #: receiving trunk end's dispatch); ``0`` on plain channels.
        self.sub = sub

    def wire_size(self) -> int:
        """Estimated serialized bytes (shm slot sizing + transfer cost)."""
        return 32


def wire_size_of(msg: "Msg") -> int:
    """Wire size of ``msg`` without recomputation for fixed-size classes."""
    ws = msg.WIRE_SIZE
    return ws if ws is not None else msg.wire_size()


class SyncMsg(Msg):
    """Pure synchronization marker: promises no earlier message will follow."""

    __slots__ = ()
    WIRE_SIZE = 8

    def wire_size(self) -> int:  # noqa: D102 - documented on the base class
        return 8


class EthMsg(Msg):
    """An Ethernet frame, carrying an opaque packet object."""

    __slots__ = ("packet",)
    WIRE_SIZE = None  # payload-dependent

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, packet: Any = None) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.packet = packet

    def wire_size(self) -> int:
        size = getattr(self.packet, "size_bytes", 64)
        return 32 + int(size)


class MmioMsg(Msg):
    """Host-initiated register read/write to the device (BAR access)."""

    __slots__ = ("addr", "value", "is_write", "req_id")

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, addr: int = 0, value: int = 0,
                 is_write: bool = True, req_id: int = 0) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.addr = addr
        self.value = value
        self.is_write = is_write
        self.req_id = req_id


class MmioRespMsg(Msg):
    """Completion of an MMIO read."""

    __slots__ = ("value", "req_id")

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, value: int = 0,
                 req_id: int = 0) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.value = value
        self.req_id = req_id


class DmaReadMsg(Msg):
    """Device-initiated DMA read of host memory."""

    __slots__ = ("addr", "length", "req_id")

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, addr: int = 0, length: int = 0,
                 req_id: int = 0) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.addr = addr
        self.length = length
        self.req_id = req_id


class DmaWriteMsg(Msg):
    """Device-initiated DMA write into host memory."""

    __slots__ = ("addr", "length", "req_id", "data")
    WIRE_SIZE = None  # payload-dependent

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, addr: int = 0, length: int = 0,
                 req_id: int = 0, data: Any = None) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.addr = addr
        self.length = length
        self.req_id = req_id
        self.data = data

    def wire_size(self) -> int:
        return 40 + self.length


class DmaCompletionMsg(Msg):
    """Host's completion of a device DMA read (carries the data)."""

    __slots__ = ("length", "req_id", "data")
    WIRE_SIZE = None  # payload-dependent

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, length: int = 0,
                 req_id: int = 0, data: Any = None) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.length = length
        self.req_id = req_id
        self.data = data

    def wire_size(self) -> int:
        return 40 + self.length


class InterruptMsg(Msg):
    """Device raises an interrupt (MSI-X style, by vector)."""

    __slots__ = ("vector",)

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, vector: int = 0) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.vector = vector


class MemReadMsg(Msg):
    """Packetized memory read request (gem5 port interface)."""

    __slots__ = ("addr", "length", "req_id")

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, addr: int = 0, length: int = 64,
                 req_id: int = 0) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.addr = addr
        self.length = length
        self.req_id = req_id


class MemWriteMsg(Msg):
    """Packetized memory write request (gem5 port interface)."""

    __slots__ = ("addr", "length", "req_id", "data")

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, addr: int = 0, length: int = 64,
                 req_id: int = 0, data: Any = None) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.addr = addr
        self.length = length
        self.req_id = req_id
        self.data = data


class MemRespMsg(Msg):
    """Memory response, matched to the request by ``req_id``."""

    __slots__ = ("req_id", "is_write", "data")

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, req_id: int = 0,
                 is_write: bool = False, data: Any = None) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.req_id = req_id
        self.is_write = is_write
        self.data = data


class MemInvalidateMsg(Msg):
    """Coherence invalidation pushed to a core that cached the line."""

    __slots__ = ("addr",)

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, addr: int = 0) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.addr = addr


class RawMsg(Msg):
    """Arbitrary payload message for tests and generic tooling."""

    __slots__ = ("payload",)

    def __init__(self, stamp: int = 0, seq: int = 0, flow: int = 0,
                 hop: int = 0, sub: int = 0, payload: Any = None) -> None:
        self.stamp = stamp
        self.seq = seq
        self.flow = flow
        self.hop = hop
        self.sub = sub
        self.payload = payload
