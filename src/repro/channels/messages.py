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

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Msg:
    """Base class for all channel messages."""

    #: Cached :meth:`wire_size` for fixed-size message classes (the common
    #: case on the per-send hot path); ``None`` on classes whose size
    #: depends on the payload.  Mirrors the precomputed ``Packet.size_bits``
    #: treatment: :func:`wire_size_of` reads the class constant and only
    #: calls the method for variable-size messages.
    WIRE_SIZE = 32

    stamp: int = 0
    #: Global send order (assigned by :meth:`ChannelEnd.send` on synchronized
    #: ends, 0 otherwise).  Breaks same-stamp delivery ties across *different*
    #: channels of one receiver so the strict sync protocol dispatches them in
    #: the same order as the fast-mode oracle.
    seq: int = 0
    #: Causal flow id (``repro.obs.flows``): nonzero when the message belongs
    #: to a traced end-to-end flow.  Assigned at the message origin (app send,
    #: TCP segment birth) and propagated across every channel crossing — and
    #: through the struct wire codec — so per-hop records from different
    #: processes can be stitched back into one flow.  ``0`` = untagged; the
    #: field never influences simulated behaviour.
    flow: int = 0
    #: Channel-crossing index of this message within its flow (provenance
    #: ordering hint for the waterfall view).  Like ``flow``, purely
    #: observational.
    hop: int = 0
    #: Trunk sub-channel this message travels on (set by
    #: :meth:`~repro.channels.trunk.TrunkPort.send`, read by the receiving
    #: trunk end's dispatch); ``0`` on plain channels.
    sub: int = 0

    def wire_size(self) -> int:
        """Estimated serialized bytes (shm slot sizing + transfer cost)."""
        return 32


def wire_size_of(msg: "Msg") -> int:
    """Wire size of ``msg`` without recomputation for fixed-size classes."""
    ws = msg.WIRE_SIZE
    return ws if ws is not None else msg.wire_size()


@dataclass
class SyncMsg(Msg):
    """Pure synchronization marker: promises no earlier message will follow."""

    WIRE_SIZE = 8

    def wire_size(self) -> int:  # noqa: D102 - documented on the base class
        return 8


@dataclass
class EthMsg(Msg):
    """An Ethernet frame, carrying an opaque packet object."""

    WIRE_SIZE = None  # payload-dependent

    packet: Any = None

    def wire_size(self) -> int:
        size = getattr(self.packet, "size_bytes", 64)
        return 32 + int(size)


@dataclass
class MmioMsg(Msg):
    """Host-initiated register read/write to the device (BAR access)."""

    addr: int = 0
    value: int = 0
    is_write: bool = True
    req_id: int = 0


@dataclass
class MmioRespMsg(Msg):
    """Completion of an MMIO read."""

    value: int = 0
    req_id: int = 0


@dataclass
class DmaReadMsg(Msg):
    """Device-initiated DMA read of host memory."""

    addr: int = 0
    length: int = 0
    req_id: int = 0


@dataclass
class DmaWriteMsg(Msg):
    """Device-initiated DMA write into host memory."""

    WIRE_SIZE = None  # payload-dependent

    addr: int = 0
    length: int = 0
    req_id: int = 0
    data: Any = None

    def wire_size(self) -> int:
        return 40 + self.length


@dataclass
class DmaCompletionMsg(Msg):
    """Host's completion of a device DMA read (carries the data)."""

    WIRE_SIZE = None  # payload-dependent

    length: int = 0
    req_id: int = 0
    data: Any = None

    def wire_size(self) -> int:
        return 40 + self.length


@dataclass
class InterruptMsg(Msg):
    """Device raises an interrupt (MSI-X style, by vector)."""

    vector: int = 0


@dataclass
class MemReadMsg(Msg):
    """Packetized memory read request (gem5 port interface)."""

    addr: int = 0
    length: int = 64
    req_id: int = 0


@dataclass
class MemWriteMsg(Msg):
    """Packetized memory write request (gem5 port interface)."""

    addr: int = 0
    length: int = 64
    req_id: int = 0
    data: Any = None


@dataclass
class MemRespMsg(Msg):
    """Memory response, matched to the request by ``req_id``."""

    req_id: int = 0
    is_write: bool = False
    data: Any = None


@dataclass
class MemInvalidateMsg(Msg):
    """Coherence invalidation pushed to a core that cached the line."""

    addr: int = 0


@dataclass
class RawMsg(Msg):
    """Arbitrary payload message for tests and generic tooling."""

    payload: Any = None
