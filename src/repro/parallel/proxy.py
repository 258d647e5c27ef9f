"""Scale-out proxies: bridging SplitSim channels between machines.

SimBricks scales *out* with proxy components that forward channel messages
between simulator hosts over the network; SplitSim inherits this (paper
§4.1 methodology: "SplitSim supports SimBricks proxies for distributed
simulations and inherits their demonstrated scalability").

A :class:`ProxyPair` transparently splices a proxy hop into any channel: a
component that believes it talks to its peer over a local channel actually
talks to proxy A, which forwards over an inter-machine channel (with the
network's latency and per-message serialization at the proxy NIC rate) to
proxy B, which re-emits to the real peer.  Multiple logical channels share
one proxied connection, exactly like trunk channels.

Because the proxy hop adds latency, splicing a proxy *changes timing*
unless the original channel's latency already covers the detour; use
:func:`ProxyPair.splice` with ``preserve_latency=True`` (default) to keep
end-to-end channel latency identical by splitting the original latency
budget across the three hops — the configuration SimBricks uses (channel
latency must exceed the physical network latency for this to work).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..channels.channel import ChannelEnd
from ..channels.messages import Msg, wire_size_of
from ..channels.trunk import TrunkEnd
from ..kernel.component import Component
from ..kernel.simtime import US, bits_time

#: Modeled host cycles for forwarding one message through a proxy
#: (recv + serialize + send on a TCP socket).
PROXY_MSG_CYCLES = 6_000.0


class Proxy(Component):
    """One side of a proxy pair: forwards between local ends and the trunk."""

    cycles_per_event = PROXY_MSG_CYCLES

    def __init__(self, name: str, wire_latency_ps: int,
                 wire_bandwidth_bps: float = 10e9) -> None:
        super().__init__(name)
        self.wire_bandwidth_bps = wire_bandwidth_bps
        self.trunk = TrunkEnd(f"{name}.trunk", latency=wire_latency_ps)
        self.attach_end(self.trunk, self.trunk.dispatch)
        self._local_ends: List[ChannelEnd] = []
        self._wire_busy_until = 0
        #: When False (latency-preserving splice), forwarding overlaps with
        #: the absorbed latency budget, as SimBricks' batching proxies do.
        self.serialize_on_wire = True
        self.forwarded = 0

    def add_local(self, latency_ps: int) -> ChannelEnd:
        """Create the local channel end standing in for the remote peer."""
        idx = len(self._local_ends)
        end = ChannelEnd(f"{self.name}.local{idx}", latency=latency_ps)
        self.attach_end(end, lambda msg, i=idx: self._to_wire(i, msg))
        self.trunk.port(idx).on_receive(lambda msg, e=end: self._from_wire(e, msg))
        self._local_ends.append(end)
        return end

    def _to_wire(self, sub_id: int, msg: Msg) -> None:
        """Local message -> serialize onto the inter-machine wire."""
        if not self.serialize_on_wire:
            self._wire_send(sub_id, msg)
            return
        start = max(self.now, self._wire_busy_until)
        delay = bits_time(wire_size_of(msg) * 8, self.wire_bandwidth_bps)
        self._wire_busy_until = start + delay
        self.schedule(start + delay, self._wire_send, sub_id, msg)

    def _wire_send(self, sub_id: int, msg: Msg) -> None:
        self.forwarded += 1
        self.trunk.port(sub_id).send(msg, self.now)

    def _from_wire(self, end: ChannelEnd, msg: Msg) -> None:
        self.forwarded += 1
        end.send(msg, self.now)


class ProxyPair:
    """A matched pair of proxies bridging two simulation machines."""

    def __init__(self, name: str, wire_latency_ps: int = 10 * US,
                 wire_bandwidth_bps: float = 10e9) -> None:
        if wire_latency_ps <= 0:
            raise ValueError("wire latency must be positive")
        self.wire_latency_ps = wire_latency_ps
        self.a = Proxy(f"{name}.a", wire_latency_ps, wire_bandwidth_bps)
        self.b = Proxy(f"{name}.b", wire_latency_ps, wire_bandwidth_bps)

    def register(self, sim) -> None:
        """Add both proxies and their trunk to a Simulation."""
        sim.add(self.a)
        sim.add(self.b)
        sim.connect(self.a.trunk, self.b.trunk)

    def splice(self, sim, end_a: ChannelEnd, end_b: ChannelEnd,
               preserve_latency: bool = True) -> None:
        """Connect ``end_a`` (machine A) to ``end_b`` (machine B) via the
        proxies instead of directly.

        With ``preserve_latency`` the original channel latency is split
        across the three hops so end-to-end delivery times are unchanged;
        this requires the channel latency to exceed the wire latency.
        A trunk end cannot be spliced: the proxy's own trunk re-tags each
        message it forwards, which would overwrite the sub-channel tag.
        """
        if isinstance(end_a, TrunkEnd) or isinstance(end_b, TrunkEnd):
            raise ValueError("a trunk end cannot be spliced through a proxy")
        if preserve_latency:
            total = end_a.latency
            if end_b.latency != total:
                raise ValueError("asymmetric channel latencies")
            local = total - self.wire_latency_ps
            if local < 2:
                raise ValueError(
                    f"channel latency {total} too small to absorb the "
                    f"{self.wire_latency_ps} proxy wire latency")
            hop_a = local // 2
            hop_b = local - hop_a
            end_a.latency = hop_a
            end_b.latency = hop_b
            self.a.serialize_on_wire = False
            self.b.serialize_on_wire = False
        else:
            hop_a = end_a.latency
            hop_b = end_b.latency
        local_a = self.a.add_local(hop_a)
        local_b = self.b.add_local(hop_b)
        sim.connect(end_a, local_a)
        sim.connect(end_b, local_b)
