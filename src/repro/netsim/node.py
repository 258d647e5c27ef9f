"""Network nodes: the base class and protocol-level hosts.

A :class:`NetHost` is the ns-3-style host: its applications and transport
stack execute with **zero modeled CPU cost** (optionally a fixed per-packet
processing delay).  That is precisely the fidelity gap the paper's case
studies expose — protocol-level hosts are infinitely fast, so server-side
software bottlenecks are invisible.  Detailed hosts live in
:mod:`repro.hostsim` and attach to the network via external links instead.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..kernel.rng import make_rng
from .link import Port
from .packet import Packet
from .transport.stack import Stack

if TYPE_CHECKING:  # pragma: no cover
    from .network import NetworkSim


class Node:
    """Anything attachable to links: hosts and switches."""

    def __init__(self, net: "NetworkSim", name: str) -> None:
        self.net = net
        self.name = name
        self.ports: List[Port] = []

    def new_port(self) -> Port:
        """Allocate the next attachment point on this node."""
        port = Port(self, len(self.ports))
        self.ports.append(port)
        return port

    def receive(self, pkt: Packet, port: Port) -> None:
        """Handle a packet delivered to this node on ``port``."""
        raise NotImplementedError

    def invalidate_routes(self) -> None:
        """Topology-change hook: drop any cached forwarding decisions.

        No-op for plain nodes; switches clear their route cache.  Called by
        :meth:`NetworkSim.add_link` / :meth:`NetworkSim.add_external`.
        """

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


class NetHost(Node):
    """Protocol-level end host with a transport stack and applications.

    Implements the stack environment interface (``now``, ``call_after``,
    ``timer``, ``cancel``, ``postpone``, ``tx``, ``charge``, ``rng``):
    ``call_after`` posts and returns nothing, ``timer`` returns the handle
    ``cancel`` and ``postpone`` take; ``charge`` is a no-op because
    protocol-level host software is free, by definition, and
    ``models_cost = False`` says so once, so the stack, TCP and the KV
    server never compute what they would charge.
    """

    models_cost = False

    def __init__(self, net: "NetworkSim", name: str, addr: int,
                 rx_proc_delay_ps: int = 0) -> None:
        super().__init__(net, name)
        self.addr = addr
        self.rx_proc_delay_ps = rx_proc_delay_ps
        self.stack = Stack(env=self, addr=addr)
        self.apps: list = []
        self._rng = make_rng(net.seed_root, f"host.{name}")
        # hot-path cache: the per-packet receive path skips two attribute
        # traversals per delivery.  ``net.call_after`` is not cached: it is
        # bound to the network's queue, which the fast-mode coordinator
        # replaces after construction.
        self._handle_packet = self.stack.handle_packet

    # -- stack environment interface ---------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time (stack environment interface)."""
        return self.net.now

    def call_after(self, delay: int, fn, *args) -> None:
        """Post a callback relative to now (stack environment interface)."""
        self.net.call_after(delay, fn, *args)

    def timer(self, delay: int, fn, *args):
        """Schedule a callback relative to now; return its handle."""
        return self.net.timer(delay, fn, *args)

    def cancel(self, ev) -> None:
        """Cancel a previously scheduled callback."""
        self.net.cancel(ev)

    def postpone(self, ev, delay: int) -> bool:
        """Re-arm a pending callback for ``delay`` from now, in place."""
        net = self.net
        return net.queue.postpone(ev, net.now + delay)

    def tx(self, pkt: Packet) -> None:
        """Transmit a packet out this host's (single) network port."""
        if not self.ports:
            raise RuntimeError(f"{self.name}: host has no network port")
        pkt.create_ts = pkt.create_ts or self.net.now
        egress = self.ports[0].egress
        if egress is None:
            self.ports[0].send(pkt)  # raises: not linked
        egress.transmit(pkt)

    def charge(self, instructions: int) -> None:
        """Protocol-level hosts model no software execution cost."""

    @property
    def rng(self):
        """Per-host deterministic RNG stream (partitioning-independent)."""
        return self._rng

    def clock_ps(self) -> int:
        """Protocol-level hosts have perfect clocks (the simulated time)."""
        return self.net.now

    # -- network side -------------------------------------------------------

    def receive(self, pkt: Packet, port: Port) -> None:
        """Deliver a received packet to the transport stack."""
        if self.rx_proc_delay_ps > 0:
            self.net.call_after(self.rx_proc_delay_ps, self._handle_packet, pkt)
        else:
            self._handle_packet(pkt)

    # -- applications --------------------------------------------------------

    def add_app(self, app) -> None:
        """Attach an application; it is started when the simulation starts."""
        self.apps.append(app)
        app.bind(self)
