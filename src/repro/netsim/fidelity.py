"""Declarative fidelity-tier selection for the network simulator.

A :class:`FidelityConfig` attached to an
:class:`~repro.orchestration.instantiate.Instantiation` chooses, per link
direction and per flow, how much detail the network spends:

``batching``
    The packet tier's batched fast path — a link assigns each packet its
    serialization slot at enqueue and schedules only its delivery: no
    ``tx_done`` per packet and no completion event (idleness is ``now``
    against the busy horizon), preserving ECN/drop decisions bit-for-bit
    (see :mod:`repro.netsim.link`).
``fluid``
    The flow-level tier — eligible long-lived DCTCP flows are promoted out
    of the packet path entirely and advanced in rate-space between discrete
    rate-update ticks (see :mod:`repro.netsim.fluid`).  Short RPC traffic
    stays packet-level; flows hand back to the packet tier to finish.

The default ``Instantiation`` (no fidelity config) is pure packet-level,
so every existing experiment and the pinned event-timeline determinism
digest are untouched.

:func:`packet_digest` defines the *packet-observable* digest used to pin
the batched path against the per-packet oracle: the kernel event timeline
necessarily differs when batching fuses events, so equivalence is asserted
over what the network delivers — every packet arrival at every protocol
host (timestamp, addressing, TCP/ECN state) plus the final per-queue
drop/mark/depth statistics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class FidelityConfig:
    """Per-link / per-flow fidelity choices, applied at build time.

    Parameters
    ----------
    batching:
        Enable the batched link drain on every direction.
    fluid:
        Install the fluid flow-level tier on each network partition.
    fluid_links:
        Direction-label predicate restricting which links a fluid flow's
        path may traverse; a flow is only promoted when *every* hop on its
        path is eligible.  ``None`` allows all internal links.

    The fluid tier's tick and handoff thresholds are constants of
    :mod:`repro.netsim.fluid`.
    """

    batching: bool = False
    fluid: bool = False
    fluid_links: Optional[Callable[[str], bool]] = None

    def apply(self, net) -> None:
        """Install the selected tiers on one network partition."""
        if self.batching:
            net.enable_batching()
        if self.fluid:
            from .fluid import FluidDomain
            FluidDomain.install(net, self)


def _queue_stat_lines(net) -> list:
    """Final per-queue statistics lines, in stable topology order."""
    lines = []
    for direction, _ in net._all_directions():
        if direction._run:
            # align in-flight batched runs with the per-packet path, which
            # dequeues each packet the moment it starts serializing
            direction._settle(net.now)
        st = direction.queue.stats
        # max_depth is deliberately excluded: a same-ps enqueue racing the
        # same-ps head dequeue is a concurrent tie (DESIGN.md §3) whose
        # order the two paths may resolve differently, momentarily reading
        # depth one higher without affecting any mark/drop decision.
        lines.append(f"q {net.name} {direction.label} {st.enqueued} "
                     f"{st.dequeued} {st.dropped} {st.ecn_marked}")
    return lines


def queue_decision_digest(system, duration_ps: int, fidelity=None,
                          mode: str = "fast") -> str:
    """SHA-256 over every queue's final enqueue/dequeue/drop/mark counters.

    The batched path guarantees queue *decisions* bit-for-bit
    unconditionally — including on workloads where phase-locked senders
    collide at the same picosecond on a shared queue and the service
    order of the colliding (concurrent, DESIGN.md §3) packets may swap.
    Use :func:`packet_digest` for the stronger per-delivery equivalence
    on collision-free workloads.
    """
    from ..orchestration.instantiate import Instantiation

    exp = Instantiation(system=system, mode=mode, fidelity=fidelity).build()
    exp.run(duration_ps)
    h = hashlib.sha256()
    for net in exp.network_components():
        for line in _queue_stat_lines(net):
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def packet_digest(system, duration_ps: int, fidelity=None,
                  mode: str = "fast") -> str:
    """SHA-256 over everything the network observably delivers.

    Builds and runs ``system`` for ``duration_ps`` under the given
    fidelity config, recording every packet handed to a protocol-level
    host (delivery time, addresses, ports, TCP seq/ack/flags, payload
    length, wire size, ECN state) plus the final per-queue statistics.
    Two configs that produce the same digest delivered bit-identical
    traffic through identically-behaving queues.

    Records are hashed in sorted order: deliveries at the *same picosecond*
    to *different* hosts are concurrent (DESIGN.md §3 tie semantics — the
    batched path may execute them in a different kernel order), and every
    record embeds its own timestamp, so sorting canonicalizes exactly that
    reordering and nothing else.
    """
    from ..netsim.node import NetHost
    from ..orchestration.instantiate import Instantiation

    exp = Instantiation(system=system, mode=mode, fidelity=fidelity).build()
    lines: list = []

    def tap(net, name, handler):
        def wrapped(pkt):
            lines.append(
                f"{name} {net.now} {pkt.src} {pkt.dst} {pkt.proto} "
                f"{pkt.src_port} {pkt.dst_port} {pkt.seq} {pkt.ack} "
                f"{pkt.flags} {pkt.data_len} {pkt.size_bytes} "
                f"{int(pkt.ce)} {int(pkt.ece)}")
            handler(pkt)
        return wrapped

    for net in exp.network_components():
        for node in net.nodes.values():
            if isinstance(node, NetHost):
                node._handle_packet = tap(net, node.name, node._handle_packet)
    exp.run(duration_ps)
    for net in exp.network_components():
        lines.extend(_queue_stat_lines(net))
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
