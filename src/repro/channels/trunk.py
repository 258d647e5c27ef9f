"""Trunk channels: multiplex many logical links over one synchronized channel.

When a decomposed simulator partition has several links crossing to the same
peer partition, naively giving each link its own channel multiplies the
synchronization cost.  A :class:`TrunkEnd` instead carries all of them over a
single synchronized channel, tagging each message with a sub-channel id for
demultiplexing at the receiver (paper §3.2.1, "trunk adapter").  The tag is
the message's own ``sub`` field: a trunked message crosses as itself, in its
class's one wire layout, and the trunk end charges :data:`TAG_BYTES` per
message on top of the message's wire size.

Usage: create a ``TrunkEnd`` per side, :func:`~repro.channels.channel.connect`
them, then allocate matching :meth:`TrunkEnd.port` objects (same ``sub_id`` on
both sides) for each logical link.  Ports expose ``send`` and a received-
message handler, so higher layers can treat a port like a private link.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .channel import ChannelEnd
from .messages import Msg
from ..obs.flows import _ACTIVE as _FLOWS

#: Bytes a trunk end counts in ``tx_bytes`` per message for its sub-channel
#: tag (the cost a separate trunk header would have on a real wire).
TAG_BYTES = 16


class TrunkPort:
    """One logical sub-link of a trunk channel."""

    def __init__(self, trunk: "TrunkEnd", sub_id: int) -> None:
        self.trunk = trunk
        self.sub_id = sub_id
        self.handler: Optional[Callable[[Msg], None]] = None
        self.tx_msgs = 0
        self.rx_msgs = 0

    def send(self, msg: Msg, now: int) -> None:
        """Send ``msg`` over this logical link, tagged with its id."""
        self.tx_msgs += 1
        msg.sub = self.sub_id
        trunk = self.trunk
        trunk.send(msg, now)
        trunk.tx_bytes += TAG_BYTES

    def on_receive(self, handler: Callable[[Msg], None]) -> "TrunkPort":
        """Register the callback invoked for each delivered message."""
        self.handler = handler
        return self

    def _deliver(self, msg: Msg) -> None:
        self.rx_msgs += 1
        if self.handler is None:
            raise RuntimeError(
                f"trunk {self.trunk.name} port {self.sub_id}: message but no handler"
            )
        self.handler(msg)


class TrunkEnd(ChannelEnd):
    """Channel end that carries tagged sub-channel messages.

    The owning component should register :meth:`dispatch` as this end's
    message handler; it demultiplexes to the per-port handlers.
    """

    def __init__(self, name: str, latency: int, sync_interval: Optional[int] = None) -> None:
        super().__init__(name, latency, sync_interval)
        self._ports: Dict[int, TrunkPort] = {}

    def port(self, sub_id: int) -> TrunkPort:
        """Allocate (or fetch) the logical sub-link with id ``sub_id``."""
        if sub_id not in self._ports:
            self._ports[sub_id] = TrunkPort(self, sub_id)
        return self._ports[sub_id]

    @property
    def num_ports(self) -> int:
        """How many logical sub-links have been allocated."""
        return len(self._ports)

    def dispatch(self, msg: Msg) -> None:
        """Route a received message to the port its ``sub`` tag names."""
        port = self._ports.get(msg.sub)
        if port is None:
            raise RuntimeError(
                f"trunk {self.name}: message for unknown sub-channel {msg.sub}"
            )
        rec = _FLOWS[0]
        if rec is not None and msg.flow:
            owner = self.owner
            rec.hop(msg.flow, "demux",
                    owner.name if owner is not None else "?", msg.stamp,
                    at=self.name)
        port._deliver(msg)
