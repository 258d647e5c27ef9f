"""Application base class for protocol-level hosts.

Applications written against this interface run on
:class:`~repro.netsim.node.NetHost` objects.  Detailed-host (guest)
applications live in :mod:`repro.hostsim.guest` instead and run on the
simulated OS — the split mirrors the paper's distinction between ns-3
applications and real Linux binaries.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..node import NetHost


class App:
    """Base protocol-level application."""

    def __init__(self) -> None:
        self.host: Optional["NetHost"] = None

    def bind(self, host: "NetHost") -> None:
        """Attach the app to its host (protocol-level or detailed OS)."""
        self.host = host

    def start(self) -> None:
        """Called when the network simulation starts."""

    # -- convenience ---------------------------------------------------------

    @property
    def stack(self):
        """The host's transport stack."""
        assert self.host is not None, "app not bound to a host"
        return self.host.stack

    @property
    def now(self) -> int:
        """Current simulated time."""
        assert self.host is not None
        return self.host.now

    def call_after(self, delay: int, fn, *args) -> None:
        """Post a callback relative to now."""
        assert self.host is not None
        self.host.call_after(delay, fn, *args)

    @property
    def rng(self):
        """The host's deterministic RNG stream."""
        assert self.host is not None
        return self.host.rng
