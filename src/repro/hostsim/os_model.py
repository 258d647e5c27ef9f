"""The simulated operating system of a detailed host.

``SimOS`` presents the *same* environment interface that protocol-level
hosts give their applications (``stack``, ``now``, ``call_after``,
``charge``, ``rng``, ``clock_ps``), so unmodified application classes run
on either fidelity — the reproduction's analogue of "the end-to-end
simulation runs the unmodified Linux applications".

What differs is cost: ``charge(instructions)`` advances a single-core CPU
occupancy ledger (``cpu_free_at``).  Transmissions wait for the CPU to
drain, and received packets are delivered to the stack only when the CPU is
free — so a saturated server builds a software queue and its clients see
hundreds of microseconds of latency, exactly the effect protocol-level
simulation cannot show (paper Fig. 4/5).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..kernel.rng import make_rng
from ..netsim.packet import Packet
from ..obs.flows import _ACTIVE as _FLOWS
from ..netsim.transport.stack import Stack
from .clock import DriftingClock
from .driver import NicDriver

if TYPE_CHECKING:  # pragma: no cover
    from .host import HostSim


class SimOS:
    """Single-core OS model: sockets, timers, CPU accounting, clock."""

    def __init__(self, host: "HostSim", addr: int, driver: NicDriver,
                 clock: Optional[DriftingClock] = None, seed: int = 0) -> None:
        self.host = host
        self.addr = addr
        self.driver = driver
        driver.bind(self)
        self.clock = clock or DriftingClock()
        self.rng = make_rng(seed, f"{host.name}.os")
        self.stack = Stack(env=self, addr=addr)
        self.apps: List = []

        self.cpu_free_at = 0
        self.cpu_busy_ps = 0
        self.instructions_retired = 0
        #: pkt uid -> hardware rx timestamp (consumed by PTP daemons)
        self._hw_rx_ts: Dict[int, int] = {}
        #: pkt uid -> kernel (software) rx timestamp: the local clock read
        #: in interrupt context, before CPU queueing (SO_TIMESTAMPNS)
        self._sw_rx_ts: Dict[int, int] = {}
        #: pkt uid -> callback wanting the kernel tx timestamp
        self._sw_tx_cbs: Dict[int, Callable[[int], None]] = {}

    # -- environment interface (same shape as NetHost) ------------------------

    @property
    def now(self) -> int:
        """Current simulated time (stack environment interface)."""
        return self.host.now

    def call_after(self, delay: int, fn: Callable, *args):
        """Schedule a callback (stack environment interface)."""
        return self.host.call_after(delay, fn, *args)

    def cancel(self, ev) -> None:
        """Cancel a scheduled callback."""
        self.host.cancel(ev)

    def postpone(self, ev, delay: int) -> bool:
        """Re-arm a pending callback for ``delay`` from now, in place."""
        return self.host.postpone(ev, delay)

    def charge(self, instructions: int) -> None:
        """Execute ``instructions`` on the (single) guest CPU."""
        if instructions <= 0:
            return
        duration = self.host.cpu.time_for(instructions)
        self.cpu_busy_ps += duration
        self.instructions_retired += instructions
        self.cpu_free_at = max(self.cpu_free_at, self.now) + duration
        self.host.add_work(self.host.cpu.host_cycles(instructions))

    def tx(self, pkt: Packet) -> None:
        """Hand a packet to the NIC once the CPU has executed the tx path."""
        at = max(self.now, self.cpu_free_at)
        self.host.schedule(at, self._do_tx, pkt)

    def _do_tx(self, pkt: Packet) -> None:
        cb = self._sw_tx_cbs.pop(pkt.uid, None)
        if cb is not None:
            # kernel software tx timestamp (SO_TIMESTAMPING TX_SOFTWARE):
            # the local clock when the packet actually leaves the stack
            cb(self.clock_ps())
        rec = _FLOWS[0]
        if rec is not None and pkt.flow:
            # CPU-queueing exit: the tx path actually ran on the guest CPU
            rec.hop(pkt.flow, "cpu", self.host.name, self.now,
                    at=self.host.name)
        self.driver.transmit(pkt)

    def request_sw_tx_ts(self, pkt: Packet,
                         cb: Callable[[int], None]) -> None:
        """Ask for the kernel tx timestamp of a packet queued with tx()."""
        self._sw_tx_cbs[pkt.uid] = cb

    def clock_ps(self) -> int:
        """What ``clock_gettime`` returns: the drifting, disciplined clock."""
        return self.clock.read(self.now)

    # -- receive path ------------------------------------------------------------

    def on_rx_packet(self, pkt: Packet, hw_rx_ts: Optional[int] = None) -> None:
        """Driver upcall: queue the packet for stack processing."""
        if hw_rx_ts is not None:
            self._hw_rx_ts[pkt.uid] = hw_rx_ts
            if len(self._hw_rx_ts) > 4096:  # drop stale timestamps
                self._hw_rx_ts.pop(next(iter(self._hw_rx_ts)))
        self._sw_rx_ts[pkt.uid] = self.clock_ps()
        if len(self._sw_rx_ts) > 4096:
            self._sw_rx_ts.pop(next(iter(self._sw_rx_ts)))
        deliver_at = max(self.now, self.cpu_free_at)
        self.host.schedule(deliver_at, self.stack.handle_packet, pkt)

    def pop_hw_rx_ts(self, pkt: Packet) -> Optional[int]:
        """Retrieve (and clear) the PHC rx timestamp of a packet."""
        return self._hw_rx_ts.pop(pkt.uid, None)

    def pop_sw_rx_ts(self, pkt: Packet) -> Optional[int]:
        """Kernel rx timestamp (local clock at interrupt time)."""
        return self._sw_rx_ts.pop(pkt.uid, None)

    def request_tx_timestamp(self, pkt: Packet,
                             cb: Callable[[int], None]) -> None:
        """Ask the NIC for the hardware tx timestamp of a queued packet."""
        self.driver.request_tx_timestamp(pkt.uid, cb)

    # -- applications ----------------------------------------------------------

    def add_app(self, app) -> None:
        """Install a guest application on this OS."""
        self.apps.append(app)
        app.bind(self)

    # Convenience so apps written against NetHost also work here.
    @property
    def host_addr(self) -> int:
        """Alias for ``addr`` (NetHost interface compatibility)."""
        return self.addr

    def utilization(self, window_ps: int) -> float:
        """CPU busy fraction over the whole run (approximate)."""
        if window_ps <= 0:
            return 0.0
        return min(1.0, self.cpu_busy_ps / window_ps)
