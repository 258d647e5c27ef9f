"""Behavioral model of an Intel X710/i40e NIC (the SimBricks ``i40e_bm``).

One NIC is one SplitSim component with two channel ends:

* ``pci`` — to its host (MMIO doorbells in, DMA reads/writes and MSI-X out);
* ``eth`` — to the network (frames in/out).

The model captures what the case studies need: descriptor-ring DMA latency
on both paths, store-and-forward serialization at line rate on transmit,
a PTP hardware clock (PHC) with its own drift, and hardware rx/tx
timestamping of PTP event packets (consumed by ``ptp4l``).
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from ..channels.channel import ChannelEnd
from ..channels.messages import (DmaCompletionMsg, DmaReadMsg, DmaWriteMsg,
                                 EthMsg, InterruptMsg, MmioMsg, MmioRespMsg,
                                 Msg)
from ..hostsim.clock import DriftingClock
from ..hostsim.driver import (REG_PHC_FREQ_ADJ, REG_PHC_STEP, REG_PHC_TIME,
                              REG_TX_DOORBELL, RxEntry, TxDone)
from ..kernel.component import Component
from ..kernel.rng import make_rng
from ..kernel.simtime import NS, bits_time
from ..netsim.packet import Packet
from ..parallel.costmodel import (NIC_BASELINE_CYCLES_PER_PS,
                                  NIC_EVENT_CYCLES)

#: Internal NIC datapath latencies (descriptor processing, buffering).
TX_PROC_PS = 600 * NS
RX_PROC_PS = 500 * NS


def is_ptp_event(pkt: Packet) -> bool:
    """PTP event packets get hardware timestamps (Sync, Delay_Req)."""
    return bool(getattr(pkt.payload, "ptp_event", False))


class I40eNic(Component):
    """Behavioral i40e NIC component."""

    cycles_per_event = NIC_EVENT_CYCLES
    baseline_cycles_per_ps = NIC_BASELINE_CYCLES_PER_PS

    def __init__(self, name: str, line_rate_bps: float = 10e9,
                 eth_latency_ps: int = 500 * NS,
                 pci_latency_ps: int = 250 * NS,
                 phc_drift_ppm: Optional[float] = None,
                 seed: int = 0) -> None:
        super().__init__(name)
        self.line_rate_bps = line_rate_bps
        rng = make_rng(seed, f"{name}.phc")
        drift = (phc_drift_ppm if phc_drift_ppm is not None
                 else rng.uniform(-5.0, 5.0))
        #: PTP hardware clock: much more stable than host clocks.
        self.phc = DriftingClock(drift_ppm=drift)

        self.pci = ChannelEnd(f"{name}.pci", latency=pci_latency_ps)
        self.eth = ChannelEnd(f"{name}.eth", latency=eth_latency_ps)
        self.attach_end(self.pci, self._on_pci)
        self.attach_end(self.eth, self._on_eth)

        self._dma_req_ids = count()
        self._dma_pending: dict[int, int] = {}  # dma req id -> tx slot
        #: flow id riding each in-flight descriptor fetch (provenance only)
        self._dma_flow: dict[int, int] = {}
        self._tx_busy_until = 0
        self.tx_packets = 0
        self.rx_packets = 0

    # -- transmit path: doorbell -> DMA fetch -> serialize -> writeback -------

    def _on_pci(self, msg: Msg) -> None:
        if isinstance(msg, MmioMsg):
            if msg.addr == REG_TX_DOORBELL and msg.is_write:
                req_id = next(self._dma_req_ids)
                self._dma_pending[req_id] = msg.value
                if msg.flow:
                    self._dma_flow[req_id] = msg.flow
                self._schedule_at(self, self.now + TX_PROC_PS,
                                  self._fetch_descriptor, req_id)
            elif msg.addr == REG_PHC_TIME and not msg.is_write:
                self.pci.send(MmioRespMsg(value=self.phc.read(self.now),
                                          req_id=msg.req_id), self.now)
            elif msg.addr == REG_PHC_STEP and msg.is_write:
                self.phc.step(self.now, msg.value)
            elif msg.addr == REG_PHC_FREQ_ADJ and msg.is_write:
                self.phc.adj_freq_ppm(self.now, msg.value / 1000.0)
        elif isinstance(msg, DmaCompletionMsg):
            slot = self._dma_pending.pop(msg.req_id, None)
            self._dma_flow.pop(msg.req_id, None)
            if slot is None or msg.data is None:
                return
            self._transmit(slot, msg.data)

    def _fetch_descriptor(self, req_id: int) -> None:
        slot = self._dma_pending.get(req_id)
        if slot is not None:
            self.pci.send(DmaReadMsg(addr=slot, req_id=req_id,
                                     flow=self._dma_flow.get(req_id, 0)),
                          self.now)

    def _transmit(self, slot: int, pkt: Packet) -> None:
        start = max(self.now, self._tx_busy_until)
        done = start + bits_time(pkt.size_bits, self.line_rate_bps)
        self._tx_busy_until = done
        self._schedule_at(self, done, self._wire_out, slot, pkt)

    def _wire_out(self, slot: int, pkt: Packet) -> None:
        self.tx_packets += 1
        hw_ts = self.phc.read(self.now) if is_ptp_event(pkt) else None
        self.eth.send(EthMsg(packet=pkt, flow=pkt.flow), self.now)
        self.pci.send(
            DmaWriteMsg(data=TxDone(slot, pkt.uid, hw_ts), length=16,
                        flow=pkt.flow),
            self.now)

    # -- receive path: wire -> buffer -> DMA write + interrupt ------------------

    def _on_eth(self, msg: Msg) -> None:
        assert isinstance(msg, EthMsg)
        pkt = msg.packet
        self.rx_packets += 1
        hw_ts = self.phc.read(self.now) if is_ptp_event(pkt) else None
        self._schedule_at(self, self.now + RX_PROC_PS, self._rx_dma, pkt,
                          hw_ts)

    def _rx_dma(self, pkt: Packet, hw_ts: Optional[int]) -> None:
        self.pci.send(DmaWriteMsg(data=RxEntry(pkt, hw_ts),
                                  length=pkt.size_bytes, flow=pkt.flow),
                      self.now)
        self.pci.send(InterruptMsg(vector=0, flow=pkt.flow), self.now)
