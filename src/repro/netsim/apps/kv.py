"""Protocol-level key-value server and client applications.

These are the "ns-3 applications" of the NetCache/Pegasus case study: the
server answers instantly (no software cost — the defining limitation of
protocol-level simulation), and the client offers an open-loop request
stream with Zipf-distributed keys and a configurable write fraction.

The same client logic is reused by the detailed-host guest client; latency
and throughput bookkeeping lives in :class:`KVStats` so both report
identically.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List, Optional, Tuple

from ...kernel.rng import ZipfGenerator, exponential_ps
from ...kernel.simtime import SEC, US
from ...obs.flows import _ACTIVE as _FLOWS, env_track
from ...record import Record
from ..packet import Packet
from .base import App
from .kvproto import (DEFAULT_VALUE_BYTES, KV_PORT, OP_READ, OP_WRITE,
                      REQUEST_BYTES, WRITE_REPLY_BYTES, KvReply, KvRequest,
                      home_server)


class KVStats(Record):
    """Completed-request bookkeeping shared by all client fidelities."""

    def __init__(self, completed: int = 0, completed_reads: int = 0,
                 completed_writes: int = 0, sent: int = 0,
                 latencies: Optional[List[Tuple[int, int, str]]] = None,
                 max_samples: int = 200_000) -> None:
        self.completed = completed
        self.completed_reads = completed_reads
        self.completed_writes = completed_writes
        self.sent = sent
        #: (completion ts, latency ps, op) samples
        self.latencies = [] if latencies is None else latencies
        self.max_samples = max_samples

    def record(self, now: int, latency_ps: int, op: str) -> None:
        """Register one completed request."""
        self.completed += 1
        if op == OP_READ:
            self.completed_reads += 1
        else:
            self.completed_writes += 1
        if len(self.latencies) < self.max_samples:
            self.latencies.append((now, latency_ps, op))

    def throughput_rps(self, from_ps: int, to_ps: int,
                       op: Optional[str] = None) -> float:
        """Completed requests per second inside a measurement window."""
        hits = [1 for ts, _lat, o in self.latencies
                if from_ps <= ts < to_ps and (op is None or o == op)]
        return len(hits) * SEC / (to_ps - from_ps)

    def latency_values(self, from_ps: int = 0, op: Optional[str] = None
                       ) -> List[int]:
        """Raw latency samples (ps), optionally filtered by op and time."""
        return [lat for ts, lat, o in self.latencies
                if ts >= from_ps and (op is None or o == op)]

    def percentile(self, pct: float, from_ps: int = 0,
                   op: Optional[str] = None) -> int:
        """Latency percentile (ps) over the recorded samples."""
        vals = sorted(self.latency_values(from_ps, op))
        if not vals:
            return 0
        idx = min(len(vals) - 1, int(pct / 100.0 * len(vals)))
        return vals[idx]

    def mean_latency(self, from_ps: int = 0, op: Optional[str] = None) -> float:
        """Mean latency (ps) over the recorded samples."""
        vals = self.latency_values(from_ps, op)
        return sum(vals) / len(vals) if vals else 0.0


class KVServerApp(App):
    """In-memory KV store answering over UDP with zero software cost."""

    def __init__(self, port: int = KV_PORT,
                 value_bytes: int = DEFAULT_VALUE_BYTES,
                 service_instr: int = 15_000) -> None:
        super().__init__()
        self.port = port
        self.value_bytes = value_bytes
        #: Application-level instructions per request (hash lookup, value
        #: handling, request parsing).  Free on protocol-level hosts; on
        #: detailed hosts this (plus stack costs) makes server software the
        #: bottleneck — the crux of the NetCache/Pegasus case study.
        self.service_instr = service_instr
        self.store: Dict[int, int] = {}
        self.served_reads = 0
        self.served_writes = 0

    def start(self) -> None:
        """Bind the server's UDP port."""
        self.sock = self.stack.udp_socket(self.port, self._on_request)
        self._models_cost = self.stack.models_cost

    def _on_request(self, pkt: Packet) -> None:
        req = pkt.payload
        if not isinstance(req, KvRequest):
            return
        if self._models_cost:
            self.host.charge(self.service_instr)
        if req.op == OP_WRITE:
            self.store[req.key] = self.store.get(req.key, 0) + 1
            self.served_writes += 1
            reply_bytes = WRITE_REPLY_BYTES
        else:
            self.served_reads += 1
            reply_bytes = self.value_bytes
        reply = KvReply(op=req.op, key=req.key, req_id=req.req_id,
                        served_by=self.host.addr, value_bytes=self.value_bytes)
        # the reply continues the request's flow (one traced round trip)
        self.sock.sendto(pkt.src, pkt.src_port, reply_bytes, payload=reply,
                         flow=pkt.flow)
        # final consumer of the request datagram: recycle it
        pkt.release()


class KVClientApp(App):
    """Open-loop Zipf client.

    Sends requests at exponential inter-arrival times targeting
    ``rate_rps``; each request goes to the key's home server (NetCache
    semantics — switch pipelines may redirect).  Latency is measured from
    send to matching reply.
    """

    def __init__(self, server_addrs: List[int], rate_rps: float = 0.0,
                 n_keys: int = 10_000, zipf_theta: float = 1.8,
                 write_frac: float = 0.7, port: int = 0,
                 server_port: int = KV_PORT, seed_label: str = "kvclient",
                 stop_after: Optional[int] = None,
                 closed_loop_window: Optional[int] = None) -> None:
        super().__init__()
        if not server_addrs:
            raise ValueError("need at least one server")
        if closed_loop_window is None and rate_rps <= 0:
            raise ValueError("need rate_rps (open loop) or closed_loop_window")
        self.server_addrs = list(server_addrs)
        self.rate_rps = rate_rps
        self.closed_loop_window = closed_loop_window
        self.n_keys = n_keys
        self.zipf_theta = zipf_theta
        self.write_frac = write_frac
        self.server_port = server_port
        self.seed_label = seed_label
        self.stop_after = stop_after
        self.stats = KVStats()
        self._req_ids = count()
        self._outstanding: Dict[int, Tuple[int, str]] = {}
        self._zipf: Optional[ZipfGenerator] = None

    def start(self) -> None:
        """Open the client socket and start the request stream."""
        self.sock = self.stack.udp_socket(None, self._on_reply)
        self._zipf = ZipfGenerator(self.n_keys, self.zipf_theta, self.rng)
        if self.closed_loop_window is not None:
            for _ in range(self.closed_loop_window):
                self._send_one(reschedule=False)
        else:
            self._mean_gap_ps = max(1, int(SEC / self.rate_rps))
            self._schedule_next()

    def _schedule_next(self) -> None:
        if self.stop_after is not None and self.stats.sent >= self.stop_after:
            return
        gap = exponential_ps(self.rng, self._mean_gap_ps)
        self.call_after(gap, self._send_one)

    def _send_one(self, reschedule: bool = True) -> None:
        key = self._zipf.sample()
        op = OP_WRITE if self.rng.random() < self.write_frac else OP_READ
        req_id = next(self._req_ids)
        req = KvRequest(op=op, key=key, req_id=req_id,
                        client_addr=self.host.addr, client_ts=self.now)
        dst = home_server(key, self.server_addrs)
        self._outstanding[req_id] = (self.now, op)
        self.stats.sent += 1
        self.sock.sendto(dst, self.server_port, REQUEST_BYTES, payload=req)
        if reschedule and self.closed_loop_window is None:
            self._schedule_next()

    def _on_reply(self, pkt: Packet) -> None:
        reply = pkt.payload
        if not isinstance(reply, KvReply):
            return
        entry = self._outstanding.pop(reply.req_id, None)
        if entry is not None:
            sent_ts, op = entry
            rec = _FLOWS[0]
            if rec is not None and pkt.flow:
                track, at = env_track(self.host)
                rec.hop(pkt.flow, "done", track, self.now, at=at)
            self.stats.record(self.now, self.now - sent_ts, op)
            if self.closed_loop_window is not None:
                if self.stop_after is None or self.stats.sent < self.stop_after:
                    self._send_one(reschedule=False)
        # final consumer of the reply datagram: recycle it
        pkt.release()
