"""Multiprocess determinism fixtures: the token pipeline, both ways.

The pipeline topology (:func:`pipeline_specs`) runs the same model
in-process (strict coordinator) and as real OS processes over the batched
shared-memory rings: :func:`inproc_strict_digests` and :func:`mp_digests`
return per-component event-timeline SHA-256 digests, which must be
identical — with the wire codec on or off.  Token injections are staggered
by a prime offset so no two events of one component ever share a
timestamp; the digests are therefore exact, not merely statistically
stable.  :func:`inproc_audit_ledger` / :func:`mp_audit_ledger` return the
per-epoch audit ledgers of the same two runs, to localize a mismatch.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..channels.channel import ChannelEnd
from ..channels.messages import RawMsg
from ..kernel.component import Component
from ..kernel.simtime import NS, US
from ..parallel.procrunner import (ProcChannel, ProcSpec, ProcessRunner,
                                   timeline_digest)
from ..parallel.simulation import Simulation

#: Pipeline channel latency / per-stage forwarding delay.
LATENCY_PS = 500 * NS
HOP_PS = 100 * NS
#: Prime injection stagger: keeps every event timestamp of every component
#: unique (7 does not divide the 100ns/500ns delay lattice).
STAGGER_PS = 7 * NS
#: Tokens circulating the pipeline (pipeline depth > 1 keeps stages busy).
TOKENS = 4


class RingForwarder(Component):
    """One stage of a unidirectional token pipeline (ring topology).

    Stage ``i`` receives on its ``prev`` end (channel from stage ``i-1``)
    and forwards each token to stage ``i+1`` after a fixed hop delay.
    Stage 0 injects the tokens at staggered start times.
    """

    def __init__(self, name: str, index: int, n: int,
                 tokens: int = TOKENS) -> None:
        super().__init__(name)
        self.tokens = tokens if index == 0 else 0
        self.prev = self.attach_end(
            ChannelEnd(f"{name}.prev", latency=LATENCY_PS), self.on_msg)
        self.next = self.attach_end(
            ChannelEnd(f"{name}.next", latency=LATENCY_PS), self.on_msg)
        self.received = 0

    def start(self) -> None:
        for k in range(self.tokens):
            self.call_after(k * STAGGER_PS, self._fire, k)

    def _fire(self, token: int) -> None:
        self.next.send(RawMsg(payload=token), self.now)

    def on_msg(self, msg) -> None:
        self.received += 1
        self.call_after(HOP_PS, self._fire, msg.payload)

    def collect_outputs(self) -> dict:
        return {"received": self.received}


def make_forwarder(name: str, index: int, n: int,
                   tokens: int = TOKENS) -> RingForwarder:
    """Picklable factory for :class:`ProcSpec`."""
    return RingForwarder(name, index, n, tokens)


def pipeline_specs(n: int, tokens: int = TOKENS
                   ) -> Tuple[List[ProcSpec], List[ProcChannel]]:
    """Specs + channels for an ``n``-stage token pipeline (one proc each)."""
    if n < 2:
        raise ValueError("pipeline needs at least 2 stages")
    specs = [ProcSpec(f"s{i}", make_forwarder, (f"s{i}", i, n, tokens))
             for i in range(n)]
    channels = [ProcChannel(f"s{i}", f"s{i}.next",
                            f"s{(i + 1) % n}", f"s{(i + 1) % n}.prev")
                for i in range(n)]
    return specs, channels


def _build_inproc(n: int, tokens: int) -> Tuple[Simulation, list]:
    sim = Simulation(mode="strict")
    comps = [sim.add(RingForwarder(f"s{i}", i, n, tokens)) for i in range(n)]
    for i in range(n):
        sim.connect(comps[i].next, comps[(i + 1) % n].prev)
    return sim, comps


def inproc_strict_digests(n: int, until_ps: int,
                          tokens: int = TOKENS) -> Dict[str, str]:
    """Per-component timeline digests of the strict in-process run."""
    sim, comps = _build_inproc(n, tokens)
    timelines: Dict[str, List[int]] = {c.name: [] for c in comps}
    sim._wire()
    for c in comps:
        c.queue.trace = (lambda owner, ts, tl=timelines[c.name]:
                         tl.append(ts))
    sim._run_strict(until_ps)
    return {name: timeline_digest(name, tl)
            for name, tl in timelines.items()}


def mp_digests(n: int, until_ps: int, tokens: int = TOKENS,
               timeout_s: float = 120.0) -> Dict[str, str]:
    """Per-component timeline digests of the real multiprocess run."""
    specs, channels = pipeline_specs(n, tokens)
    results = ProcessRunner(specs, channels).run(
        until_ps, timeout_s=timeout_s, digest=True)
    return {name: res.timeline_digest for name, res in results.items()}


#: Audit epoch width for the pipeline determinism fixture (the 50 us
#: smoke run then spans ten windows).
AUDIT_WINDOW_PS = 5 * US


def inproc_audit_ledger(n: int, until_ps: int, tokens: int = TOKENS,
                        window_ps: int = AUDIT_WINDOW_PS):
    """Audit ledger of the strict in-process pipeline run."""
    from ..obs.audit import AuditCollector
    from ..obs.recorder import ProbeDriver
    sim, _ = _build_inproc(n, tokens)
    collector = AuditCollector(window_ps=window_ps)
    sim.observers.append(ProbeDriver(collector))
    sim.run(until_ps)
    return collector.to_ledger()


def mp_audit_ledger(n: int, until_ps: int, tokens: int = TOKENS,
                    window_ps: int = AUDIT_WINDOW_PS,
                    timeout_s: float = 120.0, tmpdir: str = "."):
    """Audit ledger of the real multiprocess pipeline run."""
    import os

    from ..obs.audit import AuditCollector, load_audit
    specs, channels = pipeline_specs(n, tokens)
    path = os.path.join(tmpdir, "audit.jsonl")
    runner = ProcessRunner(specs, channels)
    runner.recorders.append(AuditCollector(path, window_ps))
    runner.run(until_ps, timeout_s=timeout_s)
    return load_audit(path)
