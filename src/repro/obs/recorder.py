"""The recorder seam: how recorders plug into fast, strict and mp runs.

A recorder is two halves that meet only through plain payloads, carried
under the recorder's ``name`` (``Heartbeat.extras[name]`` per beat,
``ProcResult.extras[name]`` at the end):

* a **probe** lives next to one component (in the coordinator's process,
  or inside the mp child): ``name``, ``beat(commit_ps) -> payload | None``
  (what changed since the previous beat), ``result() -> payload | None``
  (the final state; also releases whatever the probe installed);
* a **collector** (:class:`Collector`) assembles the artifact:
  ``probe(comp)`` (the probe factory, fork-inherited by mp children),
  ``begin``, ``note(comp, beat, payload)``, ``note_result(comp, payload)``
  (``None`` = the component produced none), ``save``, ``report_field``.

The runtimes never look inside the payloads.  In a multiprocess run the
child's heartbeat pump beats the probes of ``ProcessRunner.recorders``
through a :class:`Beater` and the parent hands heartbeats to
:func:`deliver`; in process a :class:`ProbeDriver` (one of
``Simulation.observers``) stands in for the pump and calls the same two.
Recorders with no per-component half (tracer sampling, the profiler
sampler) are plain :class:`~repro.parallel.simulation.Observer` s.
DESIGN.md, "Recorder seam", has the full contract and a worked example.

Also here: what the columnar JSONL artifacts share (:class:`JsonlDoc`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

from .telemetry import Heartbeat

#: ``extras`` key of the probe whose result carries a component's
#: event-timeline digest (``ProcessRunner.run(digest=True)`` reads it).
DIGEST_PROBE = "audit"


def digest_probe(comp):
    """The probe ``digest=True`` runs add when no recorder brought one."""
    from .audit import ComponentAuditor
    return ComponentAuditor.attach(comp)


class Beater:
    """Builds one component's heartbeats: progress counters + probe beats."""

    def __init__(self, comp, probes: list, t_start: float,
                 in_rings: Optional[list] = None) -> None:
        self.comp = comp
        self.probes = probes
        self._in_rings = in_rings
        self._t_start = t_start
        self._last_t = t_start
        self._last_events = 0

    def beat(self, now: float, commit_ps: int,
             waiting: bool = False) -> Heartbeat:
        events = self.comp.events_processed
        dt = now - self._last_t
        eps = (events - self._last_events) / dt if dt > 0 else 0.0
        self._last_events = events
        self._last_t = now
        rings = self._in_rings
        fill = None if rings is None else \
            max((r.fill_fraction() for r in rings), default=0.0)
        extras = {}
        for probe in self.probes:
            payload = probe.beat(commit_ps)
            if payload is not None:
                extras[probe.name] = payload
        return Heartbeat(comp=self.comp.name, wall_s=now - self._t_start,
                         sim_ps=commit_ps, events=events,
                         events_per_sec=eps, ring_fill=fill,
                         waiting=waiting, extras=extras)


def deliver(hb: Heartbeat, collectors: Iterable) -> None:
    """Hand one heartbeat's probe payloads to the collectors they name."""
    for collector in collectors:
        payload = hb.extras.get(collector.name)
        if payload is not None:
            collector.note(hb.comp, hb, payload)


class Collector:
    """What collectors share: where the artifact goes and what run it is of.

    Subclasses set ``name`` and ``probe`` and define ``note`` and
    ``write(path)``; ``note_result`` when the probes' results matter.
    """

    name = ""

    def __init__(self, path: Optional[str] = None,
                 meta: Optional[dict] = None) -> None:
        self.path = path
        self.meta = dict(meta or {})
        self.components: List[str] = []
        self.until_ps = 0
        self.mode = "strict"

    def begin(self, components: List[str], until_ps: int, mode: str) -> None:
        self.components = list(components)
        self.until_ps = until_ps
        self.mode = mode

    def note_result(self, comp: str, payload) -> None:
        pass

    def save(self, path: Optional[str] = None):
        """Write the artifact to ``path`` (default: the constructor's)."""
        self.path = path or self.path
        return self.write(self.path)

    def report_field(self) -> Tuple[str, Optional[str]]:
        """``(run_report.json key, saved path)``."""
        return self.name, self.path


class ProbeDriver:
    """In-process stand-in for the mp heartbeat pump, for one collector
    (a run observer, see :class:`~repro.parallel.simulation.Observer`).

    Beats the collector's probes every ``interval_rounds`` strict sync
    rounds and once more at run end (in fast mode that is the only beat),
    then hands the collector every probe's result.
    """

    def __init__(self, collector, interval_rounds: int = 64) -> None:
        if interval_rounds <= 0:
            raise ValueError("interval_rounds must be positive")
        self.collector = collector
        self.every = interval_rounds
        self._beaters: List[Beater] = []

    def start(self, sim, until_ps: int) -> None:
        collector = self.collector
        collector.begin([c.name for c in sim.components], until_ps, sim.mode)
        t0 = time.perf_counter()
        self._beaters = [Beater(c, [collector.probe(c)], t0)
                         for c in sim.components]

    def _beat(self) -> None:
        now = time.perf_counter()
        collectors = (self.collector,)
        for beater in self._beaters:
            deliver(beater.beat(now, beater.comp.now), collectors)

    def on_round(self, rounds: int, done: bool) -> None:
        if not done:
            self._beat()

    def finish(self) -> None:
        self._beat()  # the final beat: totals cover exactly the run
        for beater in self._beaters:
            for probe in beater.probes:
                self.collector.note_result(beater.comp.name, probe.result())


# -- columnar JSONL documents --------------------------------------------------

@dataclass(frozen=True)
class JsonlDoc:
    """One columnar JSONL artifact format: a header object naming ``kind``
    and ``schema`` (plus the index tables rows refer to), then one compact
    object per line."""

    kind: str      # header marker (guards against loading arbitrary JSONL)
    schema: int
    file: str      # conventional file name inside a run directory
    noun: str      # "timeline" — for error messages
    title: str     # "a timeline document" — for error messages

    def resolve(self, path: str) -> str:
        """Map a run directory to its document (files pass through)."""
        if os.path.isdir(path):
            return os.path.join(path, self.file)
        return path

    def write(self, path: str, header: dict, rows: Iterable[dict]) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def read(self, path: str, parse: Callable[[dict, dict], Any]
             ) -> Tuple[dict, list]:
        """Load and validate a document: ``(header, parsed rows)``.

        ``parse(header, doc)`` turns one line's object into a row (``None``
        = not a row, skipped).  Raises :class:`ValueError` on a malformed
        or wrong-kind document — row errors name ``path:lineno`` — and
        propagates :class:`OSError` for unreadable paths.
        """
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        if not lines:
            raise ValueError(f"{path}: empty {self.noun} document")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: bad {self.noun} header: {exc}") from None
        if header.get("kind") != self.kind:
            raise ValueError(f"{path}: not {self.title} "
                             f"(kind={header.get('kind')!r})")
        if header.get("schema") != self.schema:
            raise ValueError(f"{path}: {self.noun} schema "
                             f"{header.get('schema')!r} != {self.schema}")
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                row = parse(header, json.loads(line))
            except (json.JSONDecodeError, KeyError, IndexError, TypeError,
                    ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: corrupt {self.noun} "
                                 f"row: {exc}") from None
            if row is not None:
                rows.append(row)
        return header, rows
