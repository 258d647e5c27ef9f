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
  (``None`` = the component produced none; never called for a component
  that failed, which :attr:`Collector.partial` then names),
  ``save(path)``.

Recorders say *what* a run records; the run directory says *where*:
given one, the runtime saves each recorder's artifact under the one name
:mod:`repro.obs.rundir` gives it.

The runtimes never look inside the payloads.  In a multiprocess run the
child's stepper beats the probes of ``ProcessRunner.recorders``
through a :class:`Beater` and the parent hands heartbeats to
:func:`deliver`; in process a :class:`ProbeDriver` (one of
``Simulation.observers``) stands in for the stepper and calls the same two,
so an experiment's collectors serve ``Experiment.run`` and ``run_mp``
alike.  Recorders with no per-component half (tracer sampling) are plain
:class:`~repro.parallel.simulation.Observer` s.
DESIGN.md, "Recorder seam", has the full contract and a worked example.

Also here: what the columnar JSONL artifacts share — the format
(:class:`JsonlDoc`) and the loaded document (:class:`LoadedDoc`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

from .telemetry import Heartbeat


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
    """What collectors share: what run they are of and which components
    delivered their result.

    Subclasses set ``name`` and ``probe`` and define ``note`` and
    ``save(path)``; ``note_result`` (calling this one) when the probes'
    results matter.
    """

    name = ""

    def __init__(self, meta: Optional[dict] = None) -> None:
        self.meta = dict(meta or {})
        self.components: List[str] = []
        self.until_ps = 0
        self.mode = "strict"
        self._delivered: set = set()

    def begin(self, components: List[str], until_ps: int, mode: str) -> None:
        self.components = list(components)
        self.until_ps = until_ps
        self.mode = mode
        self._delivered = set()

    def note_result(self, comp: str, payload) -> None:
        """``comp`` finished and delivered its probe's result (``None`` =
        the probe has none); a failed component is never noted."""
        self._delivered.add(comp)

    @property
    def partial(self) -> List[str]:
        """The components that never delivered a result (a crashed mp
        child), sorted; empty when the record is complete."""
        return sorted(set(self.components) - self._delivered)


class ProbeDriver:
    """In-process stand-in for the mp stepper's heartbeats, for one collector
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
    noun: str      # "timeline" — for error messages
    title: str     # "a timeline document" — for error messages

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
            header = _object(json.loads(lines[0]))
        except (json.JSONDecodeError, TypeError) as exc:
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
                row = parse(header, _object(json.loads(line)))
            except (json.JSONDecodeError, KeyError, IndexError, TypeError,
                    ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: corrupt {self.noun} "
                                 f"row: {exc}") from None
            if row is not None:
                rows.append(row)
        return header, rows


def _object(doc):  # every line of a document is a JSON object
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


class LoadedDoc:
    """A columnar document's header and rows, with the header fields every
    run artifact carries (:class:`~repro.obs.timeline.Timeline`,
    :class:`~repro.obs.audit.AuditLedger`)."""

    def __init__(self, header: dict, rows: list) -> None:
        self.header = header
        self.rows = rows

    @property
    def mode(self) -> str:
        return self.header.get("mode", "strict")

    @property
    def until_ps(self) -> int:
        return self.header.get("until_ps", 0)

    @property
    def components(self) -> List[str]:
        return list(self.header.get("components", []))

    @property
    def meta(self) -> dict:
        return self.header.get("meta", {})
