"""Network partition strategies (paper Fig. 9).

These operate on the datacenter topology built by
:func:`repro.netsim.topology.datacenter`, whose switch naming encodes the
hierarchy (``core``, ``agg<A>``, ``a<A>r<R>tor``):

========  ==================================================================
``s``     whole network as one process
``ac``    one process per aggregation block (its racks included), plus one
          for the core switch
``cr<N>`` aggregate N racks into a process, plus one process for all
          aggregation switches and the core
``rs``    one process per rack; one process per aggregation switch; one for
          the core
========  ==================================================================

Each strategy returns a switch-level assignment; hosts follow their ToR via
:func:`repro.netsim.partition.assign_hosts_with_switch`.  Strategies also
work on scaled-down datacenter topologies (fewer aggs/racks/hosts).
"""

from __future__ import annotations

import re
from typing import Callable, Dict

from ..netsim.topology import TopoSpec

_TOR = re.compile(r"^a(\d+)r(\d+)tor$")
_AGG = re.compile(r"^agg(\d+)$")


def _classify(spec: TopoSpec):
    tors: Dict[str, tuple] = {}
    aggs: Dict[str, int] = {}
    core = None
    for name in spec.switches:
        m = _TOR.match(name)
        if m:
            tors[name] = (int(m.group(1)), int(m.group(2)))
            continue
        m = _AGG.match(name)
        if m:
            aggs[name] = int(m.group(1))
            continue
        if name == "core":
            core = name
    if core is None:
        raise ValueError("strategy requires the datacenter() topology naming")
    return core, aggs, tors


def strategy_single(spec: TopoSpec) -> Dict[str, str]:
    """``s``: everything in one network process."""
    return {name: "all" for name in spec.switches}


def strategy_ac(spec: TopoSpec) -> Dict[str, str]:
    """``ac``: one process per aggregation block, one for the core."""
    core, aggs, tors = _classify(spec)
    assignment = {core: "core"}
    for name, a in aggs.items():
        assignment[name] = f"agg{a}"
    for name, (a, _r) in tors.items():
        assignment[name] = f"agg{a}"
    return assignment


def strategy_cr(n: int) -> Callable[[TopoSpec], Dict[str, str]]:
    """``cr<N>``: N racks per process; aggs+core together in one process."""
    if n <= 0:
        raise ValueError("n must be positive")

    def strategy(spec: TopoSpec) -> Dict[str, str]:
        """crN assignment for a concrete topology."""
        core, aggs, tors = _classify(spec)
        assignment = {core: "backbone"}
        for name in aggs:
            assignment[name] = "backbone"
        ordered = sorted(tors, key=lambda t: tors[t])
        for i, name in enumerate(ordered):
            assignment[name] = f"racks{i // n}"
        return assignment

    strategy.__name__ = f"strategy_cr{n}"
    return strategy


def strategy_rs(spec: TopoSpec) -> Dict[str, str]:
    """``rs``: per-rack processes, per-agg processes, core alone."""
    core, aggs, tors = _classify(spec)
    assignment = {core: "core"}
    for name, a in aggs.items():
        assignment[name] = f"agg{a}"
    for name, (a, r) in tors.items():
        assignment[name] = f"rack{a}_{r}"
    return assignment


#: The strategy table of Fig. 9 (crN instantiated for common N).
STRATEGIES: Dict[str, Callable[[TopoSpec], Dict[str, str]]] = {
    "s": strategy_single,
    "ac": strategy_ac,
    "cr1": strategy_cr(1),
    "cr2": strategy_cr(2),
    "cr3": strategy_cr(3),
    "cr6": strategy_cr(6),
    "rs": strategy_rs,
}


def partition_from_file(path: str) -> Dict[str, str]:
    """Switch-level assignment from a saved advisor ``partition.json``.

    The advisor (:mod:`repro.parallel.advisor`) records a
    ``switch_assignment`` alongside its component-level plan whenever the
    source timeline carried the switch index; this loads it in the shape
    ``Instantiation.network_partition`` expects.  Raises
    :class:`ValueError` when the document is malformed or carries no
    switch-level view (e.g. the plan merged network processes with hosts
    only, or the timeline lacked topology metadata).
    """
    from ..parallel.advisor import load_partition
    doc = load_partition(path)
    switch_assignment = doc.get("switch_assignment")
    if not isinstance(switch_assignment, dict) or not switch_assignment:
        raise ValueError(f"{path}: partition document has no "
                         "switch_assignment to apply")
    return dict(switch_assignment)


_FT_AGG = re.compile(r"^p(\d+)agg(\d+)$")
_FT_EDGE = re.compile(r"^p(\d+)edge(\d+)$")
_FT_CORE = re.compile(r"^core(\d+)$")


def partition_fat_tree(spec: TopoSpec, k: int) -> Dict[str, str]:
    """Evenly partition a fat tree into ``k`` network processes (Fig. 8).

    Units of one aggregation+edge switch pair are chunked into ``k`` groups
    (whole pods first), and core switches are distributed round-robin.
    ``k`` must divide the total number of agg/edge pairs (32 for FatTree8,
    so 1, 2, 16 and 32 all work).
    """
    pairs: Dict[tuple, Dict[str, str]] = {}
    cores = []
    for name in spec.switches:
        m = _FT_AGG.match(name)
        if m:
            pairs.setdefault((int(m.group(1)), int(m.group(2))), {})["agg"] = name
            continue
        m = _FT_EDGE.match(name)
        if m:
            pairs.setdefault((int(m.group(1)), int(m.group(2))), {})["edge"] = name
            continue
        if _FT_CORE.match(name):
            cores.append(name)
    if not pairs:
        raise ValueError("partition_fat_tree requires fat_tree() naming")
    ordered = [pairs[key] for key in sorted(pairs)]
    if len(ordered) % k:
        raise ValueError(f"k={k} must divide {len(ordered)} agg/edge pairs")
    chunk = len(ordered) // k
    assignment: Dict[str, str] = {}
    for i, unit in enumerate(ordered):
        part = f"p{i // chunk}"
        for name in unit.values():
            assignment[name] = part
    for i, core in enumerate(sorted(cores)):
        assignment[core] = f"p{i % k}"
    return assignment
