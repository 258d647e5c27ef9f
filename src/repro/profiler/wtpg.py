"""Wait-Time Profile Graph (WTPG) generation and rendering.

The WTPG (paper §3.3.2, Fig. 3/10) has one node per simulator instance and a
directed edge for each channel direction, annotated with the fraction of
cycles the *source* spent waiting for synchronization messages from the
*destination*.  Nodes are colored on a green-to-red spectrum by their total
wait fraction: **red nodes wait little and are therefore the bottlenecks**.

Outputs: a :mod:`networkx` DiGraph (for programmatic inspection), Graphviz
DOT text, and a plain-text rendering for terminals/logs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from .postprocess import ProfileAnalysis

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


def _wait_to_color(wait_fraction: float) -> str:
    """Map wait fraction to a hex color: 0.0 -> red, 1.0 -> green.

    The green channel ramps 55 -> 200 so a pure bottleneck (frac=0) renders
    as a warm red (#ff3740) rather than pure red, and a fully-waiting node
    as the dashboard green (#00c840).
    """
    frac = min(1.0, max(0.0, wait_fraction))
    red = int(255 * (1.0 - frac))
    green = int(200 * frac + 55 * (1.0 - frac))
    return f"#{red:02x}{green:02x}40"


def build_wtpg(analysis: ProfileAnalysis) -> nx.DiGraph:
    """Build the WTPG from a post-processed profile.

    Node attributes: ``wait_fraction``, ``efficiency``, ``color``.
    Edge attributes: ``wait_fraction`` (source waiting on destination).
    """
    # imported here: networkx is a third of a worker's import time and
    # memory, and only a profiled run ever builds a WTPG
    import networkx as nx

    graph = nx.DiGraph()
    for name, cm in analysis.components.items():
        graph.add_node(
            name,
            wait_fraction=cm.wait_fraction,
            efficiency=cm.efficiency,
            color=_wait_to_color(cm.wait_fraction),
        )
    for (src, dst), frac in analysis.edge_wait_fraction.items():
        if dst not in graph:
            graph.add_node(dst, wait_fraction=0.0, efficiency=1.0,
                           color=_wait_to_color(0.0))
        graph.add_edge(src, dst, wait_fraction=frac)
    return graph


def bottleneck_nodes(graph: nx.DiGraph, threshold: float = 0.25) -> list:
    """Nodes whose wait fraction is below ``threshold`` (likely bottlenecks)."""
    return sorted(
        n for n, d in graph.nodes(data=True)
        if d.get("wait_fraction", 0.0) <= threshold
    )


def to_dot(graph: nx.DiGraph, title: Optional[str] = None) -> str:
    """Render the WTPG as Graphviz DOT text."""
    lines = ["digraph wtpg {"]
    if title:
        lines.append(f'  label="{title}"; labelloc=t;')
    lines.append("  node [style=filled, fontname=monospace];")
    for n, d in sorted(graph.nodes(data=True)):
        wait = d.get("wait_fraction", 0.0)
        color = d.get("color", "#cccccc")
        lines.append(
            f'  "{n}" [fillcolor="{color}", label="{n}\\nwait={wait:.0%}"];'
        )
    for src, dst, d in sorted(graph.edges(data=True)):
        frac = d.get("wait_fraction", 0.0)
        lines.append(f'  "{src}" -> "{dst}" [label="{frac:.0%}"];')
    lines.append("}")
    return "\n".join(lines)


def to_text(graph: nx.DiGraph, title: Optional[str] = None) -> str:
    """Plain-text rendering: one line per node with its outgoing waits."""
    lines = []
    if title:
        lines.append(f"== WTPG: {title} ==")
    ranked = sorted(graph.nodes(data=True),
                    key=lambda nd: nd[1].get("wait_fraction", 0.0))
    for n, d in ranked:
        wait = d.get("wait_fraction", 0.0)
        marker = "BOTTLENECK" if wait <= 0.25 else ""
        waits_on = ", ".join(
            f"{dst}:{graph.edges[n, dst]['wait_fraction']:.0%}"
            for dst in sorted(graph.successors(n))
        )
        lines.append(f"  {n:<24} wait={wait:6.1%} {marker:<10} -> [{waits_on}]")
    return "\n".join(lines)


def save_dot(graph: nx.DiGraph, path: str, title: Optional[str] = None) -> None:
    """Write the WTPG as a Graphviz DOT file."""
    with open(path, "w") as fh:
        fh.write(to_dot(graph, title))
