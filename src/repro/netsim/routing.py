"""Routing: global forwarding-table computation over a topology spec.

Forwarding tables are computed on the abstract topology graph (so they are
identical regardless of how the network is partitioned across simulator
processes) with per-destination BFS, collecting *all* shortest-path next
hops to enable ECMP in multi-path fabrics such as fat trees.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

#: The topology graph: node name -> neighbour names (undirected, so every
#: link appears in both lists).
Graph = Dict[str, List[str]]


def build_graph(switch_names: List[str], host_names: List[str],
                links: List[Tuple[str, str]]) -> Graph:
    """Assemble the topology's adjacency mapping, switches first."""
    graph: Graph = {name: [] for name in [*switch_names, *host_names]}
    for a, b in links:
        graph[a].append(b)
        graph[b].append(a)
    return graph


def compute_next_hops(graph: Graph, dst: str) -> Dict[str, Set[str]]:
    """For destination node ``dst``: node -> set of shortest-path next hops.

    BFS from the destination; a neighbor at distance d-1 from a node at
    distance d is a valid next hop (all are kept, enabling ECMP).
    """
    dist = {dst: 0}
    order = deque([dst])
    while order:
        cur = order.popleft()
        for nb in graph[cur]:
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                order.append(nb)
    next_hops: Dict[str, Set[str]] = {}
    for node, d in dist.items():
        if node == dst:
            continue
        hops = {nb for nb in graph[node] if dist.get(nb, 1 << 30) == d - 1}
        if hops:
            next_hops[node] = hops
    return next_hops


def compute_fib(graph: Graph, host_addr: Dict[str, int]
                ) -> Dict[str, Dict[int, Set[str]]]:
    """Full forwarding state: switch name -> {dst addr -> next-hop names}.

    ``host_addr`` maps every host name to its address; the remaining nodes
    are the switches, and only they get FIB entries (hosts send everything
    out their single port).
    """
    fib: Dict[str, Dict[int, Set[str]]] = {
        n: {} for n in graph if n not in host_addr
    }
    for host, addr in host_addr.items():
        if host not in graph:
            raise KeyError(f"host {host!r} not in topology graph")
        next_hops = compute_next_hops(graph, host)
        for node, hops in next_hops.items():
            if node in fib:
                fib[node][addr] = hops
    return fib
