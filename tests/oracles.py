"""Brute-force reimplementations that cross-check the library's fast paths.

Deliberately naive and size-limited: triangles by enumerating every node
triple, betweenness by listing every shortest path, closeness by one plain
BFS per source. Test-only.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Dict, List, Tuple

from tricent import Graph, Measure, NodeId, ScoreVector


def oracle_triangles(g: Graph) -> Dict[NodeId, int]:
    """Per-node triangle counts by exhaustive triple enumeration (n <= 200)."""
    if g.node_count > 200:
        raise ValueError("oracle_triangles is limited to 200 nodes")
    counts = dict.fromkeys(g.nodes, 0)
    for a, b, c in combinations(sorted(g.nodes), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            counts[a] += 1
            counts[b] += 1
            counts[c] += 1
    return counts


def _is_connected(g: Graph) -> bool:
    nodes = g.nodes
    if len(nodes) <= 1:
        return True
    start = next(iter(nodes))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(nodes)


def _all_shortest_paths(g: Graph, s: NodeId, t: NodeId) -> List[Tuple[NodeId, ...]]:
    dist = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    if t not in dist:
        return []
    paths: List[Tuple[NodeId, ...]] = []

    def extend(prefix: List[NodeId]) -> None:
        v = prefix[-1]
        if v == t:
            paths.append(tuple(prefix))
            return
        for w in g.neighbors(v):
            if dist.get(w) == dist[v] + 1 and dist[w] <= dist[t]:
                extend(prefix + [w])

    extend([s])
    return paths


def oracle_betweenness(g: Graph) -> ScoreVector:
    """Betweenness by full shortest-path enumeration (n <= 8, connected)."""
    if g.node_count > 8:
        raise ValueError("oracle_betweenness is limited to 8 nodes")
    if not _is_connected(g):
        raise ValueError("oracle_betweenness requires a connected graph")
    pair_sum = dict.fromkeys(g.nodes, 0.0)
    for s, t in combinations(sorted(g.nodes), 2):
        paths = _all_shortest_paths(g, s, t)
        if not paths:
            continue
        for v in g.nodes:
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p)
            pair_sum[v] += through / len(paths)
    n = g.node_count
    scale = 2.0 / ((n - 1) * (n - 2)) if n >= 3 else 1.0
    return ScoreVector(Measure.BC, {v: pair_sum[v] * scale for v in g.nodes})


def oracle_closeness(g: Graph) -> ScoreVector:
    """Closeness by one breadth-first search per source, in exact integers.

    Same formula as the library: (r/(n-1)) * (r/S) with r nodes reachable at
    total distance S, and 0 for a node that reaches nothing.
    """
    n = g.node_count
    scores = {}
    for s in g.nodes:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        reached, total = len(dist) - 1, sum(dist.values())
        scores[s] = (reached / (n - 1)) * (reached / total) if reached > 0 else 0.0
    return ScoreVector(Measure.CNC, scores)
