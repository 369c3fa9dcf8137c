"""Brute-force reimplementations that cross-check the library's fast paths.

Deliberately naive and size-limited: triangles by enumerating every node
triple, betweenness by listing every shortest path, closeness by one plain
BFS per source. The network readers are the line-at-a-time loops that the
library's whole-body readers must agree with. Test-only.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Dict, List, Tuple

from tricent import Graph, NodeId, ParseError, graph


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


def oracle_betweenness(g: Graph) -> Dict[NodeId, float]:
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
    return {v: pair_sum[v] * scale for v in g.nodes}


def oracle_closeness(g: Graph) -> Dict[NodeId, float]:
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
    return scores


def oracle_parse_edgelist(text: str) -> Graph:
    """Read a plain edge list: one ``u v`` pair per line, ``#`` comments ignored.

    Node ids are arbitrary integer labels. Tokens after the first two are
    ignored (weights etc.); blank lines are skipped.
    """
    pairs: list[Tuple[NodeId, NodeId]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        parts = body.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ParseError(f"expected 'u v', got {body.strip()!r}", lineno)
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"non-integer endpoint in {body.strip()!r}", lineno) from None
    return Graph(pairs)


# Pajek section keyword -> what its body lines hold; *Network only names the file
_SECTIONS = {
    "*network": None, "*vertices": "vertex", "*edges": "pair", "*arcs": "pair",
    "*edgeslist": "list", "*arcslist": "list",
}


def oracle_parse_pajek(text: str) -> Graph:
    """Read a Pajek ``.net`` description into an undirected simple graph.

    Requires a ``*Vertices n`` header; accepts any number of ``*Edges`` /
    ``*Arcs`` (and ``*Edgeslist`` / ``*Arcslist``) sections. Section keywords
    are case-insensitive, ``%`` comment lines and blank lines are skipped, a
    leading ``*Network`` line is ignored. Arcs are merged undirected, edge
    weights are ignored, duplicates collapse, self-loops are dropped, and all
    n declared vertices are kept even when isolated. Vertex ids are the
    file's 1-based integers; ids outside 1..n, and n above ``_MAX_VERTICES``,
    raise :class:`ParseError`.
    """
    n_declared: int | None = None
    pairs: list[Tuple[NodeId, NodeId]] = []
    section: str | None = None

    def check_id(token: str, lineno: int) -> int:
        try:
            vid = int(token)
        except ValueError:
            raise ParseError(f"non-numeric vertex id {token!r}", lineno) from None
        assert n_declared is not None
        if not 1 <= vid <= n_declared:
            raise ParseError(f"vertex id {vid} outside 1..{n_declared}", lineno)
        return vid

    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "%":
            continue
        if parts[0][0] == "*":
            key = parts[0].lower()
            if key not in _SECTIONS:
                raise ParseError(f"unsupported section {parts[0]!r}", lineno)
            if key == "*vertices":
                if n_declared is not None:
                    raise ParseError("duplicate *Vertices header", lineno)
                try:
                    n_declared = int(parts[1])
                except (IndexError, ValueError):
                    raise ParseError(f"malformed header {raw.strip()!r}", lineno) from None
                if n_declared < 0:
                    raise ParseError("negative vertex count", lineno)
                if n_declared > graph._MAX_VERTICES:  # read at call time: tests lower it
                    raise ParseError(f"vertex count above the limit of {graph._MAX_VERTICES}", lineno)
            elif _SECTIONS[key] and n_declared is None:
                raise ParseError(f"{parts[0]} before *Vertices", lineno)
            section = _SECTIONS[key] or section
        elif section == "vertex":
            check_id(parts[0], lineno)
        elif section == "pair":
            if len(parts) < 2:
                raise ParseError(f"expected 'u v [weight]', got {raw.strip()!r}", lineno)
            u, v = check_id(parts[0], lineno), check_id(parts[1], lineno)
            if len(parts) >= 3:
                try:
                    float(parts[2])  # weight: validated, then ignored
                except ValueError:
                    raise ParseError(f"non-numeric weight {parts[2]!r}", lineno) from None
            pairs.append((u, v))
        elif section == "list":
            u = check_id(parts[0], lineno)
            pairs.extend((u, check_id(token, lineno)) for token in parts[1:])
        else:
            raise ParseError(f"content before any section header: {raw.strip()!r}", lineno)

    if n_declared is None:
        raise ParseError("missing *Vertices header", lineno or 1)
    return Graph(pairs, nodes=range(1, n_declared + 1))
