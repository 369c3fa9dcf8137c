"""Seeded, pure-Python graph generators and the writers for their files.

Both generators take a ``seed`` and draw from one ``random.Random`` in a
fixed order, so the same arguments give the same edge list, and the writers
turn an edge list into the same bytes every time.
"""

from __future__ import annotations

import random
from typing import List, Tuple

Edge = Tuple[int, int]


def holme_kim(n: int, m: int, p_triad: float, seed: int) -> List[Edge]:
    """Holme & Kim (2002) growing scale-free graph with tunable clustering.

    Nodes are 0..n-1. The first ``m`` nodes start unlinked; every later node
    adds exactly ``m`` edges to distinct older nodes. Its first edge goes to
    a node drawn by preferential attachment (probability proportional to
    degree). Each further edge is, with probability ``p_triad``, a triad
    formation step: a link to a uniformly drawn neighbour of the node reached
    by the last preferential step, which closes a triangle. Otherwise, or
    when that node has no neighbour left to link to, it is another
    preferential step. The graph has ``m * (n - m)`` edges.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    if not 0.0 <= p_triad <= 1.0:
        raise ValueError("p_triad must lie in [0, 1]")
    rng = random.Random(seed)
    adj: List[List[int]] = [[] for _ in range(n)]
    # one entry per edge endpoint, so a uniform draw is a degree-weighted draw;
    # the m seed nodes enter once each so the first newcomer has targets
    pool: List[int] = list(range(m))
    edges: List[Edge] = []
    for source in range(m, n):
        linked = {source}
        hub = -1
        for step in range(m):
            target = -1
            if step > 0 and rng.random() < p_triad:
                target = _fresh_neighbour(rng, adj[hub], linked)
            if target < 0:
                target = pool[rng.randrange(len(pool))]
                while target in linked:
                    target = pool[rng.randrange(len(pool))]
                hub = target
            linked.add(target)
            adj[source].append(target)
            adj[target].append(source)
            edges.append((target, source))
        for target in adj[source]:
            pool.append(target)
        pool.extend([source] * m)
    return edges


def _fresh_neighbour(rng: random.Random, nbrs: List[int], linked: set) -> int:
    """A uniform draw from ``nbrs`` minus ``linked``, or -1 if that is empty."""
    # rejection keeps the draw uniform; few tries fail since |linked| <= m + 1
    for _ in range(16):
        cand = nbrs[rng.randrange(len(nbrs))]
        if cand not in linked:
            return cand
    free = [v for v in nbrs if v not in linked]
    return free[rng.randrange(len(free))] if free else -1


def gnm(n: int, m: int, seed: int) -> List[Edge]:
    """Erdős–Rényi G(n, m): ``m`` distinct edges drawn uniformly on nodes 0..n-1."""
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError("m must lie in [0, n(n-1)/2]")
    rng = random.Random(seed)
    seen = set()
    edges: List[Edge] = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        edges.append(key)
    return edges


def pajek_text(n: int, edges: List[Edge]) -> str:
    """Pajek text with 1-based ids: a labelled ``*Vertices`` block, then ``*Edges``."""
    lines = [f"*Vertices {n}"]
    lines.extend(f'{v} "v{v}"' for v in range(1, n + 1))
    lines.append("*Edges")
    lines.extend(f"{u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def edgelist_text(edges: List[Edge]) -> str:
    """Plain ``u v`` edge list with the generator's 0-based labels."""
    return "".join(f"{u} {v}\n" for u, v in edges)
