"""Centrality measures: the triangle-neighborhood score and six baselines."""

from __future__ import annotations

import math
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .graph import Graph, NodeId, _triangle_counts, triangle_neighbors


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class Measure(str, Enum):
    """Stable textual tags for every score the library can compute."""

    TC = "TC"  # triangle-neighborhood (mobility-style) centrality
    TR = "TR"  # triangles incident to the node
    DC = "DC"  # degree
    BC = "BC"  # shortest-path betweenness
    CNC = "CNC"  # closeness
    EC = "EC"  # eigenvector
    PR = "PR"  # PageRank
    SDEG = "SDEG"  # triangle-neighborhood size

    def __str__(self) -> str:  # else str() gives 'Measure.TC', and format() too from Python 3.11
        return self.value


def _require_nonempty(g: Graph) -> None:
    if g.node_count == 0:
        raise ValueError("measure needs a nonempty graph")


def _scores(g: Graph, values: Iterable[float]) -> Dict[NodeId, float]:
    """Scores given in node order (the adjacency's row order), as Python floats."""
    return dict(zip(g.nodes, np.asarray(values, dtype=float).tolist()))


def _matrix(g: Graph):
    """g's adjacency as a scipy CSR array with every entry 1.0, for its products.
    scipy is imported here, not at module level: it slows `import tricent`."""
    from scipy import sparse

    n = g.node_count
    return sparse.csr_array((np.ones(len(g._indices)), g._indices, g._indptr), shape=(n, n))


def sdeg(g: Graph, i: NodeId) -> int:
    """Size of node i's triangle-connected neighborhood; never exceeds deg(i)."""
    return len(triangle_neighbors(g, i))


def tr_centrality(g: Graph) -> Dict[NodeId, float]:
    """Tr-centrality: a mobility-style influence score on triangle neighborhoods.

    For node i, let gamma_i be its triangle-connected neighbors (sdeg_i =
    |gamma_i|), NT_i the number of edges among i's neighbors (= triangles
    incident to i), and G_i the subgraph induced on {i} | gamma_i. Treating
    G_i like a planar linkage whose joints constrain its sdeg_i + 1 nodes:

        TC_i = 0.01 * [ 3*sdeg_i - (2*(sdeg_i + 1) + NT_i) + D_i ]

    where D_i is the sum of the in-subgraph degrees of all nodes of G_i.
    Since every edge among i's neighbors joins two triangle neighbors,
    G_i has exactly sdeg_i + NT_i edges, so D_i = 2*(sdeg_i + NT_i) and the
    whole expression collapses to the closed form computed here,
    0.01 * (3*sdeg_i + NT_i - 2). The 0.01 factor only keeps values small on
    large networks; it never affects rank order. Triangle-free nodes score
    -0.02.
    """
    _require_nonempty(g)
    triangles, sizes = _triangle_counts(g)
    return _scores(g, 0.01 * (3 * sizes + triangles - 2))


def sdeg_centrality(g: Graph) -> Dict[NodeId, float]:
    """Triangle-neighborhood size (sdeg) of every node."""
    _require_nonempty(g)
    return _scores(g, _triangle_counts(g)[1])


def triangle_count_centrality(g: Graph) -> Dict[NodeId, float]:
    """Per-node count of incident triangles."""
    _require_nonempty(g)
    return _scores(g, _triangle_counts(g)[0])


def degree_centrality(g: Graph) -> Dict[NodeId, float]:
    """Plain degree (number of direct links)."""
    _require_nonempty(g)
    return _scores(g, np.diff(g._indptr))


# Distance cells per block of sources: BC's (n, width) sigma, delta and level
# masks, or closeness's (width, n) shortest-path distances. A closeness batch
# holds at most as many uint64 words per node array and gathers as many per level.
_DISTANCE_CELLS = 1 << 16

# Deepest BFS, in levels, for which betweenness runs a block of sources as
# sparse x dense products. On a 2-vCPU Xeon a level of both sweeps costs about
# 1-2.5 ns per source and (n + nnz) entry (0.3-0.5 ns a product), against
# 90-250 ns per source and entry for a whole BFS in Python on connected graphs,
# so the products win up to 50-120 levels; on 40 disjoint diamond chains, where
# each BFS sees one chain, up to about 25. Deeper blocks run Brandes per source.
_BETWEENNESS_DEPTH = 32

# Deepest BFS, in levels, that closeness counts in bits. A source whose
# eccentricity exceeds it also runs a shortest-path search, which adds its
# farther pairs, so on a deep graph every level is paid on top of the search
# (about 1% of it each on a 2000-node ring). Karate and the seeded Holme-Kim
# graphs of 62 to 20k nodes are at most 5 levels deep; a limit of 8 was
# 2-7% slower on four deep graphs and no faster on these.
_CLOSENESS_DEPTH = 5

# masks of the SWAR popcount: alternate bits, bit pairs, nibbles; bytes summed by a multiply
_M1, _M2, _M4, _H01 = (
    np.uint64(m) for m in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)


def _blocks(rows: np.ndarray, width: int) -> List[np.ndarray]:
    """``rows`` in consecutive blocks of ``width``."""
    return np.split(rows, range(width, len(rows), width))


def _batch_width(g: Graph) -> int:
    """Sources per closeness batch: whole words, few enough that its (n, words)
    arrays and (nnz, words) gather each hold at most ``_DISTANCE_CELLS`` words,
    or one word per row if n or nnz is larger."""
    return 64 * max(1, _DISTANCE_CELLS // max(len(g._indices), g.node_count, 1))


def _bfs_levels(g: Graph, rows: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """BFS from all of ``rows`` at once, one bit per source (Then et al., VLDB
    2014): bit j % 64 of word j // 64 stands for ``rows[j]``.

    Yields (d, nxt) for d = 1, 2, ... while some source still grows. Row v of
    the (n, words) uint64 array nxt holds the sources at distance d from v,
    as the graph is undirected; the next level overwrites it.
    """
    indptr, indices = g._indptr, g._indices
    j = np.arange(len(rows))
    frontier = np.zeros((g.node_count, -(-len(rows) // 64)), np.uint64)
    frontier[rows, j // 64] = np.uint64(1) << (j % 64).astype(np.uint64)
    unseen = ~frontier
    unseen[indptr[:-1] == indptr[1:]] = 0  # nothing reaches a row without neighbours
    nxt = np.zeros_like(frontier)
    # reduceat gives a row without neighbours the next row's first word, which
    # unseen clears; the zero row past the end keeps every start in range
    gathered = np.zeros((len(indices) + 1, frontier.shape[1]), np.uint64)
    d = 0
    while True:
        np.take(frontier, indices, axis=0, out=gathered[:-1])
        np.bitwise_or.reduceat(gathered, indptr[:-1], axis=0, out=nxt)
        nxt &= unseen
        if not nxt.any():
            return
        unseen ^= nxt
        d += 1
        yield d, nxt
        frontier, nxt = nxt, frontier


def _bits(words: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` bits of each row of a uint64 array, as booleans."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=width, bitorder="little").view(bool)


def _popcount(words: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-d uint64 array; c and t are scratch of its shape."""
    np.right_shift(words, 1, out=t)
    t &= _M1
    np.subtract(words, t, out=c)
    np.right_shift(c, 2, out=t)
    t &= _M2
    c &= _M2
    c += t
    np.right_shift(c, 4, out=t)
    c += t
    c &= _M4
    c *= _H01
    c >>= 56
    return c.sum(axis=1, dtype=np.int64)


def _brandes_source(s: int, nbrs: List[List[int]], acc: List[float]) -> None:
    """Add source s's dependencies to acc: one BFS and its back-propagation."""
    n = len(nbrs)
    pred: list[list[int]] = [[] for _ in range(n)]
    sigma = [0] * n
    sigma[s] = 1
    dist = [-1] * n
    dist[s] = 0
    order = [s]  # the BFS queue, read as it grows; reversed, the back-propagation's stack
    for v in order:
        for w in nbrs[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                order.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                pred[w].append(v)
    delta = [0.0] * n
    for w in reversed(order):
        for v in pred[w]:
            delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
        if w != s:
            acc[w] += delta[w]


def betweenness_centrality(g: Graph) -> Dict[NodeId, float]:
    """Shortest-path betweenness over unordered node pairs (Brandes).

    Each node's score is the sum over pairs (s, t) of the fraction of
    shortest s-t paths passing through it, scaled by 2/((n-1)(n-2)) for
    n >= 3, which never changes rank order.

    Sources run in blocks, whose BFS levels come from the bit-parallel BFS. A
    block at most ``_BETWEENNESS_DEPTH`` levels deep counts shortest paths
    (sigma) and back-propagates dependencies (delta) level by level, as
    products of the adjacency with (n, width) arrays; a deeper block runs
    Brandes' BFS per source. The forward sweep needs no mask of the level
    before: a node's neighbours on its own level or the next still hold sigma 0.
    """
    _require_nonempty(g)
    n = g.node_count
    a = _matrix(g)
    acc = np.zeros(n)
    nbrs = None
    for rows in _blocks(np.arange(n), max(1, _DISTANCE_CELLS // n)):
        width = len(rows)
        levels = []  # levels[d - 1]: the (n, width) mask of distance d
        for d, nxt in _bfs_levels(g, rows):
            if d > _BETWEENNESS_DEPTH:
                if nbrs is None:
                    indptr, indices = g._indptr.tolist(), g._indices.tolist()
                    nbrs = [indices[indptr[k] : indptr[k + 1]] for k in range(n)]
                part = [0.0] * n
                for s in rows.tolist():
                    _brandes_source(s, nbrs, part)
                acc += part
                break
            levels.append(_bits(nxt, width))
        else:
            sigma = np.zeros((n, width))
            sigma[rows, np.arange(width)] = 1.0
            for level in levels:  # level d touches only d - 1, d, d + 1, and sigma is 0 from d on
                sigma += a @ sigma * level
            delta = np.zeros_like(sigma)
            for d in range(len(levels) - 1, 0, -1):
                share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=levels[d])
                np.multiply(a @ share, sigma, out=delta, where=levels[d - 1])
            acc += delta.sum(axis=1)
    # every unordered pair was accumulated from both endpoints
    scale = 1.0 / ((n - 1) * (n - 2)) if n >= 3 else 0.5
    return _scores(g, acc * scale)


def closeness_centrality(g: Graph) -> Dict[NodeId, float]:
    """Closeness with reachable-component scaling.

    With r(i) nodes reachable from i (excluding i) at total shortest-path
    distance S(i): score(i) = (r/(n-1)) * (r/S), which reduces to (n-1)/S(i)
    on connected graphs and to 0 for nodes that reach nothing.

    Sources run in batches of the bit-parallel BFS. The graph is undirected,
    so each node adds up, level by level, the batch sources at distance d
    from it: r and S are exact integers. A source whose BFS outgrows
    ``_CLOSENESS_DEPTH`` levels adds its farther pairs from scipy's unweighted
    shortest paths.
    """
    _require_nonempty(g)
    n = g.node_count
    reached = np.zeros(n, np.int64)
    total = np.zeros(n, np.int64)
    far = []
    for rows in _blocks(np.arange(n), _batch_width(g)):
        scratch = np.empty((2, n, -(-len(rows) // 64)), np.uint64)
        for d, nxt in _bfs_levels(g, rows):
            if d > _CLOSENESS_DEPTH:
                far.append(rows[_bits(np.bitwise_or.reduce(nxt, axis=0), len(rows))])
                break
            count = _popcount(nxt, *scratch)
            reached += count
            total += d * count
    if far:
        from scipy.sparse import csgraph  # not at module level: it slows `import tricent`

        a = _matrix(g)
        for rows in _blocks(np.concatenate(far), max(1, _DISTANCE_CELLS // n)):
            dist = csgraph.dijkstra(a, unweighted=True, indices=rows)
            dist[~np.isfinite(dist) | (dist <= _CLOSENESS_DEPTH)] = 0.0
            reached[rows] += np.count_nonzero(dist, axis=1)
            total[rows] += dist.sum(axis=1).astype(np.int64)
    # a node that reaches nothing has reached = total = 0 and scores 0.0
    return _scores(g, (reached / max(n - 1, 1)) * (reached / np.maximum(total, 1)))


def eigenvector_centrality(g: Graph, tol: float = 1e-10, max_iter: int = 1000) -> Dict[NodeId, float]:
    """Principal-eigenvector scores by power iteration from the uniform vector.

    Returns x with unit Euclidean length and nonnegative entries satisfying
    A x = lambda x up to a max-norm residual below ``tol``. Iteration uses the
    shifted operator A + I so bipartite structure cannot oscillate. Graphs
    without edges score 0 everywhere; isolated nodes decay to ~0.
    """
    _require_nonempty(g)
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if g.edge_count == 0:
        return _scores(g, [0.0] * g.node_count)
    n = g.node_count
    a = _matrix(g)
    x = np.full(n, 1.0 / math.sqrt(n))
    residual = math.inf
    for _ in range(max_iter):
        ax = a @ x
        lam = float(x @ ax)
        residual = float(np.max(np.abs(ax - lam * x)))
        if residual < tol:
            return _scores(g, x)
        y = ax + x
        x = y / float(np.linalg.norm(y))
    raise ConvergenceError(f"eigenvector iteration did not converge in {max_iter} steps", residual)


def pagerank(
    g: Graph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> Dict[NodeId, float]:
    """PageRank on the undirected graph, every edge acting in both directions.

    Fixed point of PR(i) = (1-d)/n + d * sum_{j ~ i} PR(j)/deg(j), with the
    mass of degree-0 nodes redistributed uniformly. Stops once the largest
    per-node change drops below ``tol``; scores always sum to 1 within
    floating-point error.
    """
    _require_nonempty(g)
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie strictly between 0 and 1")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    n = g.node_count
    a = _matrix(g)
    deg = np.diff(g._indptr).astype(float)
    dangling = deg == 0.0
    safe_deg = np.where(dangling, 1.0, deg)
    rank = np.full(n, 1.0 / n)
    change = math.inf
    for _ in range(max_iter):
        share = np.where(dangling, 0.0, rank) / safe_deg
        loose_mass = float(rank[dangling].sum())
        nxt = (1.0 - damping) / n + damping * (a @ share + loose_mass / n)
        change = float(np.max(np.abs(nxt - rank)))
        rank = nxt
        if change < tol:
            return _scores(g, rank)
    raise ConvergenceError(f"pagerank did not converge in {max_iter} steps", change)


def compute(
    g: Graph,
    measure: Measure,
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> Dict[NodeId, float]:
    """Uniform dispatch: compute any :class:`Measure` over ``g``.

    The numeric parameters only affect EC (tol, max_iter) and PR (all three).
    Deterministic for fixed inputs.
    """
    measure = Measure(measure)
    if measure is Measure.EC:
        return eigenvector_centrality(g, tol=tol, max_iter=max_iter)
    if measure is Measure.PR:
        return pagerank(g, damping=damping, tol=tol, max_iter=max_iter)
    return _PARAMETERLESS[measure](g)


_PARAMETERLESS = {
    Measure.TC: tr_centrality, Measure.TR: triangle_count_centrality,
    Measure.DC: degree_centrality, Measure.BC: betweenness_centrality,
    Measure.CNC: closeness_centrality, Measure.SDEG: sdeg_centrality,
}
