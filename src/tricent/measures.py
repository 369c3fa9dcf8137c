"""Centrality measures: the triangle-neighborhood score and six baselines."""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Dict, Iterable, Iterator, List, Optional

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


def _matrix(g: Graph, dtype=float):
    """g's adjacency as a scipy CSR array with every entry 1, for its products.
    scipy is imported here, not at module level: it slows `import tricent`."""
    from scipy import sparse

    n = g.node_count
    return sparse.csr_array((np.ones(len(g._indices), dtype), g._indices, g._indptr), shape=(n, n))


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


# Distance cells per block of sources: BC's (n, width) level masks and its
# float64 sigma, delta and share (one workspace per call, whose float32 sigma
# lives in share's bytes), or closeness's (width, n) shortest-path distances.
# A closeness batch holds at most as many uint64 words per node array and
# gathers as many per level.
_DISTANCE_CELLS = 1 << 16

# BC counts a level's shortest paths in float32 while every count on it is
# below this, 2**24, the first integer above which float32 skips some.
_FLOAT32_EXACT = 1 << 24

# Share of a block's cells below which BC's back sweep reads and writes a
# level's cells by index rather than in whole-array passes. On a 2-vCPU Xeon
# a level's share costs about 5-6 ns a selected cell by index and 2 ns a
# block cell in passes; shares of 0.05-0.3 timed alike on blogs-hk and
# USAir-sized blocks, a 16x16 grid and 40 chains of 16 diamonds.
_SPARSE_LEVEL = 0.1

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


def _bfs_levels(g: Graph, rows: np.ndarray) -> Iterator[np.ndarray]:
    """BFS from all of ``rows`` at once, one bit per source (Then et al., VLDB
    2014): bit j % 64 of word j // 64 stands for ``rows[j]``.

    Yields the levels d = 1, 2, ... while some source still grows. Row v of
    level d, an (n, words) uint64 array, holds the sources at distance d from
    v, as the graph is undirected; the next level overwrites it.
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
    while True:
        np.take(frontier, indices, axis=0, out=gathered[:-1], mode="clip")  # in range; "raise" buffers out
        np.bitwise_or.reduceat(gathered, indptr[:-1], axis=0, out=nxt)
        nxt &= unseen
        if not nxt.any():
            return
        unseen ^= nxt
        yield nxt
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


def _sparse_cells(level: np.ndarray) -> Optional[np.ndarray]:
    """The flat indices of a level mask's cells, or None if it holds at least
    ``_SPARSE_LEVEL`` of them, when whole-array passes are the faster."""
    if np.count_nonzero(level) >= _SPARSE_LEVEL * level.size:
        return None
    return np.flatnonzero(level)


def _brandes_source(s: int, nbrs: List[List[int]]) -> List[float]:
    """Source s's dependencies by one BFS and a back sweep in the products'
    arithmetic: delta[v] is sigma[v] times v's row of ``a @ share``."""
    n = len(nbrs)
    succ: list[list[int]] = [[] for _ in range(n)]
    sigma, dist = [0] * n, [-1] * n
    sigma[s], dist[s] = 1, 0
    order = [s]  # the BFS queue, read as it grows; reversed, the back sweep's stack
    for v in order:
        for w in nbrs[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                order.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                succ[v].append(w)
    delta, share = [0.0] * n, [0.0] * n  # share[w]: (1 + delta[w]) / sigma[w]
    for v in reversed(order[1:]):  # the source's own dependency stays 0
        total = 0.0  # over v's next level in CSR order; sum() is compensated from Python 3.12
        for w in succ[v]:
            total += share[w]
        delta[v] = total * sigma[v]
        share[v] = (1.0 + delta[v]) / sigma[v]
    return delta


def _dependencies(a, a32, levels: List[np.ndarray], rows: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The (n, width) dependencies of every node on each source of ``rows``, from
    their BFS ``levels`` (levels[d - 1] the (n, width) mask of distance d), by
    sparse x dense products with the adjacency ``a`` and its float32 copy.

    ``work`` is the call's workspace, a float64 array whose three rows, of
    at least n * width cells each, hold sigma, delta and share. The block
    works on C-ordered (n, width) views of their first cells, fills each
    before reading it, and returns delta's, so blocks of any width share it.

    The forward sweep counts shortest paths (sigma) from the level-1 mask,
    where every count is 1, and needs no mask of the level before: a node's
    neighbours on its own level or the next still hold sigma 0. The counts
    are integers, and every partial sum of a level-d count is at most that
    count, so the sweep runs in float32 while a level's largest count stays
    below ``_FLOAT32_EXACT``. The first level that reaches it is redone in
    float64 from the last exact sigma, as are the levels after it. The
    float32 counts live in share's bytes, which the back sweep first writes
    after the counts are done.

    The back sweep runs in float64. It touches a level with few cells by
    index, else in whole-array passes, where an unreached cell's sigma of 1
    keeps the divides finite and a product with the mask zeroes the cells
    off the level. Each cell gets the same operations in the same order
    either way, so every score is the one an all-float64 sweep gives.
    """
    shape, cells = levels[0].shape, levels[0].size
    sigma64, delta, share = (buf[:cells].reshape(shape) for buf in work)
    sigma = work[2].view(np.float32)[:cells].reshape(shape)  # in share's bytes
    np.copyto(sigma, levels[0])
    sigma[rows, np.arange(len(rows))] = 1.0
    for level in levels[1:]:  # level d touches only d - 1, d, d + 1, and sigma is 0 from d on
        if sigma.dtype == np.float32:
            step = a32 @ sigma
            step *= level
            if step.max() < _FLOAT32_EXACT:
                sigma += step
            else:  # this level and the rest in float64
                np.copyto(sigma64, sigma)
                sigma = sigma64
            del step  # each product is freed before the next is made
        if sigma.dtype == np.float64:
            sigma += a @ sigma * level
    sigma = np.maximum(sigma, 1.0, out=sigma64, dtype=float)
    delta.fill(0.0)
    share.fill(0.0)
    sigma_f, delta_f, share_f = sigma.reshape(-1), delta.reshape(-1), share.reshape(-1)
    below = _sparse_cells(levels[-1])
    # a level d - 1 cell's neighbours lie on levels d - 2 to d, so share may keep
    # the levels deeper than d, and delta is 0 on level d - 1 until it is set
    for d in range(len(levels) - 1, 0, -1):
        cells, below = below, _sparse_cells(levels[d - 1])
        if cells is None:
            np.add(delta, 1.0, out=share)
            share *= levels[d]
            share /= sigma
        else:
            share_f[cells] = (1.0 + delta_f[cells]) / sigma_f[cells]
        step = a @ share
        if below is None:
            step *= sigma
            step *= levels[d - 1]
            delta += step
        else:
            delta_f[below] = step.reshape(-1)[below] * sigma_f[below]
        del step
    return delta


def betweenness_centrality(g: Graph) -> Dict[NodeId, float]:
    """Shortest-path betweenness over unordered node pairs (Brandes).

    Each node's score is the sum over pairs (s, t) of the fraction of
    shortest s-t paths passing through it, scaled by 2/((n-1)(n-2)), which
    never changes rank order. Below 3 nodes every score is 0.

    Sources run in blocks, whose BFS levels come from the bit-parallel BFS. A
    block at most ``_BETWEENNESS_DEPTH`` levels deep counts shortest paths
    and back-propagates dependencies level by level (``_dependencies``); a
    deeper block runs Brandes' BFS per source in the same arithmetic. Each
    source's dependencies are added to the scores in source order, so block
    width, branch and sweep path leave every score ``==`` while each shortest
    path count is below 2**53 (the products count in floats, the per-source
    branch in Python ints). Exact ties between equivalent nodes are not
    promised. The first product block allocates the call's one workspace,
    which later ones reuse, so the allocator neither returns nor faults in
    its pages per block.
    """
    _require_nonempty(g)
    n = g.node_count
    acc = np.zeros(n)
    a = a32 = work = nbrs = None
    width = max(1, _DISTANCE_CELLS // n)
    for rows in _blocks(np.arange(n), width):
        levels = []  # levels[d - 1]: the (n, width) mask of distance d
        for d, nxt in enumerate(_bfs_levels(g, rows), 1):
            if d > _BETWEENNESS_DEPTH:
                if nbrs is None:
                    indptr, indices = g._indptr.tolist(), g._indices.tolist()
                    nbrs = [indices[indptr[k] : indptr[k + 1]] for k in range(n)]
                for s in rows.tolist():
                    acc += _brandes_source(s, nbrs)
                break
            levels.append(_bits(nxt, len(rows)))
        else:
            if not levels:  # no source reaches anything, so every dependency is 0
                continue
            if a is None:
                a, a32 = _matrix(g), _matrix(g, np.float32)
                work = np.empty((3, n * min(width, n)))  # one allocation: a lower peak RSS than three
            for column in _dependencies(a, a32, levels, rows, work).T:
                acc += column
    # every unordered pair was accumulated from both endpoints; below 3 nodes acc is all 0
    return _scores(g, acc * (1.0 / max((n - 1) * (n - 2), 1)))


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
        for d, nxt in enumerate(_bfs_levels(g, rows), 1):
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


def _check_solver(tol: float, max_iter: int, damping: Optional[float] = None) -> None:
    """The iterative solvers' parameter rule, which the CLI applies too; a
    given damping is checked first, then tol, then max_iter."""
    if damping is not None and not 0.0 < damping < 1.0:
        raise ValueError("damping must lie strictly between 0 and 1")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")


def _iterate(step: Callable, x: np.ndarray, tol: float, max_iter: int, what: str) -> np.ndarray:
    """Run ``result, residual, x = step(x)`` until the residual drops below
    ``tol`` and return that result, or raise after ``max_iter`` steps."""
    for _ in range(max_iter):
        result, residual, x = step(x)
        if residual < tol:
            return result
    raise ConvergenceError(f"{what} did not converge in {max_iter} steps", residual)


def eigenvector_centrality(g: Graph, tol: float = 1e-10, max_iter: int = 1000) -> Dict[NodeId, float]:
    """Principal-eigenvector scores by power iteration from the uniform vector.

    Returns x with unit Euclidean length and nonnegative entries satisfying
    A x = lambda x up to a max-norm residual below ``tol``. Iteration uses the
    shifted operator A + I so bipartite structure cannot oscillate. Graphs
    without edges score 0 everywhere; isolated nodes decay to ~0.
    """
    _require_nonempty(g)
    _check_solver(tol, max_iter)
    if g.edge_count == 0:
        return _scores(g, [0.0] * g.node_count)
    n = g.node_count
    a = _matrix(g)

    def step(x):  # x, its residual, and the next shifted power-iteration vector
        ax = a @ x
        lam = float(x @ ax)
        y = ax + x
        return x, float(np.max(np.abs(ax - lam * x))), y / float(np.linalg.norm(y))

    x = np.full(n, 1.0 / math.sqrt(n))
    return _scores(g, _iterate(step, x, tol, max_iter, "eigenvector iteration"))


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
    _check_solver(tol, max_iter, damping)
    n = g.node_count
    a = _matrix(g)
    deg = np.diff(g._indptr).astype(float)
    dangling = deg == 0.0
    deg[dangling] = 1.0  # a node without edges is in no row of a, so the product never reads its share

    def step(rank):  # the next ranks, how far they moved, and the next ranks again
        loose_mass = float(rank[dangling].sum())
        nxt = (1.0 - damping) / n + damping * (a @ (rank / deg) + loose_mass / n)
        return nxt, float(np.max(np.abs(nxt - rank))), nxt

    return _scores(g, _iterate(step, np.full(n, 1.0 / n), tol, max_iter, "pagerank"))


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
