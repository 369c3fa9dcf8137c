"""Reference answers computed from the generator's edge list, independently of tricent.

Triangles and triangle-neighbourhood sizes come from a masked sparse product,
distances from scipy's breadth-first search, betweenness from a level-by-level
algebraic Brandes sweep over all sources at once, eigenvector scores from a
Lanczos solve, PageRank from a fixed, generous number of steps, and the
removal densities from the closed form m' = m - sum(deg(S)) + e(S). The
benchmark's tests pin these references to networkx.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import eigsh

Edge = Tuple[int, int]

# PageRank damping the CLI uses for rank, compare and ablate.
DAMPING = 0.35
_ROW_BLOCK = 2048
# the error shrinks by the damping factor per step: 0.35**80 < 1e-36
_PAGERANK_STEPS = 80


def adjacency(labels: Sequence[int], edges: Sequence[Edge]) -> sparse.csr_matrix:
    """Symmetric 0/1 matrix over ``labels`` (sorted), with duplicates and loops dropped."""
    index = {v: i for i, v in enumerate(labels)}
    e = np.array([(index[u], index[v]) for u, v in edges if u != v], dtype=np.int64)
    e = e.reshape(-1, 2)
    n = len(labels)
    a = sparse.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n)).tocsr()
    a = a + a.T
    a.data[:] = 1.0
    return a.tocsr()


def triangle_counts(a: sparse.csr_matrix) -> Tuple[np.ndarray, np.ndarray]:
    """Per node: triangles through it, and neighbours that share a triangle with it."""
    n = a.shape[0]
    tri = np.zeros(n, dtype=np.int64)
    sdeg = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, _ROW_BLOCK):
        rows = a[lo : lo + _ROW_BLOCK]
        common = (rows @ a).multiply(rows).tocsr()  # common neighbours per edge
        tri[lo : lo + _ROW_BLOCK] = np.rint(np.asarray(common.sum(axis=1)).ravel() / 2)
        sdeg[lo : lo + _ROW_BLOCK] = np.asarray((common > 0).sum(axis=1)).ravel()
    return tri, sdeg


def closeness(dist: np.ndarray) -> np.ndarray:
    """Closeness with reachable-component scaling, from an all-pairs distance matrix."""
    n = dist.shape[0]
    finite = np.isfinite(dist)
    reached = finite.sum(axis=1) - 1
    total = np.where(finite, dist, 0.0).sum(axis=1)
    out = np.zeros(n)
    ok = reached > 0
    out[ok] = (reached[ok] / (n - 1)) * (reached[ok] / total[ok])
    return out


def betweenness(a: sparse.csr_matrix, dist: np.ndarray) -> np.ndarray:
    """Normalised betweenness: shortest-path counts forward, dependencies backward."""
    n = a.shape[0]
    top = int(dist[np.isfinite(dist)].max()) if n else 0
    levels = [dist == d for d in range(top + 1)]
    sigma = levels[0].astype(float)  # row s: shortest-path counts from source s
    for d in range(1, top + 1):
        sigma += (a @ (sigma * levels[d - 1]).T).T * levels[d]
    safe = np.where(sigma > 0, sigma, 1.0)
    delta = np.zeros_like(sigma)
    for d in range(top - 1, 0, -1):
        coef = levels[d + 1] * (1.0 + delta) / safe
        delta += (a @ coef.T).T * sigma * levels[d]
    scale = 1.0 / ((n - 1) * (n - 2)) if n >= 3 else 0.5
    return delta.sum(axis=0) * scale


def eigenvector(a: sparse.csr_matrix) -> np.ndarray:
    """Unit-length principal eigenvector with nonnegative entries, by Lanczos."""
    _, vecs = eigsh(a, k=1, which="LA")
    x = np.abs(vecs[:, 0])
    return x / np.linalg.norm(x)


def pagerank(a: sparse.csr_matrix, damping: float = DAMPING) -> np.ndarray:
    """PageRank with dangling mass spread uniformly, iterated far past convergence."""
    n = a.shape[0]
    deg = np.asarray(a.sum(axis=0)).ravel()
    dangling = deg == 0
    walk = a @ sparse.diags(np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg)))
    x = np.full(n, 1.0 / n)
    for _ in range(_PAGERANK_STEPS):
        x = (1.0 - damping) / n + damping * (walk @ x + x[dangling].sum() / n)
    return x


def removal_mean(
    labels: Sequence[int],
    nbrs: Dict[int, set],
    edge_count: int,
    k: int,
    trials: int,
    seed: int,
) -> float:
    """Mean density left after deleting k random nodes, drawn as the library draws them."""
    rng = random.Random(seed)
    nodes = list(labels)
    total = 0.0
    for _ in range(trials):
        total += removal_density(nbrs, len(nodes), edge_count, rng.sample(nodes, k))
    return total / trials


def removal_density(nbrs: Dict[int, set], n: int, edge_count: int, removed: Sequence[int]) -> float:
    """Density after deleting ``removed``: m' = m - sum(deg) + e(S), n' = n - |S|."""
    gone = set(removed)
    inner = sum(len(nbrs[v] & gone) for v in gone) // 2
    left = edge_count - sum(len(nbrs[v]) for v in gone) + inner
    rest = n - len(gone)
    return 2.0 * left / (rest * (rest - 1))


def score_text(value: float) -> str:
    return f"{value:.6g}"


def rank_text(scores: Dict[int, float], k: int) -> str:
    """``rank`` CSV output: top k by descending score, ties by ascending label."""
    top = sorted(scores, key=lambda v: (-scores[v], v))[:k]
    lines = ["rank,node,score"]
    lines.extend(f"{r},{v},{score_text(scores[v])}" for r, v in enumerate(top, start=1))
    return "\n".join(lines) + "\n"


def build(
    labels: List[int],
    edges: Sequence[Edge],
    *,
    paths: bool,
    removals: Sequence[Tuple[int, int, int]],
    k: int,
) -> dict:
    """Everything the checks need about one graph, as JSON-ready values.

    ``paths`` adds BC, CNC and the adjacency lists that the ``compare`` and
    ``ablate`` checks need; ``removals`` lists (k, trials, seed) triples whose
    random-removal mean to precompute.
    """
    a = adjacency(labels, edges)
    tri, sdeg = triangle_counts(a)
    deg = np.asarray(a.sum(axis=1)).ravel().astype(np.int64)
    n, m = len(labels), int(deg.sum()) // 2
    tr = {v: float(tri[i]) for i, v in enumerate(labels)}
    tc = {v: 0.01 * (3 * int(sdeg[i]) + int(tri[i]) - 2) for i, v in enumerate(labels)}
    sd = {v: float(sdeg[i]) for i, v in enumerate(labels)}
    dens = score_text(2.0 * m / (n * (n - 1)))
    ref = {
        "nodes": n,
        "edges": m,
        "triangles": int(tri.sum()) // 3,
        "sum_deg_sq": int((deg * deg).sum()),
        "info": f"nodes,edges,density,triangles\n{n},{m},{dens},{int(tri.sum()) // 3}\n",
        "rank": {"TC": rank_text(tc, k), "TR": rank_text(tr, k), "SDEG": rank_text(sd, k)},
        "scores": {
            "TR": tr,
            "TC": tc,
            "EC": dict(zip(labels, eigenvector(a).tolist())),
            "PR": dict(zip(labels, pagerank(a).tolist())),
        },
    }
    nbrs: Dict[int, set] = {v: set() for v in labels}
    for u, v in edges:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    ref["removal"] = {
        f"{kk},{trials},{seed}": removal_mean(labels, nbrs, m, kk, trials, seed)
        for kk, trials, seed in removals
    }
    if paths:
        dist = csgraph.shortest_path(a, unweighted=True, directed=False)
        ref["scores"]["BC"] = dict(zip(labels, betweenness(a, dist).tolist()))
        ref["scores"]["CNC"] = dict(zip(labels, closeness(dist).tolist()))
        ref["adjacency"] = {v: sorted(nbrs[v]) for v in labels}
    return ref
