"""Ranking-comparison and node-removal experiments."""

from __future__ import annotations

import random
from itertools import chain
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .graph import Graph, NodeId, _density
from .measures import Measure, _require_nonempty, compute

# Column order used by every comparison table and removal report.
COMPARISON_MEASURES: Tuple[Measure, ...] = (
    Measure.TR,
    Measure.BC,
    Measure.CNC,
    Measure.EC,
    Measure.PR,
    Measure.TC,
)

# Damping used when reproducing the reference rankings. The usual 0.85
# web-graph default promotes high-degree hubs enough to swap two karate
# nodes; the reference tables are consistent with a milder walk (any value
# below ~0.384 gives the reference karate column).
EXPERIMENT_DAMPING = 0.35

# Seed for the random-removal baseline; fixed so reruns are comparable.
DEFAULT_SEED = 42


def _residual_densities(g: Graph, picks: np.ndarray) -> List[float]:
    """``density(g.remove_nodes(S))`` for each row S of ``picks``, a 2-d
    array whose rows each hold distinct rows of g, from edge counts alone.

    Deleting S leaves m' = m - sum(deg(v) for v in S) + e(S) edges, where e(S)
    counts the edges inside S (subtracted twice by the degree sum), on
    n' = n - |S| nodes. One pass over the picks' adjacency entries counts
    both sums for every S.
    """
    sets, k = picks.shape
    n, indptr = g.node_count, g._indptr
    picks = picks.reshape(-1)
    owner = np.repeat(np.arange(sets), k)  # the set of each pick
    count = np.diff(indptr)[picks]
    at = np.repeat(indptr[picks] - np.cumsum(count) + count, count)
    at += np.arange(len(at))  # the adjacency entries of each pick, in turn
    entry_set = np.repeat(owner, count)
    picked = owner * n + picks  # keyed by set, so a pick counts only in its own set
    picked.sort()
    ends = entry_set * n + g._indices[at]
    inside = picked.take(np.searchsorted(picked, ends), mode="clip") == ends
    # an edge inside S is met from both of its ends
    inner = np.bincount(entry_set[inside], minlength=sets) // 2
    left = g.edge_count - np.bincount(entry_set, minlength=sets) + inner
    return [_density(n - k, edges) for edges in left.tolist()]


def _check_k(g: Graph, k: int, where: str = "") -> None:
    """Reject a negative k, and one that leaves fewer than 2 nodes, whose density is undefined."""
    n = g.node_count
    if k < 0:
        raise ValueError(f"{where}k must be nonnegative")
    if k >= n:
        raise ValueError(f"{where}k={k} must be smaller than the node count {n}")
    if n - k < 2:
        raise ValueError(f"{where}k={k} leaves 1 of {n} nodes; residual density needs 2")


def rank_top_k(scores: Mapping[NodeId, float], k: int) -> List[NodeId]:
    """First min(k, n) nodes by descending score, ties by ascending label.

    Only the nodes scored at or above the k-th largest score are sorted. NaN
    scores, which no measure returns, are outside this contract.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    import heapq  # not at module level: it slows `import tricent`

    top = heapq.nlargest(k, scores.values())
    if not top:
        return []
    return sorted((v for v in scores if scores[v] >= top[-1]), key=lambda v: (-scores[v], v))[:k]


def comparison_table(
    g: Graph,
    k: int,
    measures: Sequence[Measure] = COMPARISON_MEASURES,
    *,
    damping: float = EXPERIMENT_DAMPING,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> Dict[Measure, Tuple[NodeId, ...]]:
    """Top-k nodes of each measure, keyed in ``measures`` order."""
    _require_nonempty(g)
    return {m: tuple(rank_top_k(compute(g, m, damping=damping, tol=tol, max_iter=max_iter), k)) for m in measures}


def removal_impact(
    g: Graph,
    k: int,
    measures: Sequence[Measure] = COMPARISON_MEASURES,
    *,
    damping: float = EXPERIMENT_DAMPING,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> Dict[Measure, Tuple[float, Tuple[NodeId, ...]]]:
    """Residual density and removed nodes after deleting each measure's top k.

    Lower residual density means the removed nodes carried more of the
    network's linkage. k = 0 is allowed and reports the intact density.
    """
    _check_k(g, k)
    table = comparison_table(g, k, measures, damping=damping, tol=tol, max_iter=max_iter)
    rows = g._rows(chain.from_iterable(table.values())).reshape(len(table), k)
    densities = _residual_densities(g, rows)
    return {measure: (density, top) for (measure, top), density in zip(table.items(), densities)}


def random_removal_density(
    g: Graph,
    k: int,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> float:
    """Mean residual density after deleting k uniformly random nodes.

    Trial t removes ``rng.sample(list(g.nodes), k)``, the t-th draw of one
    ``random.Random(seed)``, and its density is added to the total in trial
    order. The trials run in chunks, whose gathers hold at most about as
    many entries as the adjacency, or 2**16.
    """
    _check_k(g, k)
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(seed)
    n = g.node_count
    widest = k * max(1, int(np.diff(g._indptr).max(initial=0)))  # a trial's most adjacency entries
    per = max(1, max(len(g._indices), 1 << 16) // max(1, widest))  # trials per chunk
    total = 0.0
    for first in range(0, trials, per):
        chunk = min(per, trials - first)
        # rng.sample draws positions alone: from range(n) it gives the rows of
        # the labels it would draw from list(g.nodes)
        draws = chain.from_iterable(rng.sample(range(n), k) for _ in range(chunk))
        picks = np.fromiter(draws, np.intp, chunk * k)
        for density in _residual_densities(g, picks.reshape(chunk, k)):
            total += density
    return total / trials
