"""Every measure against networkx on seeded random graphs of up to 300 nodes.

networkx is an independent implementation of TR, DC, BC, CNC, PR and EC, so
these tests reach sizes the brute-force oracles in ``oracles.py`` cannot.
TC and SDEG have no networkx counterpart; they are checked against the
per-node set primitives ``triangles_at`` and ``triangle_neighbors``.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from tricent import (
    Graph,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    pagerank,
    sdeg_centrality,
    tr_centrality,
    triangle_count_centrality,
    triangle_neighbors,
    triangles_at,
)

nx = pytest.importorskip("networkx")


def _gnp(rng: random.Random, labels, p: float):
    return [(u, v) for u, v in combinations(labels, 2) if rng.random() < p]


def _triad_rich(rng: random.Random, labels, m: int):
    """Preferential attachment with triad closure (Holme–Kim style)."""
    adj: dict = {}
    ends: list = []  # one entry per edge end: a degree-weighted draw
    edges = []
    for v in labels:
        targets: list = []
        while len(targets) < min(m, len(adj)):
            if targets and rng.random() < 0.6 and adj[targets[-1]]:
                u = rng.choice(sorted(adj[targets[-1]]))  # close a triangle
            else:
                u = rng.choice(ends or sorted(adj))
            if u not in targets:
                targets.append(u)
        adj[v] = set()
        for u in targets:
            adj[u].add(v)
            adj[v].add(u)
            edges.append((u, v))
            ends += [u, v]
    return edges


SIZES = (300, 7, 120, 2, 200, 25, 60, 1, 300, 3, 150, 40, 250, 12, 80, 300)


def make_graph(seed: int) -> Graph:
    """A seeded graph: its size and shape vary with the seed.

    Shapes cycle through dense G(n, p), sparse G(n, p) (several components),
    a triad-rich graph plus isolated nodes, and two disjoint parts with
    scattered labels.
    """
    rng = random.Random(seed)
    n = SIZES[seed % len(SIZES)]
    labels = list(range(1, n + 1))
    kind = seed % 4
    if kind == 0:
        return Graph(_gnp(rng, labels, min(1.0, 6.0 / max(n, 1))), nodes=labels)
    if kind == 1:
        return Graph(_gnp(rng, labels, 1.2 / max(n, 1)), nodes=labels)
    if kind == 2:
        core = labels[: max(1, n - n // 10)]
        return Graph(_triad_rich(rng, core, 3), nodes=labels)
    half = n // 2
    left = [3 * v for v in labels[:half]]
    right = [3 * v + 1 for v in labels[half:]]
    return Graph(_gnp(rng, left, 0.3) + _triad_rich(rng, right, 2), nodes=left + right)


SEEDS = range(16)


def to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges())
    return h


@pytest.mark.parametrize("seed", SEEDS)
def test_triangles_degree_closeness_exact(seed):
    g = make_graph(seed)
    h = to_nx(g)
    tr = triangle_count_centrality(g)
    dc = degree_centrality(g)
    cnc = closeness_centrality(g)
    assert {v: tr[v] for v in g.nodes} == {v: float(t) for v, t in nx.triangles(h).items()}
    assert {v: dc[v] for v in g.nodes} == {v: float(d) for v, d in h.degree()}
    assert {v: cnc[v] for v in g.nodes} == nx.closeness_centrality(h, wf_improved=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_betweenness_matches_networkx(seed):
    g = make_graph(seed)
    bc = betweenness_centrality(g)
    ref = nx.betweenness_centrality(to_nx(g))
    assert max(abs(bc[v] - ref[v]) for v in g.nodes) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_pagerank_matches_networkx(seed):
    g = make_graph(seed)
    pr = pagerank(g, damping=0.85, tol=1e-14, max_iter=10000)
    ref = nx.pagerank(to_nx(g), alpha=0.85, tol=1e-15, max_iter=10000)
    # both solvers stop on a change below their tolerance, not at the fixed point
    assert max(abs(pr[v] - ref[v]) for v in g.nodes) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_eigenvector_matches_networkx(seed):
    # networkx rejects disconnected graphs (the eigenvector need not be
    # unique), so compare on the largest component
    g = make_graph(seed)
    g = g.induced_subgraph(max(nx.connected_components(to_nx(g)), key=len))
    if g.node_count < 3:
        pytest.skip("networkx's sparse eigensolver needs at least 3 nodes")
    ec = eigenvector_centrality(g, tol=1e-13, max_iter=100000)
    ref = nx.eigenvector_centrality_numpy(to_nx(g))
    # power iteration stops once max|Ax - lam x| < tol, which leaves an
    # error of about tol / (spectral gap) in x
    assert max(abs(ec[v] - ref[v]) for v in g.nodes) <= 1e-10


@pytest.mark.parametrize("seed", SEEDS)
def test_tc_and_sdeg_match_per_node_primitives(seed):
    g = make_graph(seed)
    tc = tr_centrality(g)
    sd = sdeg_centrality(g)
    for v in g.nodes:
        gamma = len(triangle_neighbors(g, v))
        assert sd[v] == float(gamma)
        assert tc[v] == 0.01 * (3 * gamma + triangles_at(g, v) - 2)
