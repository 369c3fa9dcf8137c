"""Every measure against networkx on seeded random graphs of up to 300 nodes,
and TR and SDEG also on one 2500-node graph with hubs.

networkx is an independent implementation of TR, DC, BC, CNC, PR and EC, so
these tests reach sizes the brute-force oracles in ``oracles.py`` cannot.
SDEG is read off ``nx.common_neighbors``. TC has no networkx counterpart; it
is checked against the per-node set primitives ``triangles_at`` and
``triangle_neighbors``.
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

from conftest import triad_rich

nx = pytest.importorskip("networkx")


def _gnp(rng: random.Random, labels, p: float):
    return [(u, v) for u, v in combinations(labels, 2) if rng.random() < p]


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
        return Graph(triad_rich(rng, core, 3), nodes=labels)
    half = n // 2
    left = [3 * v for v in labels[:half]]
    right = [3 * v + 1 for v in labels[half:]]
    return Graph(_gnp(rng, left, 0.3) + triad_rich(rng, right, 2), nodes=left + right)


SEEDS = range(16)


def _grid(side: int) -> Graph:
    return Graph(
        [(side * r + c, side * r + c + 1) for r in range(side) for c in range(side - 1)]
        + [(side * r + c, side * (r + 1) + c) for r in range(side - 1) for c in range(side)]
    )


# Shapes whose BFS runs deeper than the 32 levels up to which BC works in
# sparse x dense products, so that its per-source branch is checked too (no
# seeded graph gets that deep), plus a shallow grid for the products.
SHAPES = {
    "path-150": lambda: Graph([(v, v + 1) for v in range(149)]),
    "ring-120": lambda: Graph([(v, (v + 1) % 120) for v in range(120)]),
    "grid-20x20": lambda: _grid(20),  # depth 38
    "grid-8x8": lambda: _grid(8),  # depth 14
}
CASES = [*SEEDS, *SHAPES]


def case_graph(case) -> Graph:
    return SHAPES[case]() if case in SHAPES else make_graph(case)


def to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges())
    return h


@pytest.mark.parametrize("case", CASES)
def test_triangles_degree_closeness_exact(case):
    g = case_graph(case)
    h = to_nx(g)
    tr = triangle_count_centrality(g)
    dc = degree_centrality(g)
    cnc = closeness_centrality(g)
    assert {v: tr[v] for v in g.nodes} == {v: float(t) for v, t in nx.triangles(h).items()}
    assert {v: dc[v] for v in g.nodes} == {v: float(d) for v, d in h.degree()}
    assert {v: cnc[v] for v in g.nodes} == nx.closeness_centrality(h, wf_improved=True)


def nx_sdeg(h) -> dict:
    """Per node, how many of its neighbours it shares a common neighbour with."""
    return {v: float(sum(1 for j in h[v] if set(nx.common_neighbors(h, v, j)))) for v in h}


@pytest.mark.parametrize("case", CASES)
def test_sdeg_matches_networkx(case):
    g = case_graph(case)
    sd = sdeg_centrality(g)
    assert {v: sd[v] for v in g.nodes} == nx_sdeg(to_nx(g))


def test_tr_and_sdeg_match_networkx_on_a_large_graph_with_hubs():
    rng = random.Random(2024)
    g = Graph(triad_rich(rng, rng.sample(range(-10**6, 10**6), 2500), 4))
    h = to_nx(g)
    tr, sd = triangle_count_centrality(g), sdeg_centrality(g)
    assert max(d for _, d in h.degree()) > 100
    assert {v: tr[v] for v in g.nodes} == {v: float(t) for v, t in nx.triangles(h).items()}
    assert {v: sd[v] for v in g.nodes} == nx_sdeg(h)


@pytest.mark.parametrize("case", CASES)
def test_betweenness_matches_networkx(case):
    g = case_graph(case)
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


def _deep_beside_shallow(seed, ring: bool, length: int, size: int, m: int, bridges: int) -> Graph:
    """A path or ring of ``length`` nodes, deeper than BC's 32-level product
    sweeps go, beside a Holme–Kim part of ``size`` nodes, joined to it by
    ``bridges`` edges, under shuffled labels."""
    rng = random.Random(seed)
    line = [(v, (v + 1) % length) for v in range(length if ring else length - 1)]
    part = triad_rich(rng, range(length, length + size), m)
    links = [(rng.randrange(length), rng.randrange(length, length + size)) for _ in range(bridges)]
    labels = rng.sample(range(-1000, 1000), length + size)
    return Graph([(labels[u], labels[v]) for u, v in line + part + links])


def test_bc_and_cnc_on_random_deep_and_shallow_graphs(monkeypatch):
    # sources in the Holme-Kim part of an unbridged graph run in products at
    # width 1; every block holding a path or ring node runs per source. For
    # closeness, each path or ring source outgrows the bit levels and adds its
    # far pairs from a shortest-path search
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from tricent import measures

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.booleans(),
        st.integers(70, 120),
        st.integers(10, 60),
        st.integers(2, 4),
        st.integers(0, 2),
    )
    def check(seed, ring, length, size, m, bridges):
        g = _deep_beside_shallow(seed, ring, length, size, m, bridges)
        h = to_nx(g)
        bc_ref = nx.betweenness_centrality(h)
        cnc_ref = nx.closeness_centrality(h, wf_improved=True)
        for width in (1, 7, 64, g.node_count):
            monkeypatch.setattr(measures, "_DISTANCE_CELLS", width * g.node_count)
            monkeypatch.setattr(measures, "_batch_width", lambda g, width=width: width)
            bc = betweenness_centrality(g)
            assert max(abs(bc[v] - bc_ref[v]) for v in g.nodes) <= 1e-12
            assert closeness_centrality(g) == cnc_ref

    check()
