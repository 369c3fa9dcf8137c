"""Unit and property tests for the centrality measures."""

from __future__ import annotations

import math
import random
import tracemalloc
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from tricent import (
    ConvergenceError,
    Graph,
    Measure,
    betweenness_centrality,
    closeness_centrality,
    comparison_table,
    compute,
    degree_centrality,
    eigenvector_centrality,
    load_graph,
    pagerank,
    rank_top_k,
    sdeg,
    sdeg_centrality,
    tr_centrality,
    triangle_count_centrality,
    triangle_neighbors,
    triangles_at,
)

from conftest import random_graph, triad_rich
from oracles import oracle_closeness

GOLDEN = Path(__file__).resolve().parent / "golden"

# ----------------------------------------------------------------- Tr-centrality


def test_tc_triangle_is_005(triangle):
    scores = tr_centrality(triangle)
    for v in triangle.nodes:
        assert scores[v] == pytest.approx(0.05, abs=1e-12)


def test_tc_k4_is_010(k4):
    scores = tr_centrality(k4)
    for v in k4.nodes:
        assert scores[v] == pytest.approx(0.10, abs=1e-12)


def test_tc_diamond_hub_is_009(diamond):
    scores = tr_centrality(diamond)
    assert scores[1] == pytest.approx(0.09, abs=1e-12)
    assert scores[2] == pytest.approx(0.09, abs=1e-12)
    assert scores[3] == pytest.approx(0.05, abs=1e-12)


def test_tc_triangle_free_nodes_score_minus_002(path3):
    scores = tr_centrality(path3)
    assert all(scores[v] == pytest.approx(-0.02, abs=1e-12) for v in path3.nodes)


def tc_longhand(g, i):
    """TC_i straight from the mobility definition, with D_i summed over the cell.

    The cell is the subgraph induced on {i} | gamma_i; D_i is the sum of its
    nodes' degrees inside the cell.
    """
    members = triangle_neighbors(g, i)
    s = len(members)
    cell = members | {i}
    in_degree_sum = sum(len(g.neighbors(j) & cell) for j in cell)
    return 0.01 * (3 * s - (2 * (s + 1) + triangles_at(g, i)) + in_degree_sum)


def test_tc_closed_form_matches_definition():
    # the closed form 0.01 * (3*sdeg + NT - 2) must equal the mobility expression
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 20), rng.uniform(0.1, 0.7))
        scores = tr_centrality(g)
        for v in g.nodes:
            assert scores[v] == pytest.approx(tc_longhand(g, v), abs=1e-12)
            assert scores[v] == pytest.approx(
                0.01 * (3 * sdeg(g, v) + triangles_at(g, v) - 2), abs=1e-12
            )


def test_tc_empty_graph_rejected():
    functions = (
        tr_centrality, triangle_count_centrality, degree_centrality, betweenness_centrality,
        closeness_centrality, eigenvector_centrality, pagerank, sdeg_centrality,
    )
    calls = [lambda f=f: f(Graph()) for f in functions]
    calls += [lambda m=m: compute(Graph(), m) for m in Measure]
    calls.append(lambda: comparison_table(Graph(), 3, ()))  # even with no measure to run
    for call in calls:
        with pytest.raises(ValueError, match="^measure needs a nonempty graph$"):
            call()


def test_one_triangle_pass_per_graph(monkeypatch):
    # the graph keeps its counts, so the triangle measures, the dispatch and the
    # comparison table share one pass; a slice of it counts its own
    from tricent import graph, measures

    passes = []
    real = measures._triangle_counts

    def spy(g):
        if g._counts is None:
            passes.append(g)
        return real(g)

    monkeypatch.setattr(measures, "_triangle_counts", spy)
    g = load_graph(GOLDEN / "hk-332.net")
    scores = [tr_centrality(g), triangle_count_centrality(g), sdeg_centrality(g), compute(g, "SDEG")]
    table = comparison_table(g, 5)
    assert passes == [g]
    assert scores[2] == scores[3] and table[Measure.TC] == tuple(rank_top_k(scores[0], 5))
    victims = list(g.nodes)[::3]
    for sub in (g.remove_nodes(victims), g.induced_subgraph(victims)):
        fresh = graph._triangle_counts(Graph(sub.edges(), nodes=sub.nodes))
        assert sub._counts is None
        assert all(np.array_equal(a, b) for a, b in zip(graph._triangle_counts(sub), fresh))


def test_threads_sharing_a_graph_read_the_scores_of_one_thread():
    # first calls that race on one graph may each count, but they count alike;
    # a short switch interval makes the threads interleave inside the pass
    import sys
    from concurrent.futures import ThreadPoolExecutor

    functions = (tr_centrality, triangle_count_centrality, sdeg_centrality)
    want = [f(load_graph(GOLDEN / "hk-332.net")) for f in functions]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = load_graph(GOLDEN / "hk-332.net")
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(f, g) for _ in range(4) for f in functions]
                got = [future.result(timeout=60) for future in futures]
            assert got == want * 4
    finally:
        sys.setswitchinterval(interval)


# ------------------------------------------------------------ counting measures


def test_sdeg_star_center_zero():
    star = Graph([(1, v) for v in range(2, 7)])
    assert sdeg(star, 1) == 0


def test_sdeg_vs_degree(karate):
    for v in karate.nodes:
        assert sdeg(karate, v) <= karate.degree(v)


def test_degree_centrality(karate):
    scores = degree_centrality(karate)
    assert scores[1] == 16.0
    assert scores[34] == 17.0


def test_triangle_count_centrality(karate):
    scores = triangle_count_centrality(karate)
    assert scores[1] == 18.0
    total = sum(scores[v] for v in karate.nodes)
    assert total == 3 * 45  # 45 triangles in the karate club


# ----------------------------------------------------------------- betweenness


def test_betweenness_path_center():
    g = Graph([(1, 2), (2, 3)])
    scores = betweenness_centrality(g)
    assert scores[2] == pytest.approx(1.0)  # n=3: scale is 1/((n-1)(n-2)) = 1/2 per direction
    assert scores[1] == scores[3] == 0.0


def test_betweenness_star_center():
    star = Graph([(1, v) for v in range(2, 6)])
    assert betweenness_centrality(star)[1] == pytest.approx(1.0)


def test_betweenness_cycle_symmetry():
    g = Graph([(1, 2), (2, 3), (3, 4), (4, 1)])
    scores = betweenness_centrality(g)
    values = {round(scores[v], 12) for v in g.nodes}
    assert len(values) == 1


def test_betweenness_disconnected_pairs_ignored():
    g = Graph([(1, 2), (3, 4)])
    scores = betweenness_centrality(g)
    assert all(scores[v] == 0.0 for v in g.nodes)


@pytest.fixture(scope="module")
def betweenness_graphs(karate):
    files = ["toy.edges", "hk-332.net", "wide-labels.edges", "deep.edges"]
    split = Graph([(1, 2), (2, 3), (1, 3), (5, 6)], nodes=[4, 7])  # isolated 4 and 7
    ring = Graph([(v, (v + 1) % 200) for v in range(200)])
    # 60 diamonds in a row: 2^60 shortest paths end to end, 120 BFS levels
    diamonds = Graph(
        [(3 * i, 3 * i + j) for i in range(60) for j in (1, 2)]
        + [(3 * i + j, 3 * i + 3) for i in range(60) for j in (1, 2)]
    )
    # a 100-node path beside a dense Holme-Kim part: deep and shallow blocks in one call
    mixed = Graph(
        [(v, v + 1) for v in range(99)] + triad_rich(random.Random(5), range(100, 220), 6)
    )
    # 32 and 33 BFS levels from an end: either side of _BETWEENNESS_DEPTH
    path33, path34 = (Graph([(v, v + 1) for v in range(n - 1)]) for n in (33, 34))
    graphs = [karate, *(load_graph(GOLDEN / name) for name in files)]
    # edgeless: no source reaches anything, so the BFS yields no level
    edgeless3, edgeless1 = Graph([], nodes=[1, 2, 3]), Graph([], nodes=[5])
    graphs += [split, ring, diamonds, mixed, path33, path34, edgeless3, edgeless1]
    names = ["karate", *files, "split", "ring", "diamonds", "mixed", "path-33", "path-34"]
    names += ["edgeless-3", "edgeless-1"]
    return dict(zip(names, graphs))


def _betweenness_at(monkeypatch, g, width, depth):
    from tricent import measures

    cells = g.node_count * (g.node_count if width == "n" else width)
    monkeypatch.setattr(measures, "_DISTANCE_CELLS", cells)
    monkeypatch.setattr(measures, "_BETWEENNESS_DEPTH", depth)
    return betweenness_centrality(g)


@pytest.mark.parametrize(
    "name, width, calls",
    # on "mixed", the 15 blocks of 7 that hold a path node (rows 0-99) are deep
    [
        ("hk-332.net", "n", 0),
        ("ring", "n", 200),
        ("deep.edges", "n", 61),
        ("mixed", 7, 105),
        ("path-33", "n", 0),
        ("path-34", "n", 34),
    ],
)
def test_betweenness_runs_per_source_brandes_only_for_deep_blocks(
    monkeypatch, betweenness_graphs, name, width, calls
):
    from tricent import measures

    sources = []
    real = measures._brandes_source

    def spy(s, *rest):
        sources.append(s)
        return real(s, *rest)

    monkeypatch.setattr(measures, "_brandes_source", spy)
    _betweenness_at(monkeypatch, betweenness_graphs[name], width, measures._BETWEENNESS_DEPTH)
    assert len(sources) == calls


def _grid(k):
    return Graph(
        [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
        + [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    )


def _layers(k, w):
    """Node 0 joined to the first of k layers of w nodes, each joined whole to the next."""
    layer = [list(range(1 + i * w, 1 + (i + 1) * w)) for i in range(k)]
    return Graph([(0, v) for v in layer[0]] + [(u, v) for a, b in zip(layer, layer[1:]) for u in a for v in b])


def _deep_counts():
    # The 16x16 and 17x17 grids pass 2**24 paths partway through a corner's
    # sweep (over 2**27 and 2**29 at the far corner). From node 0 of 7 layers
    # of 17, the last layer's 17**6 paths are the first count above 2**24, and
    # float32 would round it, being odd.
    return {"grid-16": _grid(16), "grid-17": _grid(17), "layers-7x17": _layers(7, 17)}


@pytest.fixture(scope="module")
def betweenness_at_defaults(betweenness_graphs):
    return {name: (g, betweenness_centrality(g)) for name, g in {**betweenness_graphs, **_deep_counts()}.items()}


@pytest.mark.parametrize("depth", [None, -1, 10**9])
@pytest.mark.parametrize("width", [None, 1, 7, 64, 65, "n"])
def test_betweenness_scores_are_equal_at_every_hook_setting(monkeypatch, betweenness_at_defaults, width, depth):
    # BC adds each source's dependencies into the total one source at a time,
    # in source order, and its per-source branch does the products'
    # arithmetic, so while every shortest-path count is below 2**53 no block
    # width, depth branch or sweep path moves a score. None stands for the
    # hook's default. Depth -1 sends every block to per-source Brandes, 10**9
    # every block to the products. _FLOAT32_EXACT 0 counts every level after
    # the first in float64 (the 60 diamonds reach 2**60 paths, each count a
    # power of 2); _SPARSE_LEVEL 0 runs every back-sweep level in whole-array
    # passes, 2 every level by index. Above 100 nodes the sweep hooks vary
    # only at the default width, and not at depth -1, where no block reads them.
    from tricent import measures

    sparse, exact = measures._SPARSE_LEVEL, measures._FLOAT32_EXACT
    for name, (g, want) in betweenness_at_defaults.items():
        n = g.node_count
        with monkeypatch.context() as m:
            if width is not None:
                m.setattr(measures, "_DISTANCE_CELLS", n * (n if width == "n" else width))
            if depth is not None:
                m.setattr(measures, "_BETWEENNESS_DEPTH", depth)
            sweeps = product((sparse, 0, 2), (exact, 0))
            if n > 100 and (width is not None or depth == -1):
                sweeps = [(sparse, exact)]
            for level, cap in sweeps:
                m.setattr(measures, "_SPARSE_LEVEL", level)
                m.setattr(measures, "_FLOAT32_EXACT", cap)
                assert betweenness_centrality(g) == want, (name, level, cap)


def test_betweenness_blocks_score_alike_in_one_workspace(monkeypatch, betweenness_graphs):
    # In blocks of 7 sources, every product block of a call reuses its sigma,
    # delta and share, and the last block is narrower. The 17x17 grid counts
    # some blocks in float32 alone and switches others to float64, and "mixed"
    # runs per-source blocks between them. Each block must score as in a fresh
    # workspace, filled with NaN so that a cell read before it is set shows,
    # whichever sweep paths the hooks force.
    from tricent import measures

    real = measures._dependencies

    def fresh(a, a32, levels, rows, work):
        return real(a, a32, levels, rows, np.full_like(work, np.nan))

    graphs = {"hk-332.net": betweenness_graphs["hk-332.net"], "mixed": betweenness_graphs["mixed"], "grid-17": _grid(17)}
    for name, g in graphs.items():
        monkeypatch.setattr(measures, "_DISTANCE_CELLS", 7 * g.node_count)
        monkeypatch.setattr(measures, "_dependencies", fresh)
        want = betweenness_centrality(g)
        monkeypatch.setattr(measures, "_dependencies", real)
        for hook, forced in ((None, None), ("_FLOAT32_EXACT", 0), ("_SPARSE_LEVEL", 0), ("_SPARSE_LEVEL", 2)):
            with monkeypatch.context() as m:
                if hook:
                    m.setattr(measures, hook, forced)
                assert betweenness_centrality(g) == want, (name, hook, forced)


def test_betweenness_peaks_within_five_sigma_arrays():
    # one call holds a workspace of three float64 (n, width) arrays, with the
    # float32 counts in share's bytes, plus a product and the level masks: about
    # 4.8 times one of them on hk-332.net, and 5.3 with a fourth, float32 array
    from tricent import measures

    g = load_graph(GOLDEN / "hk-332.net")
    n = g.node_count
    betweenness_centrality(g)  # scipy's first-call imports are not the call's memory
    tracemalloc.start()
    try:
        betweenness_centrality(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * n * min(measures._DISTANCE_CELLS // n, n) * np.dtype(float).itemsize


# ------------------------------------------------------------------- closeness


def test_closeness_connected_matches_classic():
    g = Graph([(1, 2), (2, 3)])
    scores = closeness_centrality(g)
    assert scores[2] == pytest.approx(1.0)
    assert scores[1] == pytest.approx(2 / 3)


def test_closeness_isolated_node_scores_zero():
    g = Graph([(1, 2)], nodes=[1, 2, 3])
    scores = closeness_centrality(g)
    assert scores[3] == 0.0
    # reachable-component scaling: r/(n-1) * r/S with r=1, S=1
    assert scores[1] == pytest.approx(0.5)


def test_closeness_two_components():
    g = Graph([(1, 2), (2, 3), (4, 5)])
    scores = closeness_centrality(g)
    assert scores[4] == pytest.approx((1 / 4) * (1 / 1))


@pytest.fixture(scope="module")
def closeness_cases(karate):
    files = ["toy.edges", "hk-332.net", "wide-labels.edges", "deep.edges"]
    split = Graph([(1, 2), (2, 3), (1, 3), (5, 6)], nodes=[4, 7])  # isolated 4 and 7
    edgeless, single = Graph([], nodes=[1, 2, 3]), Graph([], nodes=[5])
    graphs = [karate, *(load_graph(GOLDEN / name) for name in files), split, edgeless, single]
    return [(g, oracle_closeness(g)) for g in graphs]


@pytest.mark.parametrize("width", [1, 7, 63, 64, 65, 128, "n"])
def test_closeness_matches_oracle_at_every_block_width(monkeypatch, closeness_cases, width):
    # the bit counts and the shortest-path searches past _CLOSENESS_DEPTH must
    # give the BFS oracle's floats exactly, however the sources are batched and
    # wherever the counts hand over to the searches (deep.edges is 24-47 deep)
    from tricent import measures

    for depth in (0, 2, measures._CLOSENESS_DEPTH, 30, 10**9):
        monkeypatch.setattr(measures, "_CLOSENESS_DEPTH", depth)
        for g, expected in closeness_cases:
            n = g.node_count
            monkeypatch.setattr(measures, "_batch_width", lambda g, w=n if width == "n" else width: w)
            monkeypatch.setattr(measures, "_DISTANCE_CELLS", n * (n if width == "n" else width))
            assert closeness_centrality(g) == expected, (n, depth)


def test_closeness_batches_stay_within_the_distance_cells(monkeypatch):
    # a batch holds (n, words) arrays and gathers (nnz, words) per level; with
    # many isolated nodes and few edges, n must bound the batch, not nnz
    from tricent import measures

    g = Graph([(0, 1), (1, 2), (2, 0), (3, 4)], nodes=range(5000))
    widths = []
    real = measures._bfs_levels

    def spy(g, rows):
        widths.append(len(rows))
        return real(g, rows)

    monkeypatch.setattr(measures, "_bfs_levels", spy)
    assert closeness_centrality(g) == oracle_closeness(g)
    assert sum(widths) == g.node_count
    assert g.node_count * -(-max(widths) // 64) <= measures._DISTANCE_CELLS


def _eccentricities(g):
    """Each node's eccentricity within its component, in row order, by one BFS per node."""
    ecc = []
    for s in g.nodes:
        dist, frontier = {s: 0}, [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.neighbors(v):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        ecc.append(max(dist.values()))
    return ecc


@pytest.mark.parametrize(
    "name, searched",
    # the path rows 0-99 of "mixed" are 50-99 deep, its Holme-Kim part shallow
    [("karate", 0), ("hk-332.net", 0), ("ring", 200), ("deep.edges", 61), ("mixed", 100)],
)
def test_closeness_searches_only_from_sources_deeper_than_the_bit_levels(
    monkeypatch, betweenness_graphs, name, searched
):
    from scipy.sparse import csgraph

    from tricent import measures

    g = betweenness_graphs[name]
    rows = []
    real = csgraph.dijkstra

    def spy(a, **kwargs):
        rows.extend(kwargs["indices"].tolist())
        return real(a, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", spy)
    assert closeness_centrality(g) == oracle_closeness(g)
    deep = [k for k, e in enumerate(_eccentricities(g)) if e > measures._CLOSENESS_DEPTH]
    assert sorted(rows) == deep and len(deep) == searched


# ----------------------------------------------------------------- eigenvector


def test_eigenvector_star_center_dominates():
    star = Graph([(1, v) for v in range(2, 8)])
    scores = eigenvector_centrality(star)
    assert scores[1] > scores[2] > 0
    leaves = [scores[v] for v in range(2, 8)]
    assert max(leaves) - min(leaves) < 1e-9


def test_eigenvector_unit_norm_and_residual(karate):
    tol = 1e-10
    scores = eigenvector_centrality(karate, tol=tol)
    x = {v: scores[v] for v in karate.nodes}
    norm = math.sqrt(sum(val * val for val in x.values()))
    assert norm == pytest.approx(1.0, abs=1e-9)
    ax = {v: sum(x[w] for w in karate.neighbors(v)) for v in karate.nodes}
    lam = sum(x[v] * ax[v] for v in karate.nodes)
    residual = max(abs(ax[v] - lam * x[v]) for v in karate.nodes)
    assert residual < tol


def test_eigenvector_edgeless_graph_zero():
    g = Graph([], nodes=[1, 2, 3])
    scores = eigenvector_centrality(g)
    assert all(scores[v] == 0.0 for v in g.nodes)


def test_eigenvector_bipartite_converges():
    # even cycles are bipartite; the shifted iteration must still settle
    g = Graph([(1, 2), (2, 3), (3, 4), (4, 1)])
    scores = eigenvector_centrality(g)
    assert all(scores[v] == pytest.approx(0.5, abs=1e-8) for v in g.nodes)


def test_eigenvector_convergence_error():
    g = Graph([(1, 2), (2, 3), (3, 1), (3, 4)])
    with pytest.raises(ConvergenceError) as err:
        eigenvector_centrality(g, max_iter=1, tol=1e-15)
    assert err.value.residual > 0


def test_eigenvector_rejects_bad_tol(karate):
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            eigenvector_centrality(karate, tol=tol)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter must be positive"):
            eigenvector_centrality(karate, max_iter=max_iter)


# -------------------------------------------------------------------- pagerank


def test_pagerank_sums_to_one(karate):
    scores = pagerank(karate)
    assert sum(scores[v] for v in karate.nodes) == pytest.approx(1.0, abs=1e-9)


def test_pagerank_uniform_on_regular_graphs():
    c5 = Graph([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    scores = pagerank(c5)
    assert all(scores[v] == pytest.approx(0.2, abs=1e-9) for v in c5.nodes)


def test_pagerank_handles_isolated_nodes():
    g = Graph([(1, 2)], nodes=[1, 2, 3])
    scores = pagerank(g)
    assert sum(scores[v] for v in g.nodes) == pytest.approx(1.0, abs=1e-9)
    assert scores[3] < scores[1]


def test_pagerank_parameter_validation(karate):
    with pytest.raises(ValueError):
        pagerank(karate, damping=1.0)
    with pytest.raises(ValueError):
        pagerank(karate, damping=0.0)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            pagerank(karate, tol=tol)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter must be positive"):
            pagerank(karate, max_iter=max_iter)


def test_pagerank_convergence_error(karate):
    with pytest.raises(ConvergenceError):
        pagerank(karate, max_iter=1, tol=1e-15)


def test_pagerank_reports_damping_then_tol_then_max_iter(karate):
    for kwargs, message in [
        ({"damping": 1.0, "tol": 0.0, "max_iter": 0}, "damping must lie strictly between 0 and 1"),
        ({"damping": 0.5, "tol": math.nan, "max_iter": 0}, "tol must be positive and finite"),
        ({"damping": 0.5, "tol": 1e-10, "max_iter": 0}, "max_iter must be positive"),
    ]:
        with pytest.raises(ValueError) as err:
            pagerank(karate, **kwargs)
        assert str(err.value) == message


# ------------------------------------------------------------ non-convergence


def _reference_residuals(g, solver, steps):
    """The first ``steps`` residuals of a plain loop over the solvers' numpy
    operations: EC's max-norm eigen-residual, PR's (damping 0.85) largest
    per-node change."""
    from scipy import sparse

    n, damping = g.node_count, 0.85
    a = sparse.csr_array((np.ones(len(g._indices)), g._indices, g._indptr), shape=(n, n))
    deg = np.diff(g._indptr).astype(float)
    dangling = deg == 0.0
    deg[dangling] = 1.0
    x = np.full(n, 1.0 / math.sqrt(n)) if solver == "ec" else np.full(n, 1.0 / n)
    residuals = []
    for _ in range(steps):
        if solver == "ec":
            ax = a @ x
            lam = float(x @ ax)
            residuals.append(float(np.max(np.abs(ax - lam * x))))
            y = ax + x
            x = y / float(np.linalg.norm(y))
        else:
            nxt = (1.0 - damping) / n + damping * (a @ (x / deg) + float(x[dangling].sum()) / n)
            residuals.append(float(np.max(np.abs(nxt - x))))
            x = nxt
    return residuals


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("solver, what", [("ec", "eigenvector iteration"), ("pr", "pagerank")])
@pytest.mark.parametrize("graph", ["karate", "isolated"])
def test_non_convergence_reports_the_last_residual(karate, graph, solver, what, k):
    g = karate if graph == "karate" else load_graph(GOLDEN / "isolated.net")
    residual = _reference_residuals(g, solver, k)[-1]
    assert residual >= 1e-10  # so the default tol cannot be met in k steps
    with pytest.raises(ConvergenceError) as err:
        eigenvector_centrality(g, max_iter=k) if solver == "ec" else pagerank(g, damping=0.85, max_iter=k)
    assert str(err.value) == f"{what} did not converge in {k} steps (residual {residual:.3e})"
    assert err.value.residual == residual


# -------------------------------------------------------------------- dispatch


def test_compute_dispatch_matches_direct(karate):
    direct = {
        Measure.TC: tr_centrality,
        Measure.TR: triangle_count_centrality,
        Measure.DC: degree_centrality,
        Measure.BC: betweenness_centrality,
        Measure.CNC: closeness_centrality,
        Measure.SDEG: sdeg_centrality,
    }
    for measure, fn in direct.items():
        via = compute(karate, measure)
        raw = fn(karate)
        assert via == raw
    assert compute(karate, Measure.EC) == eigenvector_centrality(karate)
    assert compute(karate, Measure.PR) == pagerank(karate)


def test_compute_accepts_tag_strings(karate):
    assert compute(karate, "TC") == compute(karate, Measure.TC)


def test_measure_prints_as_its_tag():
    for measure in Measure:
        assert str(measure) == format(measure) == f"{measure}" == "%s" % measure == measure.value
    assert f"{Measure.TC:>4}|{Measure.CNC}" == "  TC|CNC"


def test_every_measure_returns_a_plain_dict_in_node_order(triangle):
    scores = tr_centrality(triangle)
    assert len(scores) == 3
    assert set(scores) == {1, 2, 3}
    assert dict(scores.items())[1] == scores[1]
    g = Graph([(5, 2), (2, 9), (9, 5), (9, 1)], nodes=[7])
    for m in Measure:
        scores = compute(g, m)
        assert type(scores) is dict and list(scores) == list(g.nodes), m


# ------------------------------------------------------------------ properties


def test_sdeg_bounded_by_degree_bulk():
    # wide seeded sweep of the whole-graph triangle pass: 1000 random graphs up
    # to n = 64; the per-node sdeg filters neighbors(), so it is bounded by design
    rng = random.Random(20260819)
    for _ in range(1000):
        n = rng.randint(2, 64)
        g = random_graph(rng, n, rng.random())
        sizes, triangles, degrees = sdeg_centrality(g), triangle_count_centrality(g), degree_centrality(g)
        for v, d in degrees.items():
            assert sizes[v] <= d
            assert triangles[v] <= d * (d - 1) / 2


def test_adding_edge_between_neighbors_never_decreases_sdeg():
    # closing a wedge at i can only grow i's triangle neighborhood
    rng = random.Random(991)
    exercised = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(4, 20), rng.uniform(0.2, 0.7))
        for i in g.nodes:
            nbrs = sorted(g.neighbors(i))
            pair = next(
                ((a, b) for a, b in combinations(nbrs, 2) if not g.has_edge(a, b)),
                None,
            )
            if pair is None:
                continue
            before = sdeg(g, i)
            closed = Graph(list(g.edges()) + [pair], nodes=g.nodes)
            assert sdeg(closed, i) >= before
            exercised += 1
    assert exercised > 100


def test_vertex_transitive_graphs_score_uniformly():
    k5 = Graph(combinations(range(1, 6), 2))
    c6 = Graph([(i, i % 6 + 1) for i in range(1, 7)])
    for g in (k5, c6):
        for measure in Measure:
            scores = compute(g, measure)
            values = [scores[v] for v in g.nodes]
            assert max(values) - min(values) <= 1e-12


def test_eigenvector_isolated_node_scores_negligible(karate):
    g = Graph(karate.edges(), nodes=list(karate.nodes) + [99])
    scores = eigenvector_centrality(g, tol=1e-10)
    assert abs(scores[99]) < 1e-10
    assert scores[1] > 0.1
