"""Ranking tables, removal reports, and the brute-force oracles."""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

import pytest

from tricent import (
    COMPARISON_MEASURES,
    DEFAULT_SEED,
    EXPERIMENT_DAMPING,
    Graph,
    Measure,
    betweenness_centrality,
    comparison_table,
    compute,
    density,
    load_graph,
    random_removal_density,
    rank_top_k,
    removal_impact,
    tr_centrality,
    triangles_at,
)

from conftest import random_connected_graph
from oracles import oracle_betweenness, oracle_triangles

GOLDEN = Path(__file__).resolve().parent / "golden"

# ------------------------------------------------------------------ rank_top_k


def test_rank_top_k_tie_break_by_label():
    scores = {1: 0.3, 2: 0.1, 3: 0.3}
    assert rank_top_k(scores, 2) == [1, 3]


def test_rank_top_k_overlong_k_gives_full_ordering():
    scores = {4: 1.0, 2: 2.0}
    assert rank_top_k(scores, 99) == [2, 4]


def test_rank_top_k_zero_and_negative():
    scores = {1: 1.0}
    assert rank_top_k(scores, 0) == []
    with pytest.raises(ValueError):
        rank_top_k(scores, -1)


def test_rank_top_k_deterministic(karate):
    scores = tr_centrality(karate)
    assert rank_top_k(scores, 10) == rank_top_k(scores, 10)


def test_rank_top_k_matches_a_full_sort():
    # only the nodes at or above the k-th score are sorted: ties across that
    # cut, -0.0 beside 0.0, and ints beside floats must order as a full sort does
    rng = random.Random(24)
    pools = [[0.0, -0.0, 0.5, -0.5], [1, 2, 1.0, 2.0, 1.5, 0, -0.0], [rng.random() for _ in range(50)]]
    for trial in range(60):
        n = rng.randint(0, 40)
        labels = rng.sample(range(-100, 100), n)
        pool = pools[trial % 3]
        scores = {v: rng.choice(pool) for v in labels}
        for k in {0, 1, max(n - 1, 0), n, n + 3, rng.randint(0, n)}:
            assert rank_top_k(scores, k) == sorted(scores, key=lambda v: (-scores[v], v))[:k], (scores, k)
    assert rank_top_k({}, 0) == rank_top_k({}, 3) == []


# ------------------------------------------------------------ comparison_table


def test_comparison_table_column_order(karate):
    table = comparison_table(karate, 5)
    assert tuple(table) == COMPARISON_MEASURES
    picked = comparison_table(karate, 5, (Measure.TC, Measure.BC))
    assert tuple(picked) == (Measure.TC, Measure.BC)


def test_comparison_table_k5_complete_graph_tie_break():
    k5 = Graph([(u, v) for u, v in combinations(range(1, 6), 2)])
    table = comparison_table(k5, 3)
    for column in table.values():
        assert column == (1, 2, 3)


@pytest.mark.parametrize("measure", list(Measure))
def test_comparison_table_tc_column_matches_direct_path(karate, measure):
    # every column is the measure's own dispatch, ranked; the triangle measures
    # share the graph's kept counts
    others = [load_graph(GOLDEN / name) for name in ("hk-332.net", "isolated.net")]
    for g in (karate, *others):
        table = comparison_table(g, 5, tuple(Measure))
        assert table[measure] == tuple(rank_top_k(compute(g, measure, damping=EXPERIMENT_DAMPING), 5))
    assert list(comparison_table(karate, 5)[Measure.TC]) == rank_top_k(tr_centrality(karate), 5)


def test_comparison_table_missing_column_lookup(karate):
    table = comparison_table(karate, 2)
    with pytest.raises(KeyError):
        table[Measure.SDEG]


def test_comparison_table_rejects_empty_graph():
    with pytest.raises(ValueError):
        comparison_table(Graph(), 3)


# -------------------------------------------------------------- removal_impact


def test_removal_impact_k0_identity(karate):
    report = removal_impact(karate, 0)
    for m in COMPARISON_MEASURES:
        assert report[m][0] == pytest.approx(density(karate))
        assert report[m][1] == ()


def test_removal_impact_matches_manual_removal(karate):
    others = [load_graph(GOLDEN / name) for name in ("isolated.net", "wide-labels.edges", "hk-332.net")]
    for g in (karate, *others):
        for k in (0, 1, 5):
            report = removal_impact(g, k)
            for m in COMPARISON_MEASURES:
                expected = density(g.remove_nodes(report[m][1]))
                assert report[m][0] == expected  # stored exactly, no rounding
                assert 0.0 <= report[m][0] <= 1.0
                assert len(report[m][1]) == k


def test_removal_impact_removed_equals_table_columns(karate):
    report = removal_impact(karate, 5)
    table = comparison_table(karate, 5)
    assert tuple(report) == COMPARISON_MEASURES
    for m in COMPARISON_MEASURES:
        dens, removed = report[m]
        assert isinstance(dens, float)
        assert removed == table[m]
        assert report[m] == (density(karate.remove_nodes(removed)), removed)


def test_removal_impact_k_too_large():
    g = Graph([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        removal_impact(g, 3)


def test_removal_leaving_one_node_rejected(karate, monkeypatch):
    from tricent import experiments

    monkeypatch.setattr(experiments, "compute", lambda *a, **kw: pytest.fail("computed"))
    with pytest.raises(ValueError, match="k=2 leaves 1 of 3 nodes"):
        removal_impact(Graph([(1, 2), (2, 3)]), 2)
    with pytest.raises(ValueError, match="k=0 leaves 1 of 1 nodes"):
        removal_impact(Graph(nodes=[1]), 0)
    with pytest.raises(ValueError, match="k=33 leaves 1 of 34 nodes"):
        random_removal_density(karate, 33)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        removal_impact(karate, -1)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        random_removal_density(karate, -1)


# -------------------------------------------------------------------- baseline


def test_random_removal_density_seed_reproducible(karate):
    a = random_removal_density(karate, 5, trials=20, seed=11)
    b = random_removal_density(karate, 5, trials=20, seed=11)
    c = random_removal_density(karate, 5, trials=20, seed=12)
    assert a == b
    assert a != c  # different seed, different sample of removal sets


def test_random_removal_density_validation(karate):
    with pytest.raises(ValueError):
        random_removal_density(karate, 40)
    with pytest.raises(ValueError):
        random_removal_density(karate, 5, trials=0)


def _oracle_random_removal(g, k, trials, seed):
    """The baseline spelled out: each trial's sample drawn in turn from one
    seeded RNG, its residual graph built whole, the densities added in order."""
    rng = random.Random(seed)
    total = 0.0
    for _ in range(trials):
        total += density(g.remove_nodes(rng.sample(list(g.nodes), k)))
    return total / trials


@pytest.mark.parametrize("name", ["karate", "isolated.net", "wide-labels.edges", "hk-332.net"])
def test_random_removal_density_matches_the_oracle(karate, name):
    g = karate if name == "karate" else load_graph(GOLDEN / name)
    for k in (0, 1, 5):
        for trials, seed in ((100, DEFAULT_SEED), (7, 3), (1, 0)):
            got = random_removal_density(g, k, trials, seed)
            assert got == _oracle_random_removal(g, k, trials, seed), (k, trials, seed)


def test_random_removal_density_matches_the_oracle_across_chunks():
    # the larger k, the fewer trials a chunk holds: 23, 3 and 2 here, so the
    # 9 trials run in 1, 3 and 5 chunks; an edgeless graph's chunk holds all
    g = load_graph(GOLDEN / "hk-332.net")
    for k in (30, 200, 330):
        assert random_removal_density(g, k, 9, 4) == _oracle_random_removal(g, k, 9, 4), k
    edgeless = Graph([], nodes=range(10))
    assert random_removal_density(edgeless, 3, 5, 1) == _oracle_random_removal(edgeless, 3, 5, 1)


def test_targeted_removal_beats_random_on_karate(karate):
    # hub removal destroys more edges than random removal, on average
    baseline = random_removal_density(karate, 5, trials=100)
    report = removal_impact(karate, 5)
    for m in COMPARISON_MEASURES:
        assert report[m][0] <= baseline


# --------------------------------------------------------------------- oracles


def test_oracle_triangles_k4_and_c5(k4):
    assert set(oracle_triangles(k4).values()) == {3}
    c5 = Graph([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert set(oracle_triangles(c5).values()) == {0}


def test_oracle_triangles_guard():
    big = Graph([], nodes=range(1, 202))
    with pytest.raises(ValueError):
        oracle_triangles(big)


def test_oracle_triangles_agrees_with_fast_path(karate):
    oracle = oracle_triangles(karate)
    for v in karate.nodes:
        assert oracle[v] == triangles_at(karate, v)


def test_oracle_betweenness_path():
    g = Graph([(1, 2), (2, 3)])
    scores = oracle_betweenness(g)
    assert scores[2] == pytest.approx(1.0)


def test_oracle_betweenness_c4_symmetric():
    g = Graph([(1, 2), (2, 3), (3, 4), (4, 1)])
    scores = oracle_betweenness(g)
    assert len({round(scores[v], 12) for v in g.nodes}) == 1


def test_oracle_betweenness_guards():
    with pytest.raises(ValueError):
        oracle_betweenness(Graph([], nodes=range(1, 10)))
    with pytest.raises(ValueError):
        oracle_betweenness(Graph([(1, 2), (3, 4)]))  # disconnected


def test_oracle_betweenness_matches_brandes_small():
    rng = random.Random(99)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(3, 8))
        fast = betweenness_centrality(g)
        slow = oracle_betweenness(g)
        for v in g.nodes:
            assert fast[v] == pytest.approx(slow[v], abs=1e-9)


# ------------------------------------------------------------------ experiment damping


def test_comparison_table_damping_override_changes_pr(karate):
    mild = comparison_table(karate, 5)
    web = comparison_table(karate, 5, damping=0.85)
    assert mild[Measure.PR] == (34, 1, 33, 2, 3)
    assert web[Measure.PR] == (34, 1, 33, 3, 2)
    # non-iterative columns are untouched by the damping choice
    for m in (Measure.TR, Measure.BC, Measure.CNC, Measure.TC):
        assert mild[m] == web[m]
