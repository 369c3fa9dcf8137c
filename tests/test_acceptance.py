"""Acceptance gate: the reference-result criteria at their stated tolerances.

Each test prints one `[acceptance N] ...: PASS/FAIL/SKIP` line on the real
stdout (capture temporarily disabled) so the gate status is always visible
in the run log, then enforces the same checks with plain assertions.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from tricent import (
    Graph,
    Measure,
    betweenness_centrality,
    comparison_table,
    compute,
    eigenvector_centrality,
    pagerank,
    rank_top_k,
    removal_impact,
    sdeg,
    tr_centrality,
    triangles_at,
)

from conftest import dataset_or_none, random_connected_graph, random_graph
from oracles import oracle_betweenness, oracle_triangles

GOLDEN_TOP5 = {
    Measure.TC: (1, 34, 33, 2, 3),
    Measure.TR: (1, 34, 33, 2, 3),
    Measure.BC: (1, 34, 33, 3, 32),
    Measure.CNC: (1, 3, 34, 32, 9),
    Measure.EC: (34, 1, 3, 33, 2),
    Measure.PR: (34, 1, 33, 2, 3),
}

KARATE_DENSITY_ROWS = {
    Measure.TR: 0.0468,
    Measure.BC: 0.0567,
    Measure.CNC: 0.0739,
    Measure.EC: 0.0468,
    Measure.PR: 0.0468,
    Measure.TC: 0.0468,
}

TC_DENSITY_BY_NETWORK = {
    "dolphins": 0.0695,
    "blogs": 0.0480,
    "USAir97": 0.0298,
}

REFERENCE_COUNTS = {
    "dolphins": (62, 159),
    "blogs": (1224, 16715),
    "USAir97": (332, 2126),
}

DENSITY_TOL = 0.0005


class GateReporter:
    """Prints one visible status line per criterion, outside pytest capture."""

    def __init__(self, capsys):
        self._capsys = capsys

    def line(self, number: int, name: str, tag: str, note: str = "") -> None:
        suffix = f" ({note})" if note else ""
        with self._capsys.disabled():
            print(f"[acceptance {number}] {name}: {tag}{suffix}", flush=True)

    def run(self, number: int, name: str, check) -> None:
        try:
            extra = check()
        except BaseException as exc:
            self.line(number, name, "FAIL", str(exc)[:200])
            raise
        self.line(number, name, "PASS", extra or "")


@pytest.fixture()
def gate(capsys) -> GateReporter:
    return GateReporter(capsys)


def test_criterion_1_karate_golden_ranks(karate, gate):
    def check():
        start = time.perf_counter()
        table = comparison_table(karate, 5)
        elapsed = time.perf_counter() - start
        for measure, want in GOLDEN_TOP5.items():
            got = table[measure]
            assert got == want, f"{measure.value} column {got} != {want}"
        assert elapsed < 1.0, f"ranking took {elapsed:.2f}s, budget 1s"
        return f"all 6 columns exact, {elapsed * 1000:.0f} ms"

    gate.run(1, "karate golden top-5 ranks", check)


def test_criterion_2_density_ablation(karate, gate):
    def check():
        start = time.perf_counter()
        notes = []
        report = removal_impact(karate, 5)
        for measure, want in KARATE_DENSITY_ROWS.items():
            got = round(report[measure][0], 4)
            assert abs(got - want) <= DENSITY_TOL, (
                f"karate {measure.value} density {got} vs {want}"
            )
        notes.append("karate all 6 rows ok")
        for name, want in TC_DENSITY_BY_NETWORK.items():
            g = dataset_or_none(f"{name}.net")
            if g is None:
                notes.append(f"{name} absent, skipped")
                continue
            got = round(removal_impact(g, 5)[Measure.TC][0], 4)
            counts = (g.node_count, g.edge_count)
            if abs(got - want) <= DENSITY_TOL:
                notes.append(f"{name} TC {got} ok")
            elif counts != REFERENCE_COUNTS[name]:
                # dataset variant: log the counts, compare nothing further
                notes.append(
                    f"{name} variant {counts[0]}n/{counts[1]}e vs reference "
                    f"{REFERENCE_COUNTS[name][0]}n/{REFERENCE_COUNTS[name][1]}e, "
                    f"TC {got} vs {want} logged"
                )
            else:
                raise AssertionError(f"{name}: counts match reference but TC {got} != {want}")
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"ablation took {elapsed:.2f}s, budget 10s"
        return "; ".join(notes) + f"; {elapsed:.2f}s"

    gate.run(2, "top-5 removal densities", check)


def test_criterion_3_worked_examples(triangle, k4, diamond, gate):
    def check():
        tc3 = tr_centrality(triangle)
        for v in triangle.nodes:
            assert abs(tc3[v] - 0.05) <= 1e-12
            assert abs(tc3[v] - 5 * 0.01) <= 1e-12
        tc4 = tr_centrality(k4)
        for v in k4.nodes:
            assert abs(tc4[v] - 0.10) <= 1e-12
            assert abs(tc4[v] - 10 * 0.01) <= 1e-12
        # degree-3 hubs of the 4-cycle-with-chord score the 9-joint pattern
        tcd = tr_centrality(diamond)
        assert abs(tcd[1] - 9 * 0.01) <= 1e-12
        assert abs(tcd[2] - 9 * 0.01) <= 1e-12
        assert abs(tcd[3] - 5 * 0.01) <= 1e-12
        return "K3=0.05, K4=0.10, hub pattern 9*0.01"

    gate.run(3, "hand-derived worked examples", check)


def test_criterion_4_oracle_equivalence(gate):
    def check():
        rng = random.Random(20260819)
        for _ in range(50):
            n = rng.randint(2, 50)
            g = random_graph(rng, n, rng.uniform(0.02, 0.4))
            oracle = oracle_triangles(g)
            for v in g.nodes:
                assert triangles_at(g, v) == oracle[v], f"triangles_at({v}) on n={n}"
        rng = random.Random(4242)
        worst = 0.0
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 8))
            fast = betweenness_centrality(g)
            slow = oracle_betweenness(g)
            for v in g.nodes:
                worst = max(worst, abs(fast[v] - slow[v]))
                assert abs(fast[v] - slow[v]) <= 1e-9
        return f"50+50 graphs, max betweenness gap {worst:.1e}"

    gate.run(4, "brute-force oracle equivalence", check)


def test_criterion_5_property_suites(karate, gate):
    def check():
        rng = random.Random(555)
        # sdeg is bounded by degree
        for g in [karate] + [random_graph(rng, rng.randint(2, 24), rng.uniform(0, 1)) for _ in range(30)]:
            for v in g.nodes:
                assert sdeg(g, v) <= g.degree(v)
        # incident-triangle counts triple-count every distinct triangle
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 20), rng.uniform(0, 0.8))
            distinct = sum(
                1
                for a, b, c in combinations(sorted(g.nodes), 3)
                if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
            )
            assert sum(triangles_at(g, v) for v in g.nodes) == 3 * distinct
        # relabeling a graph relabels every score vector with it
        base = random_connected_graph(random.Random(77), 24, extra=0.12)
        tolerances = {
            Measure.TC: 0.0,
            Measure.TR: 0.0,
            Measure.DC: 0.0,
            Measure.SDEG: 0.0,
            Measure.CNC: 0.0,
            Measure.BC: 1e-9,
            Measure.EC: 1e-9,
            Measure.PR: 1e-9,
        }
        for measure in Measure:
            reference = compute(base, measure)
            for _ in range(20):
                labels = rng.sample(range(1, 500), base.node_count)
                perm = dict(zip(sorted(base.nodes), labels))
                relabeled = Graph(
                    [(perm[u], perm[v]) for u, v in base.edges()],
                    nodes=labels,
                )
                moved = compute(relabeled, measure)
                for v in base.nodes:
                    assert abs(reference[v] - moved[perm[v]]) <= tolerances[measure], (
                        f"{measure.value} not relabeling-invariant at {v}"
                    )
        # positive rescaling never reorders; dyadic factors are float-exact
        for measure in Measure:
            scores = compute(karate, measure)
            order = rank_top_k(scores, karate.node_count)
            for factor in (0.25, 4.0, 1024.0):
                scaled = {v: factor * scores[v] for v in scores}
                assert rank_top_k(scaled, karate.node_count) == order
        coarse = {v: round(100 * tr_centrality(karate)[v]) / 8 for v in karate.nodes}
        for factor in (0.001, 3.7, 12000.0):
            scaled = {v: factor * coarse[v] for v in coarse}
            assert rank_top_k(scaled, 34) == rank_top_k(coarse, 34)
        # stochastic-vector and residual contracts of the iterative solvers
        tol = 1e-10
        for g in [karate] + [random_graph(rng, rng.randint(2, 30), rng.uniform(0.05, 0.6)) for _ in range(20)]:
            pr = pagerank(g, tol=tol)
            assert abs(sum(pr[v] for v in g.nodes) - 1.0) <= tol
            ec = eigenvector_centrality(g, tol=tol)
            if g.edge_count:
                ax = {v: sum(ec[w] for w in g.neighbors(v)) for v in g.nodes}
                lam = sum(ec[v] * ax[v] for v in g.nodes)
                residual = max(abs(ax[v] - lam * ec[v]) for v in g.nodes)
                assert residual < tol
        return "bounds, triangle identity, 20 relabelings x 8 measures, rescaling, solver contracts"

    gate.run(5, "property suites", check)


def test_criterion_6_blogs_first_two(gate):
    g = dataset_or_none("blogs.net")
    if g is None:
        gate.line(6, "blogs first-two agreement", "SKIP", "dataset absent; caveated check skipped")
        pytest.skip("blogs.net not present in data/")

    def check():
        counts = (g.node_count, g.edge_count)
        table = comparison_table(g, 2)
        mismatches = [
            f"{m.value}={col}" for m, col in table.items() if col != (18, 3)
        ]
        if mismatches and counts != REFERENCE_COUNTS["blogs"]:
            return (
                f"variant {counts[0]}n/{counts[1]}e vs reference 1224n/16715e; "
                f"logged: {', '.join(mismatches)}"
            )
        assert not mismatches, f"columns off on reference-count dataset: {mismatches}"
        return "all 6 columns begin (18, 3)"

    gate.run(6, "blogs first-two agreement", check)
