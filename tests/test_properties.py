"""Hypothesis property tests; skipped when hypothesis is not installed."""

from __future__ import annotations

import random
from itertools import combinations
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tricent import (  # noqa: E402
    Graph,
    graph,
    pagerank,
    parse_edgelist,
    parse_pajek,
    rank_top_k,
    sdeg,
    triangle_neighbors,
    triangles_at,
)

from conftest import assert_reads_alike, random_graph  # noqa: E402
from oracles import oracle_parse_edgelist, oracle_parse_pajek  # noqa: E402

# ----------------------------------------------------------------------- graph


@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=40))
def test_adjacency_always_symmetric(pairs):
    g = Graph(pairs)
    for u in g.nodes:
        for v in g.neighbors(u):
            assert u in g.neighbors(v)
            assert u != v


@given(st.integers(2, 18), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_gamma_members_subset_of_neighbors(n, p):
    g = random_graph(random.Random(int(p * 1e6) + n), n, p)
    for v in g.nodes:
        assert triangle_neighbors(g, v) <= g.neighbors(v)


# Lines of two small ints, which the whole-body readers take, mixed with a
# few section headers, odd lines and one odd line end.
_ODD_TOKENS = ["007", "+5", "-0", "1_0", "\u0663", "1.5", "#", "%", "-", "x", '"v"', str(2**63),
               str(2**63 - 1), "*Edges", "*arcs", "*Vertices", "*Network", "*Edgeslist"]
_ODD_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_PAIR_LINES = st.tuples(
    st.sampled_from(["", " ", "\t"]), st.integers(1, 7), st.sampled_from([" ", "\t", "  "]), st.integers(1, 7)
).map(lambda parts: "".join(map(str, parts)))
_ODD_LINES = st.lists(st.one_of(st.integers(-2, 12).map(str), st.sampled_from(_ODD_TOKENS)), max_size=4).map(" ".join)
_HEADS = st.sampled_from(["", "*Vertices 6", "*Network n\n*vertices 8", "% c\n*Vertices 9", " *Vertices 7 7"])
_SECTIONS = st.sampled_from(["*Edges", "*Arcs", " *edges x", "*Edgeslist", "*Network"])


@st.composite
def reader_texts(draw):
    """Pairs under a *Vertices header; the pairs before the first section
    header, if one is drawn, are vertex lines (an id and a label)."""
    lines = draw(st.lists(_PAIR_LINES, max_size=25))
    for odd in draw(st.lists(st.one_of(_ODD_LINES, _SECTIONS, _SECTIONS), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    text = "".join(line + "\n" for line in [draw(_HEADS), *lines]).lstrip("\n")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_ODD_ENDS)) + text[at:]
    return text


@given(reader_texts())
@settings(max_examples=300, deadline=None)
def test_readers_agree_with_the_line_scan_oracle(text):
    with mock.patch.object(graph, "_MAX_VERTICES", 200):  # no drawn count allocates much
        assert_reads_alike(parse_pajek, oracle_parse_pajek, text)
        assert_reads_alike(parse_edgelist, oracle_parse_edgelist, text)


# -------------------------------------------------------------------- measures


@given(st.integers(2, 16), st.floats(0.0, 1.0), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_sdeg_never_exceeds_degree(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    for v in g.nodes:
        assert sdeg(g, v) <= g.degree(v)


@given(st.integers(3, 14), st.floats(0.0, 1.0), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_triangle_sum_identity(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    triple_count = sum(
        1
        for a, b, c in combinations(sorted(g.nodes), 3)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
    )
    assert sum(triangles_at(g, v) for v in g.nodes) == 3 * triple_count


@given(st.integers(0, 40), st.floats(0.0, 1.0), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_triangle_pass_follows_relabelling(n, p, seed):
    # the pass renumbers nodes by degree, then maps its counts back to labels
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    relabel = dict(zip(g.nodes, rng.sample(range(-1000, 1000), n)))
    h = Graph([(relabel[u], relabel[v]) for u, v in g.edges()], nodes=relabel.values())

    def counts(g):
        return dict(zip(g.nodes, zip(*(c.tolist() for c in graph._triangle_counts(g)))))

    assert {relabel[v]: c for v, c in counts(g).items()} == counts(h)


@given(st.integers(2, 12), st.floats(0.1, 0.9), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_pagerank_always_sums_to_one(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    scores = pagerank(g)
    assert sum(scores[v] for v in g.nodes) == pytest.approx(1.0, abs=1e-8)


# ----------------------------------------------------------------- experiments


@given(
    st.dictionaries(st.integers(1, 30), st.integers(-5000, 5000), min_size=1, max_size=30),
    st.integers(1, 10),
    st.floats(min_value=0.001, max_value=1000.0),
)
@settings(max_examples=80, deadline=None)
def test_rank_top_k_positive_rescaling_invariant(raw, k, scale):
    # scores on a coarse grid so rescaling cannot create new float ties
    scores = {v: x / 16.0 for v, x in raw.items()}
    scaled = {v: scale * x / 16.0 for v, x in raw.items()}
    assert rank_top_k(scores, k) == rank_top_k(scaled, k)
