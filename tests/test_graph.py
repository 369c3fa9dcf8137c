"""Graph construction, file parsing, and triangle primitives."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from tricent import (
    Graph,
    ParseError,
    UnknownNodeError,
    density,
    load_graph,
    parse_edgelist,
    parse_pajek,
    to_pajek,
    triangle_neighbors,
    triangles_at,
)

from conftest import random_graph


# ---------------------------------------------------------------- Graph basics


def test_construction_collapses_duplicates_and_loops():
    g = Graph([(1, 2), (2, 1), (1, 2), (3, 3), (2, 3)])
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 3)
    assert not g.has_edge(3, 3)


def test_isolated_nodes_kept():
    g = Graph([(1, 2)], nodes=[1, 2, 7])
    assert 7 in g
    assert g.degree(7) == 0
    assert g.node_count == 3


def test_nodes_sorted_and_edges_sorted():
    g = Graph([(5, 1), (2, 9), (1, 2)])
    assert list(g.nodes) == [1, 2, 5, 9]
    assert list(g.edges()) == [(1, 2), (1, 5), (2, 9)]


def test_neighbors_unknown_node_raises():
    g = Graph([(1, 2)])
    with pytest.raises(UnknownNodeError):
        g.neighbors(99)


def test_structural_equality():
    a = Graph([(1, 2), (2, 3)])
    b = Graph([(3, 2), (2, 1), (1, 2)])
    assert a == b
    assert a != Graph([(1, 2)])


def test_graphs_are_unhashable():
    with pytest.raises(TypeError):
        hash(Graph([(1, 2)]))


def test_induced_subgraph_keeps_internal_edges_only():
    g = Graph([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    sub = g.induced_subgraph([1, 2, 3])
    assert sorted(sub.nodes) == [1, 2, 3]
    assert sub.edge_count == 3
    with pytest.raises(UnknownNodeError):
        g.induced_subgraph([1, 42])


def test_remove_nodes_returns_new_graph():
    g = Graph([(1, 2), (2, 3), (3, 1)])
    h = g.remove_nodes([3])
    assert sorted(h.nodes) == [1, 2]
    assert h.edge_count == 1
    assert g.node_count == 3  # original untouched
    with pytest.raises(UnknownNodeError):
        g.remove_nodes([8])


def test_remove_nodes_empty_set_is_identity():
    g = Graph([(1, 2), (2, 3)])
    assert g.remove_nodes([]) == g


# ------------------------------------------------------------------- triangles


def test_triangle_neighbors_on_triangle():
    g = Graph([(1, 2), (2, 3), (1, 3)])
    gamma = triangle_neighbors(g, 1)
    assert gamma == frozenset({2, 3})
    assert isinstance(gamma, frozenset)


def test_triangle_neighbors_exclude_non_triangle_edges():
    # node 4 hangs off the triangle by a lone edge
    g = Graph([(1, 2), (2, 3), (1, 3), (1, 4)])
    assert triangle_neighbors(g, 1) == {2, 3}
    assert triangle_neighbors(g, 4) == set()


def test_triangles_at_counts_neighbor_edges():
    g = Graph([(1, 2), (2, 3), (1, 3), (1, 4), (3, 4)])
    assert triangles_at(g, 1) == 2
    assert triangles_at(g, 2) == 1
    assert triangles_at(g, 4) == 1


def test_triangles_at_k4(k4):
    assert all(triangles_at(k4, v) == 3 for v in k4.nodes)


def test_triangle_free_graph():
    g = Graph([(1, 2), (2, 3), (3, 4), (4, 1)])  # C4
    assert all(triangles_at(g, v) == 0 for v in g.nodes)
    assert all(len(triangle_neighbors(g, v)) == 0 for v in g.nodes)


@pytest.mark.parametrize("block_work", [1, 50, 1 << 17])
def test_triangle_pass_matches_per_node_primitives(monkeypatch, block_work):
    # the whole-graph pass must not depend on where its row blocks are cut
    from tricent import graph

    monkeypatch.setattr(graph, "_BLOCK_WORK", block_work)
    rng = random.Random(block_work)
    for n, p in [(0, 0.0), (1, 0.0), (9, 0.5), (40, 0.2), (120, 0.08)]:
        g = random_graph(rng, n, p)
        triangles, sdeg = graph._triangle_counts(g)
        assert triangles.tolist() == [triangles_at(g, v) for v in g.nodes]
        assert sdeg.tolist() == [len(triangle_neighbors(g, v)) for v in g.nodes]


def test_labels_beyond_int64_round_trip():
    big = 2**64 + 5
    g = Graph([(-(2**70), big), (big, 0), (0, -(2**70)), (0, 3)])
    assert list(g.nodes) == [-(2**70), 0, 3, big]
    assert g.neighbors(big) == {-(2**70), 0}
    assert list(g.edges()) == [(-(2**70), 0), (-(2**70), big), (0, 3), (0, big)]
    assert triangles_at(g, 0) == 1 and g.degree(0) == 3


# --------------------------------------------------------------------- density


def test_density_limits():
    assert density(Graph([], nodes=[1, 2, 3])) == 0.0
    k5 = Graph([(u, v) for u, v in combinations(range(1, 6), 2)])
    assert density(k5) == 1.0


def test_density_small_graphs_rejected():
    with pytest.raises(ValueError):
        density(Graph([], nodes=[1]))
    with pytest.raises(ValueError):
        density(Graph())


def test_density_karate(karate):
    assert density(karate) == pytest.approx(2 * 78 / (34 * 33))


# --------------------------------------------------------------------- parsing


PAJEK_BASIC = """\
*Vertices 4
1 "a"
2 "b"
3 "c"
4 "d"
*Edges
1 2
2 3 1.5
3 1
"""


def test_parse_pajek_basic():
    g = parse_pajek(PAJEK_BASIC)
    assert g.node_count == 4
    assert g.edge_count == 3
    assert g.degree(4) == 0  # declared but isolated


def test_parse_pajek_arcs_merge_undirected():
    text = "*Vertices 3\n*Arcs\n1 2\n2 1\n2 3\n"
    g = parse_pajek(text)
    assert g.edge_count == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 3)


def test_parse_pajek_edgeslist():
    text = "*Vertices 4\n*Edgeslist\n1 2 3 4\n2 3\n"
    g = parse_pajek(text)
    assert g.edge_count == 4
    assert g.neighbors(1) == {2, 3, 4}


def test_parse_pajek_comments_case_and_network_line():
    text = "% a comment\n*network test\n*VERTICES 2\n1 \"x\"\n\n*edges\n% another\n1 2\n"
    g = parse_pajek(text)
    assert g.edge_count == 1


def test_parse_pajek_id_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_pajek("*Vertices 2\n*Edges\n1 5\n")
    assert err.value.line == 3


def test_parse_pajek_missing_header():
    with pytest.raises(ParseError):
        parse_pajek("1 2\n")
    with pytest.raises(ParseError):
        parse_pajek("")


def test_parse_pajek_duplicate_header():
    with pytest.raises(ParseError):
        parse_pajek("*Vertices 2\n*Vertices 2\n")


def test_parse_pajek_bad_weight():
    with pytest.raises(ParseError) as err:
        parse_pajek("*Vertices 2\n*Edges\n1 2 heavy\n")
    assert "weight" in str(err.value)


def test_parse_pajek_unknown_section():
    with pytest.raises(ParseError):
        parse_pajek("*Vertices 2\n*Matrix\n0 1\n1 0\n")


def test_parse_edgelist_comments_and_extras():
    g = parse_edgelist("# header\n1 2\n2 3 0.7  # weighted\n\n")
    assert g.edge_count == 2


def test_parse_edgelist_errors():
    with pytest.raises(ParseError) as err:
        parse_edgelist("1\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_edgelist("1 two\n")


def test_to_pajek_round_trip():
    g = Graph([(1, 2), (2, 3)], nodes=[1, 2, 3, 4])
    assert parse_pajek(to_pajek(g)) == g


def test_to_pajek_needs_contiguous_labels():
    with pytest.raises(ValueError):
        to_pajek(Graph([(1, 5)]))


def test_load_graph_format_resolution(tmp_path):
    net = tmp_path / "g.net"
    net.write_text("*Vertices 2\n*Edges\n1 2\n")
    txt = tmp_path / "g.edges"
    txt.write_text("1 2\n")
    assert load_graph(net) == load_graph(txt)
    assert load_graph(txt, fmt="edgelist").edge_count == 1
    with pytest.raises(ValueError):
        load_graph(txt, fmt="adjacency")


def test_load_graph_karate_file(karate):
    # the committed dataset must equal the embedded canonical edge list
    from conftest import DATA_DIR

    assert load_graph(DATA_DIR / "karate.net") == karate
