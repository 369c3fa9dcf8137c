"""Graph construction, file parsing, and triangle primitives."""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from tricent import (
    Graph,
    ParseError,
    UnknownNodeError,
    density,
    load_graph,
    parse_edgelist,
    parse_pajek,
    triangle_neighbors,
    triangles_at,
)
from tricent.graph import _BLOCK_WORK

from conftest import DATA_DIR, KARATE_EDGES, assert_reads_alike, assert_well_formed, random_graph, triad_rich
from oracles import oracle_parse_edgelist, oracle_parse_pajek


# ---------------------------------------------------------------- Graph basics


def test_construction_collapses_duplicates_and_loops():
    g = Graph([(1, 2), (2, 1), (1, 2), (3, 3), (2, 3)])
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 3)
    assert not g.has_edge(3, 3)
    _assert_well_formed(g)


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
    # same labels and edge count, different edges: only the adjacency arrays differ
    assert Graph([(1, 2), (2, 3)]) != Graph([(1, 3), (2, 3)])
    assert len(a) == a.node_count == 3
    assert repr(a) == "Graph(nodes=3, edges=2)"
    assert (a == 1) is False and (a != 1) is True


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


@pytest.mark.parametrize("block_work", [1, 50, _BLOCK_WORK, 1 << 17, 1 << 40])  # and the cut that ships
def test_triangle_pass_matches_per_node_primitives(monkeypatch, block_work):
    # the whole-graph pass must not depend on where its blocks are cut, nor on
    # how degree ties and labels order the nodes it renumbers by degree
    from tricent import graph

    monkeypatch.setattr(graph, "_BLOCK_WORK", block_work)
    rng = random.Random(block_work)
    shuffled = random.Random(3).sample(range(-500, 500), 300)
    graphs = [
        Graph(), Graph(nodes=[4]), Graph(nodes=range(1, 6)),  # n = 0, n = 1, edgeless
        Graph([(v, v % 12 + 1) for v in range(1, 13)]),  # ring: every degree ties
        Graph(combinations(range(1, 6), 2)),  # K5
        Graph([(0, v) for v in range(1, 8)] + [(1, 2)], nodes=[-3, 30]),  # star, isolated nodes
        load_graph(Path(__file__).resolve().parent / "golden" / "wide-labels.edges"),
        Graph(triad_rich(random.Random(4), shuffled, 4)),  # hubs under shuffled labels
        *(random_graph(rng, n, p) for n, p in [(9, 0.5), (40, 0.2), (120, 0.08)]),
        Graph(combinations(range(40), 2)),  # K40: U's longest row has 39 entries, a search 6 steps
        # U's last non-empty row is node 6's, its longest (hubs 1-4); the wedge of
        # 7's edges to 6 and 5 searches that row for a key above all of U's
        Graph([(6, h) for h in range(1, 5)] + [(7, 6), (7, 5), (7, 1)]
              + [(h, 100 * h + j) for h in range(1, 6) for j in range(6 + 2 * (h == 5))]),
        Graph([*combinations(range(1, 7), 2), *((10, v) for v in range(11, 21))], nodes=[30, 31]),  # K6, a star
    ]
    for g in graphs:
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


def test_load_graph_format_resolution(tmp_path):
    net = tmp_path / "g.net"
    net.write_text("*Vertices 2\n*Edges\n1 2\n")
    txt = tmp_path / "g.edges"
    txt.write_text("1 2\n")
    assert load_graph(net) == load_graph(txt)
    assert load_graph(txt, fmt="edgelist").edge_count == 1
    with pytest.raises(ValueError):
        load_graph(txt, fmt="adjacency")
    # an unknown format is rejected before the file is opened or decoded
    latin = tmp_path / "latin.net"
    latin.write_bytes(b"*Vertices 1\n1 \"\xe9\"\n")
    for path in (tmp_path / "missing.net", latin):
        with pytest.raises(ValueError, match=r"^unknown graph format 'xml'$"):
            load_graph(path, fmt="xml")


def test_load_graph_karate_file(karate):
    # the committed dataset must equal the embedded canonical edge list
    assert load_graph(DATA_DIR / "karate.net") == karate


# Every message the two readers raise, with its exact text and line.
READER_ERRORS = [
    (parse_pajek, "*Vertices 2\n*Matrix\n0 1\n1 0\n", 2, "unsupported section '*Matrix'"),
    (parse_pajek, "*Vertices 2\n*Vertices 2\n", 2, "duplicate *Vertices header"),
    (parse_pajek, "*Vertices\n", 1, "malformed header '*Vertices'"),
    (parse_pajek, "  *vertices  x \n", 1, "malformed header '*vertices  x'"),
    (parse_pajek, "*Vertices -1\n", 1, "negative vertex count"),
    (parse_pajek, "% c\n*edges\n1 2\n", 2, "*edges before *Vertices"),
    (parse_pajek, '*Vertices 2\nx "a"\n', 2, "non-numeric vertex id 'x'"),
    (parse_pajek, "*Vertices 2\n*Edges\n1 y\n", 3, "non-numeric vertex id 'y'"),
    (parse_pajek, "*Vertices 2\n*Edgeslist\n1 2 z\n", 3, "non-numeric vertex id 'z'"),
    (parse_pajek, "*Vertices 2\n*Arcs\n1 5\n", 3, "vertex id 5 outside 1..2"),
    (parse_pajek, "*Vertices 2\n*Arcslist\n0 1\n", 3, "vertex id 0 outside 1..2"),
    (parse_pajek, "*Vertices 2\n*Edges\n\t1  \n", 3, "expected 'u v [weight]', got '1'"),
    (parse_pajek, "*Vertices 2\n*Edges\n1 2 heavy\n", 3, "non-numeric weight 'heavy'"),
    (parse_pajek, " 1  2 \n", 1, "content before any section header: '1  2'"),
    (parse_pajek, "", 1, "missing *Vertices header"),
    (parse_pajek, "*Network test\n% no vertices\n\n", 3, "missing *Vertices header"),
    (parse_edgelist, "1 2\n3  # lonely\n", 2, "expected 'u v', got '3'"),
    (parse_edgelist, "# c\n 1 two  # x\n", 2, "non-integer endpoint in '1 two'"),
    (parse_edgelist, "# a\r\n# SNAP header\r\n1 2\r\n3\r\n", 4, "expected 'u v', got '3'"),
]


@pytest.mark.parametrize("reader, text, line, message", READER_ERRORS)
def test_reader_error_text_and_line(reader, text, line, message):
    with pytest.raises(ParseError) as err:
        reader(text)
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


def test_parse_pajek_rejects_vertex_count_above_limit(monkeypatch):
    # a short header must not be able to ask for unbounded memory
    from tricent import graph

    monkeypatch.setattr(graph, "_MAX_VERTICES", 5)
    assert parse_pajek("*Vertices 5\n").node_count == 5
    with pytest.raises(ParseError) as err:
        parse_pajek("% big\n*Vertices 6\n")
    assert (str(err.value), err.value.line) == ("line 2: vertex count above the limit of 5", 2)


# ------------------------------------------------------ readers vs the oracle

GOLDEN = Path(__file__).resolve().parent / "golden"
READ_AS = {".net": (parse_pajek, oracle_parse_pajek), ".edges": (parse_edgelist, oracle_parse_edgelist)}


def _plain_files(rng: random.Random):
    """A plain Pajek file and a plain edge list of 2000 edges each, which the
    whole-body readers take without the line scan."""
    n = 600
    pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(2000)]
    vertices = "".join(f'{v} "v {v}" 0.5 0.5\n' for v in range(1, n + 1))
    edges = ["".join(f"{u} {v}\n" if k % 7 else f"\t{u}\t {v} \n\n" for k, (u, v) in part)
             for part in (list(enumerate(pairs))[:700], list(enumerate(pairs))[700:])]
    pajek = f"*Network plain\n*Vertices {n}\n{vertices}*Edges\n{edges[0]}\n*arcs\n{edges[1]}"
    labels = [rng.randint(0, 10**18 - 1) for _ in range(n)]  # unsigned, at most 18 digits
    edgelist = "".join(f"{labels[u - 1]} {labels[v - 1]}\n" for u, v in pairs)
    return [(".net", pajek), (".net", pajek.replace("\n", "\r\n")), (".edges", edgelist)]


def _reader_seeds():
    files = [DATA_DIR / "karate.net", GOLDEN / "hk-332.net", GOLDEN / "toy.edges",
             GOLDEN / "deep.edges", GOLDEN / "wide-labels.edges"]
    return [(p.suffix, p.read_text()) for p in files] + _plain_files(random.Random(3))


# What each kind of mutation puts into a file. Apart from self-loops, each can
# make a body that the whole-body readers must send to the line scan.
READER_TOKENS = {
    "hash": ["#", "# c", "1#", "#2"],
    "int-forms": ["1_0", "+5", "-0", "007", "\u0663", "\uff11\uff12", "0x1", "1.0", "-", "--1"],
    "beyond-int64": [str(2**63), str(2**63 - 1), str(-(2**63) - 1), "1" * 25, "0" * 20 + "1"],
    "line-breaks": ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r", "\r\n"],
    "weighted": [" 1.5", " 2", " x", " 1e3", " -inf", "\t7"],
}


def _mutate_reader_input(rng: random.Random, kind: str, text: str) -> str:
    lines = text.split("\n")
    at = rng.randrange(len(lines))
    if kind == "self-loop":
        # often a label on no other line: the node must still exist, without the loop
        label = rng.choice([3, 7, 590])
        lines.insert(at if lines[at][:1].isdigit() else len(lines), f"{label} {label}")
    elif kind == "line-breaks":
        spot = rng.randrange(len(text) + 1)
        return text[:spot] + rng.choice(READER_TOKENS[kind]) + text[spot:]
    elif kind == "weighted":
        lines[at] += rng.choice(READER_TOKENS[kind])
    elif kind in READER_TOKENS:
        tokens = lines[at].split(" ")
        spot = rng.randrange(len(tokens))
        tokens[spot : spot + rng.randint(0, 1)] = [rng.choice(READER_TOKENS[kind])]
        lines[at] = " ".join(tokens)
    else:  # a span of characters deleted or repeated
        spot = rng.randrange(len(text) + 1)
        span = rng.randint(1, 40)
        return text[:spot] + (text[spot : spot + span] * 2 if rng.random() < 0.5 else "") + text[spot + span :]
    return "\n".join(lines)


# bodies at the edge of plain: one column, three columns, stray signs, no rows
READER_EDGE_CASES = [
    (parse_edgelist, text) for text in
    ["", "\n \t\n", "1 2 3\n", "1 2 3\n4 5 6\n", "1\n", "-\n", " - \n", "1 -\n", "-1 -2\n", "3 3\n",
     "1 2\r\n3 4\r\n", "1 2\r3 4\n", "1\r2\n", "1 2\x0c3 4\n", "1 2\n\x0c\n", f"{2**63 - 1} 1\n", f"{2**63} 1\n",
     # a sign inside or at the end of a token, or alone; 258 tokens are 2 modulo 256
     "1-2 3\n", "1 2-\n", "--1 2\n", "1 -2-3\n", "1\t-\t2\n", " ".join(map(str, range(1, 259))) + "\n7 9\n"]
] + [
    (parse_pajek, "*Vertices 4\n" + text) for text in
    ["*Edges\n", "*Edges\n1 2 1.0\n2 3 1.0\n", "*Edges\n1\n2\n", "*Arcs\n4 4\n*Edges\n\n",
     "1\n2 \"b\"\n*Edges\n1 2\n", "0 \"a\"\n*Edges\n1 2\n", "*Edges\n1 5\n", "*Edges\n0 1\n",
     "*Edges\n-1 2\n", "*Edges\n1 2\n*Vertices 4\n", "*Network x\n*Edges\n1 2\n", "% c\n*Edges\n1 2\n",
     "*Edges\n1 2\n*Edgeslist\n1 2 3\n", "*Edges\n1 2\n *arcs x\n3 4\n", "5 \"a*b\"\n*Edges\n1 2\n"]
] + [(parse_pajek, "*Network x\n\n*Vertices 2\n*Edges\n1 2\n"), (parse_pajek, "x\n*Vertices 2\n"),
     (parse_pajek, "*Vertices 2\n*Edges\n \n\t\n"),  # a blank body, which fromstring reads as [0]
     (parse_pajek, "\n*Network x\ny\n*Vertices 2\n"), (parse_pajek, "*Vertices 2 7\n*Edges\n1 2\n"),
     (parse_pajek, "*Edges\n1 2\n*Vertices 2\n"), (parse_pajek, "*Arcs\n\n*Vertices 2\n")
] + [
    # line numbers that move when CRLF is replaced before the other line ends
    # are found ("\r\r\n" ends two lines), or when a final line end is lost
    (parse_pajek, "*Vertices 2\r\r\n*Edges\r\r\n1 5\r\n"), (parse_pajek, "*Vertices 2\r\r\n*Edges\r\n2 3 x\r\n"),
    (parse_pajek, "*Vertices 2\r\n*Edges\r\r\n1 2\r\r\n"), (parse_pajek, "% c\n\x0c"), (parse_pajek, "*Network x\r\n\r\n"),
    (parse_pajek, "*Network x\x85"), (parse_pajek, "\n"), (parse_edgelist, "1 2\r\r\n3\r\n"), (parse_edgelist, "1 2\r\r\n3 4\r\n")
] + [
    # *Vertices bodies at the edge of the whole-body check: ids with a leading 0 or
    # a sign, 0, n + 1, 9 or 20 digits; an id followed by \x1f or another blank that
    # str.split knows; a leading blank, % and blank lines, a non-ASCII label, no final LF
    (parse_pajek, "*Vertices 9\n" + text + "*Edges\n1 2\n") for text in
    ["007 \"a\"\n", "009\n", "+1\n", "0\n", "10\n", "9\n10 \"b\"\n", "000000001\n", "123456789\n", "9" * 20 + "\n", "12345678\n",
     "1\x1f\"a\"\n2\n", "1\u3000\"a\"\n", "1\"a\"\n", "1\x00\n", "\u0663\n", " 1 \"a\"\n", "\t2\n", "1\n% c\n2\n",
     "1\n\n2\n", "%\n", "1 \"\u00e9\"\n2 \"\u4e2d\"\n", "9\t\n8 x\n"]
] + [(parse_pajek, "*Vertices 3\n1\n3"), (parse_pajek, "*Vertices 3\n1\n4"), (parse_pajek, "*Vertices 3\n2 \"\u00e9\"")]


def _scans_edges(name: str, args: tuple) -> bool:
    """Whether a call of the line scan ``name`` with ``args`` reads edges or
    vertices. Only the lines before a Pajek file's first section are scanned on
    purpose; a plain *Vertices body is checked whole."""
    return name == "_scan_edgelist" or args[1] is not None


@pytest.mark.parametrize("reader, text", READER_EDGE_CASES)
def test_readers_agree_with_the_line_scan_oracle_at_the_edge_of_plain(reader, text):
    oracle = oracle_parse_pajek if reader is parse_pajek else oracle_parse_edgelist
    assert_reads_alike(reader, oracle, text)


def test_readers_agree_with_the_line_scan_oracle_on_mutated_inputs(monkeypatch):
    from tricent import graph

    monkeypatch.setattr(graph, "_MAX_VERTICES", 5000)  # no mutated count allocates much
    scans = []
    for name in ("_scan_body", "_scan_edgelist"):
        scan = getattr(graph, name)
        monkeypatch.setattr(graph, name, lambda *args, name=name, scan=scan:
                            _scans_edges(name, args) and scans.append(scan) or scan(*args))
    rng = random.Random(11)
    seeds = _reader_seeds()
    for suffix, text in seeds:
        assert_reads_alike(*READ_AS[suffix], text)
    assert len(scans) == 1  # wide-labels holds labels beyond int64; a leading comment block is read past
    for kind in [*READER_TOKENS, "self-loop", "span"]:
        for k, (suffix, text) in enumerate(seeds):
            for _ in range(4):
                scanned = len(scans)
                assert_reads_alike(*READ_AS[suffix], _mutate_reader_input(rng, kind, text))
                if kind == "self-loop" and k >= len(seeds) - 3:  # the generated plain files
                    assert len(scans) == scanned, "a plain file with a self-loop took the line scan"


def test_plain_files_skip_the_line_scan(monkeypatch, tmp_path):
    # plain input falling back to the line scan would be correct, and slow
    from tricent import graph

    for name in ("_scan_body", "_scan_edgelist"):
        def refuse(*args, name=name, scan=getattr(graph, name)):
            if _scans_edges(name, args):
                raise AssertionError("the line scan ran on a plain file")
            return scan(*args)

        monkeypatch.setattr(graph, name, refuse)
    plain = [*_plain_files(random.Random(5)), (".net", "*Vertices 3\n")]
    # every section stays plain: *Vertices bodies of k "v k" lines or bare ids,
    # comments before the first section, a named *Network line, and any line ends
    # str.splitlines knows; an edge list stays plain after a leading block of
    # comments, as SNAP files have
    pajek, edgelist = plain[0][1], plain[2][1]
    snap = "# Undirected graph: plain.txt\n# Nodes: 600 Edges: 2000\n# FromNodeId\tToNodeId\n"
    plain += [
        (".edges", snap + edgelist),
        (".edges", (snap + edgelist).replace("\n", "\r\n")),
        (".edges", "#\n# only comments"),
        (".net", "% by hand\n\n*Network two words\n  % next: vertices\n" + pajek.split("\n", 1)[1]),
        (".net", pajek.replace("\n", "\x0c")),
        (".net", pajek.replace("\n", "\r\n", 700)),
        (".net", "*Vertices 12\n" + "".join(f"{v}\n" for v in range(1, 13)) + "*Edges\n3 12\n10 1\n"),
        (".net", "*Vertices 10\n10\t\n1 \"\u00e9\"\n7"),  # a tab, a non-ASCII label, no final LF
    ]
    for k, (suffix, text) in enumerate(plain):
        path = tmp_path / f"plain{k}{suffix}"
        path.write_bytes(text.encode())
        read, oracle = READ_AS[suffix]
        assert read(text) == load_graph(path) == oracle(text)  # reading a file maps CRLF to LF
    assert load_graph(DATA_DIR / "karate.net") == Graph(KARATE_EDGES)
    assert load_graph(GOLDEN / "hk-332.net").edge_count == 1956


def test_signed_labels_take_the_line_scan(monkeypatch):
    # the plain grammar is unsigned, so a body holding a "-" anywhere is read
    # line by line, to the same graph or error
    from tricent import graph

    bodies, plain_pairs = {}, graph._plain_pairs
    monkeypatch.setattr(graph, "_plain_pairs", lambda body: bodies.setdefault(body, plain_pairs(body)))
    for reader, text in READER_EDGE_CASES:
        try:
            reader(text)
        except ParseError:
            pass
    signed = [body for body in bodies if "-" in body]
    assert len(signed) >= 10 and all(bodies[body] is None for body in signed)
    scans, scan = [], graph._scan_edgelist
    monkeypatch.setattr(graph, "_scan_edgelist", lambda lf: scans.append(lf) or scan(lf))
    edgelist = _plain_files(random.Random(5))[2][1]
    negated = "".join(f"-{u} -{v}\n" for u, v in map(str.split, edgelist.splitlines()))
    assert parse_edgelist(negated) == oracle_parse_edgelist(negated)
    assert len(scans) == 1


def test_plain_pairs_reads_alike_in_slices_of_any_size(monkeypatch):
    # _plain_pairs checks a body one slice at a time, each ending at a line end,
    # so where the slices fall must change neither the verdict nor the array
    from tricent import graph

    plain_pairs, bodies = graph._plain_pairs, set()
    monkeypatch.setattr(graph, "_plain_pairs", lambda body: bodies.add(body) or plain_pairs(body))
    texts = [(reader, text) for reader, text, *_ in READER_ERRORS] + READER_EDGE_CASES
    texts += [(READ_AS[suffix][0], text) for suffix, text in _plain_files(random.Random(5))]
    for seed in (0, 1):  # the reader fuzz
        rng = random.Random(seed)
        for _ in range(1000):
            texts += [(parse_pajek, _fuzz_pajek(rng)),
                      (parse_edgelist, _fuzz_text(rng, _fuzz_lines(rng, rng.randint(0, 8))))]
    for reader, text in texts:
        try:
            reader(text)
        except ParseError:
            pass
    whole = {body: plain_pairs(body) for body in bodies}
    assert max(len(body) for body, pairs in whole.items() if pairs is not None) > 100 * 64
    for size in (1, 7, 64):
        monkeypatch.setattr(graph, "_SLICE_BYTES", size)
        for body, pairs in whole.items():
            sliced = plain_pairs(body)
            assert (sliced is None) == (pairs is None), body
            if pairs is not None:
                assert sliced.dtype == pairs.dtype and np.array_equal(sliced, pairs), body


def _hk_10k() -> tuple:
    """A triad-rich graph of 10k nodes: (its Pajek text, its edge list text, its edge count)."""
    rng = random.Random(18)
    n = 10_000
    edges = triad_rich(rng, rng.sample(range(1, n + 1), n), 5)  # 49985 edges
    vertices = "".join(f'{v} "v{v}"\n' for v in range(1, n + 1))
    body = "".join(f"{u} {v}\n" for u, v in edges)
    return f"*Vertices {n}\n{vertices}*Edges\n{body}", body, len(edges)


def test_a_plain_file_is_read_within_six_times_its_size(tmp_path):
    # the whole-body check of slices, fromstring and the CSR build in place
    # keep the read's peak at about 4.1 times the file's size (4.7 with the
    # check over the whole body, 8.2 with loadtxt); the triangle pass, whose
    # peak here is 3.3 times the graph's column indices (4.2 with every
    # entry's ranked ends held at once, and U's edge ends beside U), stays
    # within 3.6 times
    from tricent import graph

    text, _, m = _hk_10k()
    path = tmp_path / "hk-10k.net"
    path.write_text(text)
    tracemalloc.start()
    try:
        g = load_graph(path)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        graph._triangle_counts(g)
        pass_peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert g.edge_count == m
    assert read_peak <= 4.5 * path.stat().st_size
    assert pass_peak <= 3.6 * g._indices.nbytes


def test_an_edge_list_is_read_within_twelve_times_its_size(tmp_path):
    # np.unique's sort and inverse make the read's peak 11.2 times the file's
    # size; this keeps it from growing
    _, text, m = _hk_10k()
    path = tmp_path / "hk-10k.edges"
    path.write_text(text)
    tracemalloc.start()
    try:
        g = load_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == m
    assert peak <= 12 * path.stat().st_size


def test_crlf_line_ends_become_lf_within_the_text_size():
    # one replace per kind of line end; a list of every line took 11.9 times
    from tricent import graph

    text = _hk_10k()[0].replace("\n", "\r\n")
    tracemalloc.start()
    try:
        lf = graph._lf(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lf == text.replace("\r\n", "\n")
    assert peak <= 1.1 * len(text)


# Every line end str.splitlines knows, and the lines random files are made of:
# headers valid and not, and body lines plain, weighted, out of range or malformed.
FUZZ_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
FUZZ_HEADERS = ["*vertices 3", "*Vertices 0", "*Vertices 7", "*Vertices", "*Vertices x", "*Vertices -1",
                "*Edges", "*arcs", "*Edgeslist", "*ArcsList", "*Network x", "*foo", "%*Edges", "  *Edges 7",
                "*Vertices 2 7"]
FUZZ_LINES = ["3\t4", " 2 3 ", "1 2 1.5", "2 3 x", "1 2 -inf", "1 9", "0 1", "-1 2", "4 4", "1", "a b",
              "1 2 3 4", '1 "a"', "2", '"x"', '5 "a*b"', "% c", "", "  ", "1 2 # c", "# c", "1 -", "007 1",
              "+2 3", f"{2**63} 1", "-3 -4"]


def _fuzz_lines(rng: random.Random, count: int) -> list:
    return [f"{rng.randint(1, 3)} {rng.randint(1, 3)}" if rng.random() < 0.85 else rng.choice(FUZZ_LINES)
            for _ in range(count)]


def _fuzz_text(rng: random.Random, lines: list) -> str:
    """``lines`` joined by mostly LF, sometimes another line end, sometimes no final one."""
    ends = [rng.choice(FUZZ_BREAKS) if rng.random() < 0.2 else "\n" for _ in lines]
    return "".join(p + e for p, e in zip(lines, ends))[: None if rng.random() < 0.8 else -1]


def _fuzz_pajek(rng: random.Random) -> str:
    """A few sections, most of them well formed, after an optional preamble."""
    lines = rng.sample(["% c", "", "*Network x", "1 2"], rng.choice([0, 0, 1, 2]))
    for k in range(rng.choice([0, 1, 2, 2, 3, 4])):
        if rng.random() < 0.85:
            lines.append(f"*Vertices {rng.randint(3, 6)}" if k == 0 else rng.choice(["*Edges", "*Arcs", "*Edgeslist"]))
        else:
            lines.append(rng.choice(FUZZ_HEADERS))
        lines += _fuzz_lines(rng, rng.randint(0, 5))
    return _fuzz_text(rng, lines)


@pytest.mark.parametrize("seed", [0, 1])
def test_readers_agree_with_the_line_scan_oracle_on_random_texts(monkeypatch, seed):
    from tricent import graph

    monkeypatch.setattr(graph, "_MAX_VERTICES", 6)  # "*Vertices 7" is over the limit
    rng = random.Random(seed)
    for _ in range(1000):
        assert_reads_alike(parse_pajek, oracle_parse_pajek, _fuzz_pajek(rng))
        assert_reads_alike(parse_edgelist, oracle_parse_edgelist, _fuzz_text(rng, _fuzz_lines(rng, rng.randint(0, 8))))


# ------------------------------------------------------------------- subgraphs

SUBGRAPH_CASES = {
    "karate": lambda: Graph(KARATE_EDGES),
    "hk-332": lambda: load_graph(GOLDEN / "hk-332.net"),
    "wide-labels": lambda: load_graph(GOLDEN / "wide-labels.edges"),
    "isolated": lambda: Graph([(1, 2), (2, 3), (5, 9)], nodes=[0, 1, 2, 3, 4, 5, 9, 12]),
}




def _rebuild(g: Graph, keep) -> Graph:
    keep = set(keep)
    return Graph([(u, v) for u, v in g.edges() if u in keep and v in keep], nodes=keep)


def _assert_well_formed(h: Graph):
    edges = list(h.edges())
    assert edges == sorted(edges)
    assert [h.degree(v) for v in h.nodes] == [len(h.neighbors(v)) for v in h.nodes]
    assert_well_formed(h)


@pytest.mark.parametrize("name", SUBGRAPH_CASES)
def test_subgraphs_equal_a_rebuild_from_filtered_edges(name):
    g = SUBGRAPH_CASES[name]()
    nodes = list(g.nodes)
    rng = random.Random(name)
    for size in (0, 1, len(nodes) // 3, len(nodes) - 1, len(nodes)):
        chosen = rng.sample(nodes, size)
        sub = g.induced_subgraph(chosen + chosen[:2])  # duplicates collapse
        assert sub == _rebuild(g, chosen)
        assert list(sub.nodes) == sorted(chosen)
        _assert_well_formed(sub)
        rest = g.remove_nodes(iter(chosen))
        assert rest == _rebuild(g, set(nodes) - set(chosen))
        assert g.remove_nodes(chosen + chosen[:2]) == rest  # so do repeated victims
        assert list(rest.nodes) == sorted(set(nodes) - set(chosen))
        _assert_well_formed(rest)


@pytest.mark.parametrize("name", SUBGRAPH_CASES)
def test_one_missing_label_is_named(name):
    g = SUBGRAPH_CASES[name]()
    missing = max(g.nodes) + 1
    some = list(g.nodes)[:3]
    for call in (
        lambda: g.neighbors(missing),
        lambda: g.degree(missing),
        lambda: g.induced_subgraph([*some, missing]),
        lambda: g.remove_nodes([missing, *some]),
    ):
        with pytest.raises(UnknownNodeError) as err:
            call()
        assert err.value.node == missing
