"""Shared fixtures: canonical graphs, random-graph helpers, dataset paths."""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path
from typing import List, Optional, Tuple

import pytest

from tricent import Graph, ParseError, load_graph

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# Zachary karate club, canonical 34-node / 78-edge version, 1-based labels.
KARATE_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    (1, 8), (1, 9), (1, 11), (1, 12), (1, 13), (1, 14),
    (1, 18), (1, 20), (1, 22), (1, 32), (2, 3), (2, 4),
    (2, 8), (2, 14), (2, 18), (2, 20), (2, 22), (2, 31),
    (3, 4), (3, 8), (3, 9), (3, 10), (3, 14), (3, 28),
    (3, 29), (3, 33), (4, 8), (4, 13), (4, 14), (5, 7),
    (5, 11), (6, 7), (6, 11), (6, 17), (7, 17), (9, 31),
    (9, 33), (9, 34), (10, 34), (14, 34), (15, 33), (15, 34),
    (16, 33), (16, 34), (19, 33), (19, 34), (20, 34), (21, 33),
    (21, 34), (23, 33), (23, 34), (24, 26), (24, 28), (24, 30),
    (24, 33), (24, 34), (25, 26), (25, 28), (25, 32), (26, 32),
    (27, 30), (27, 34), (28, 34), (29, 32), (29, 34), (30, 33),
    (30, 34), (31, 33), (31, 34), (32, 33), (32, 34), (33, 34),
]


@pytest.fixture(scope="session")
def karate() -> Graph:
    g = Graph(KARATE_EDGES)
    assert g.node_count == 34 and g.edge_count == 78
    return g


@pytest.fixture()
def triangle() -> Graph:
    return Graph([(1, 2), (2, 3), (1, 3)])


@pytest.fixture()
def k4() -> Graph:
    return Graph([(u, v) for u, v in combinations(range(1, 5), 2)])


@pytest.fixture()
def diamond() -> Graph:
    # K4 minus one edge: nodes 1 and 2 are the degree-3 hubs
    return Graph([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])


@pytest.fixture()
def path3() -> Graph:
    return Graph([(1, 2), (2, 3)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Erdos-Renyi-style graph on labels 1..n with edge probability p."""
    edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph(edges, nodes=range(1, n + 1))


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.3) -> Graph:
    """Random spanning tree plus extra edges: connected by construction."""
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    edges: List[Tuple[int, int]] = []
    for i in range(1, n):
        edges.append((nodes[i], nodes[rng.randrange(i)]))
    for u, v in combinations(range(1, n + 1), 2):
        if rng.random() < extra:
            edges.append((u, v))
    return Graph(edges, nodes=range(1, n + 1))


def triad_rich(rng: random.Random, labels, m: int):
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


def dataset_or_none(name: str) -> Optional[Graph]:
    """Load data/<name> when present; None when the file is absent."""
    path = DATA_DIR / name
    if not path.exists():
        return None
    return load_graph(path)


def assert_reads_alike(reader, oracle, text: str) -> None:
    """``reader(text)`` gives ``oracle(text)``'s graph, with labels of the same
    types, or a ParseError with the oracle's line and message. Both matrices
    must be well formed: sorted, distinct columns and every entry 1.0."""
    outcomes = []
    for read in (reader, oracle):
        try:
            g = read(text)
            assert g._adj.has_canonical_format and set(g._adj.data.tolist()) <= {1.0}, text
            outcomes.append((g, repr(g._labels)))
        except ParseError as err:
            outcomes.append((str(err), err.line))
    assert outcomes[0] == outcomes[1], text
