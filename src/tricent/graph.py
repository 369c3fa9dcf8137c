"""Undirected simple graphs, network file readers, and triangle primitives."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, KeysView, Tuple

NodeId = int


class ParseError(ValueError):
    """A network file could not be parsed. ``line`` is the offending 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownNodeError(LookupError):
    """An operation referenced a node that is not in the graph."""

    def __init__(self, node: NodeId):
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class Graph:
    """Immutable undirected simple graph with label-preserving node ids.

    Self-loops are dropped and duplicate/reversed edge pairs collapse to one
    edge at construction time. Node labels round-trip unchanged through every
    operation (Pajek inputs keep their 1-based integers). Instances never
    mutate: removal and subgraph operations return new graphs, so a Graph can
    be shared freely across threads.
    """

    __slots__ = ("_adj", "_edge_count")

    def __init__(self, edges: Iterable[Tuple[NodeId, NodeId]] = (), nodes: Iterable[NodeId] = ()):
        adj: dict[NodeId, set[NodeId]] = {v: set() for v in nodes}
        for u, v in edges:
            adj.setdefault(u, set())
            adj.setdefault(v, set())
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        self._adj: dict[NodeId, frozenset[NodeId]] = {
            v: frozenset(adj[v]) for v in sorted(adj)
        }
        self._edge_count = sum(len(s) for s in self._adj.values()) // 2

    @classmethod
    def _from_adjacency(cls, adj: dict[NodeId, frozenset[NodeId]]) -> "Graph":
        # internal fast path: adj must already be simple, symmetric, key-sorted
        g = object.__new__(cls)
        g._adj = adj
        g._edge_count = sum(len(s) for s in adj.values()) // 2
        return g

    @property
    def nodes(self) -> KeysView[NodeId]:
        """Read-only view of the node labels, in sorted order."""
        return self._adj.keys()

    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"

    def neighbors(self, i: NodeId) -> frozenset[NodeId]:
        """Adjacency set of ``i``; never contains ``i`` itself."""
        try:
            return self._adj[i]
        except KeyError:
            raise UnknownNodeError(i) from None

    def degree(self, i: NodeId) -> int:
        return len(self.neighbors(i))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self.neighbors(u)

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """All edges as (u, v) pairs with u < v, in sorted order."""
        for u in self._adj:
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def induced_subgraph(self, keep: Iterable[NodeId]) -> "Graph":
        """Subgraph on ``keep``: those nodes plus every edge between them."""
        keep_set = frozenset(keep)
        for v in keep_set:
            if v not in self._adj:
                raise UnknownNodeError(v)
        adj = {v: self._adj[v] & keep_set for v in sorted(keep_set)}
        return Graph._from_adjacency(adj)

    def remove_nodes(self, victims: Iterable[NodeId]) -> "Graph":
        """Graph with ``victims`` (and their incident edges) deleted."""
        victim_set = frozenset(victims)
        for v in victim_set:
            if v not in self._adj:
                raise UnknownNodeError(v)
        return self.induced_subgraph(self._adj.keys() - victim_set)


def triangle_neighbors(g: Graph, i: NodeId) -> frozenset[NodeId]:
    """Neighbors of ``i`` that share at least one triangle with it (gamma_i).

    A neighbor j belongs to the set exactly when some other neighbor of ``i``
    is adjacent to j, i.e. the common-neighbor intersection is nonempty.
    Always a subset of ``g.neighbors(i)``.
    """
    nbrs = g.neighbors(i)
    return frozenset(j for j in nbrs if nbrs & g.neighbors(j))


def triangles_at(g: Graph, i: NodeId) -> int:
    """Number of triangles incident to ``i`` (= edges among its neighbors)."""
    nbrs = g.neighbors(i)
    return sum(len(nbrs & g.neighbors(j)) for j in nbrs) // 2


def density(g: Graph) -> float:
    """Edge density 2N / (n(n-1)): 0 for edgeless graphs, 1 for complete ones.

    Raises ValueError for graphs with fewer than 2 nodes (zero denominator).
    """
    return _density(g.node_count, g.edge_count)


def _density(n: int, m: int) -> float:
    if n < 2:
        raise ValueError("density is undefined for graphs with fewer than 2 nodes")
    return 2.0 * m / (n * (n - 1))


def parse_edgelist(text: str) -> Graph:
    """Read a plain edge list: one ``u v`` pair per line, ``#`` comments ignored.

    Node ids are arbitrary integer labels. Tokens after the first two are
    ignored (weights etc.); blank lines are skipped.
    """
    pairs: list[Tuple[NodeId, NodeId]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", lineno) from None
        pairs.append((u, v))
    return Graph(pairs)


_PAIR_SECTIONS = {"*edges", "*arcs"}
_LIST_SECTIONS = {"*edgeslist", "*arcslist"}


def parse_pajek(text: str) -> Graph:
    """Read a Pajek ``.net`` description into an undirected simple graph.

    Requires a ``*Vertices n`` header; accepts any number of ``*Edges`` /
    ``*Arcs`` (and ``*Edgeslist`` / ``*Arcslist``) sections. Section keywords
    are case-insensitive, ``%`` comment lines and blank lines are skipped, a
    leading ``*Network`` line is ignored. Arcs are merged undirected, edge
    weights are ignored, duplicates collapse, self-loops are dropped, and all
    n declared vertices are kept even when isolated. Vertex ids are the
    file's 1-based integers; ids outside 1..n raise :class:`ParseError`.
    """
    n_declared: int | None = None
    pairs: list[Tuple[NodeId, NodeId]] = []
    section: str | None = None

    def check_id(token: str, lineno: int) -> int:
        try:
            vid = int(token)
        except ValueError:
            raise ParseError(f"non-numeric vertex id {token!r}", lineno) from None
        assert n_declared is not None
        if not 1 <= vid <= n_declared:
            raise ParseError(f"vertex id {vid} outside 1..{n_declared}", lineno)
        return vid

    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("*"):
            parts = line.split()
            key = parts[0].lower()
            if key == "*network":
                continue
            if key == "*vertices":
                if n_declared is not None:
                    raise ParseError("duplicate *Vertices header", lineno)
                try:
                    n_declared = int(parts[1])
                except (IndexError, ValueError):
                    raise ParseError(f"malformed header {line!r}", lineno) from None
                if n_declared < 0:
                    raise ParseError("negative vertex count", lineno)
                section = "vertices"
            elif key in _PAIR_SECTIONS or key in _LIST_SECTIONS:
                if n_declared is None:
                    raise ParseError(f"{parts[0]} before *Vertices", lineno)
                section = "pairs" if key in _PAIR_SECTIONS else "lists"
            else:
                raise ParseError(f"unsupported section {parts[0]!r}", lineno)
            continue
        if section == "vertices":
            check_id(line.split()[0], lineno)
        elif section == "pairs":
            parts = line.split()
            if len(parts) < 2:
                raise ParseError(f"expected 'u v [weight]', got {line!r}", lineno)
            u = check_id(parts[0], lineno)
            v = check_id(parts[1], lineno)
            if len(parts) >= 3:
                try:
                    float(parts[2])  # weight: validated, then ignored
                except ValueError:
                    raise ParseError(f"non-numeric weight {parts[2]!r}", lineno) from None
            pairs.append((u, v))
        elif section == "lists":
            parts = line.split()
            u = check_id(parts[0], lineno)
            for token in parts[1:]:
                pairs.append((u, check_id(token, lineno)))
        else:
            raise ParseError(f"content before any section header: {line!r}", lineno)

    if n_declared is None:
        raise ParseError("missing *Vertices header", lineno or 1)
    return Graph(pairs, nodes=range(1, n_declared + 1))


def to_pajek(g: Graph) -> str:
    """Serialize to Pajek text. Requires node labels to be exactly 1..n."""
    n = g.node_count
    if set(g.nodes) != set(range(1, n + 1)):
        raise ValueError("Pajek serialization needs contiguous 1-based labels")
    lines = [f"*Vertices {n}"]
    lines.extend(f'{v} "v{v}"' for v in g.nodes)
    lines.append("*Edges")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_graph(path: str | Path, fmt: str = "auto") -> Graph:
    """Read a network file. ``fmt`` is ``pajek``, ``edgelist``, or ``auto``
    (``.net`` extension means Pajek, anything else a plain edge list)."""
    path = Path(path)
    if fmt == "auto":
        fmt = "pajek" if path.suffix.lower() == ".net" else "edgelist"
    text = path.read_text()
    if fmt == "pajek":
        return parse_pajek(text)
    if fmt == "edgelist":
        return parse_edgelist(text)
    raise ValueError(f"unknown graph format {fmt!r}")
