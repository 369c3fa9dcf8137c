"""Undirected simple graphs, network file readers, and triangle primitives."""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Iterator, KeysView, Tuple

import numpy as np

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
    mutate: removal and subgraph operations return new graphs. The triangle
    counts, computed on first use and kept, change nothing a Graph shows, so it
    can be shared freely across threads: two first calls at worst count twice.

    The adjacency is a symmetric CSR pattern over the sorted labels (row k is
    the k-th smallest label): two numpy arrays, ``_indptr`` and ``_indices``,
    with sorted, distinct columns in every row and no values.
    """

    __slots__ = ("_labels", "_index", "_indptr", "_indices", "_counts")

    def __init__(self, edges: Iterable[Tuple[NodeId, NodeId]] = (), nodes: Iterable[NodeId] = ()):
        ends = [x for u, v in edges for x in (u, v)]
        self._labels: list[NodeId] = sorted({*nodes, *ends})
        self._index = {v: k for k, v in enumerate(self._labels)}
        self._indptr, self._indices = _adjacency(len(self._labels), self._rows(ends))
        self._counts = None  # (triangles, sdeg) once _triangle_counts has run

    @classmethod
    def _of(cls, labels: list[NodeId], csr: Tuple[np.ndarray, np.ndarray]) -> "Graph":
        """Graph on ``labels`` (sorted, distinct) whose k-th label owns row k of ``csr``."""
        g = cls.__new__(cls)
        g._labels, g._index, (g._indptr, g._indices) = labels, {v: k for k, v in enumerate(labels)}, csr
        g._counts = None
        return g

    @property
    def nodes(self) -> KeysView[NodeId]:
        """Read-only view of the node labels, in sorted order."""
        return self._index.keys()

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return len(self._indices) // 2

    def __contains__(self, node: object) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same = self._labels == other._labels and np.array_equal(self._indptr, other._indptr)
        return same and np.array_equal(self._indices, other._indices)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"

    def _rows(self, labels: Iterable[NodeId]) -> np.ndarray:
        """The row of each of ``labels``, in order; UnknownNodeError names a missing one."""
        try:
            return np.fromiter(map(self._index.__getitem__, labels), np.intp)
        except KeyError as err:
            raise UnknownNodeError(err.args[0]) from None

    def neighbors(self, i: NodeId) -> frozenset[NodeId]:
        """Adjacency set of ``i``; never contains ``i`` itself. Built on each call."""
        (k,) = self._rows((i,))
        row = self._indices[self._indptr[k] : self._indptr[k + 1]]
        return frozenset(map(self._labels.__getitem__, row.tolist()))

    def degree(self, i: NodeId) -> int:
        (k,) = self._rows((i,))
        return int(self._indptr[k + 1] - self._indptr[k])

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self.neighbors(u)

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """All edges as (u, v) pairs with u < v, in sorted order."""
        rows = _entry_rows(self._indptr)
        upper = rows < self._indices
        label = self._labels.__getitem__
        return zip(map(label, rows[upper].tolist()), map(label, self._indices[upper].tolist()))

    def induced_subgraph(self, keep: Iterable[NodeId]) -> "Graph":
        """Subgraph on ``keep``: those nodes plus every edge between them."""
        return self._slice(np.unique(self._rows(keep)))

    def remove_nodes(self, victims: Iterable[NodeId]) -> "Graph":
        """Graph with ``victims`` (and their incident edges) deleted."""
        keep = np.ones(len(self._labels), bool)
        keep[self._rows(victims)] = False
        return self._slice(np.flatnonzero(keep))

    def _slice(self, rows: np.ndarray) -> "Graph":
        """Subgraph on ``rows``, which ascend without repeats."""
        new = np.full(len(self._labels), -1)
        new[rows] = np.arange(len(rows))
        # rows ascend, so the kept entries stay row-major with sorted columns
        at, col = new[_entry_rows(self._indptr)], new[self._indices]
        kept = (at >= 0) & (col >= 0)
        indptr = np.searchsorted(at[kept], np.arange(len(rows) + 1))
        return Graph._of(list(map(self._labels.__getitem__, rows.tolist())), (indptr, col[kept]))


def _adjacency(n: int, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the symmetric n x n CSR pattern with entries (u, v)
    and (v, u) for every pair of rows u = ends[2i], v = ends[2i + 1] with u != v.
    Works in place: ``ends``, an int64 array, is overwritten."""
    pairs = ends.reshape(-1, 2)
    pairs[pairs[:, 0] == pairs[:, 1]] = -1  # a self-loop's two keys are negative
    u, v = pairs.T
    key = v * n + u  # entry (row, col) has the key row * n + col
    u *= n
    u += v
    v[...] = key
    key = pairs.reshape(-1)  # the keys stay in the buffer of ends
    key.sort()
    first = np.empty(len(key), bool)  # the first of each run of repeats, if not negative
    first[:1] = key[:1] >= 0
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if np.count_nonzero(first) < len(first):  # drop repeats and self-loops; the CSR's indices share that buffer
        kept = key[first]
        key = key[: len(kept)]
        key[...] = kept
    return np.searchsorted(key, np.arange(n + 1) * n), np.remainder(key, n, out=key)


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of each entry of a CSR pattern."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


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


# Wedges per block of the triangle pass. On Holme-Kim graphs of 20k nodes and
# 200k edges (919k wedges) and of 1224 nodes and 16.9k edges (111k wedges), the
# pass's peak allocation was 6.5 and 1.5 MB at 2**14, and 7.5 and 2.5 MB at
# 2**15, where the row search's block temporaries also took a 10k-node graph's
# pass from 3.3 to 4.4 times its column indices; no cut from 2**13 to 2**16 was
# faster.
_BLOCK_WORK = 1 << 14


def _triangle_counts(g: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """Per-node triangle counts and sdeg, in node order, counted once per graph.

    Nodes are ranked by (degree, row); U holds each edge once, in the row of
    its lower-ranked end, so even hubs have short rows. Each triangle i < j < k
    is found once, as the wedge of U's edges (i, j) and (i, k) that U's edge
    (j, k) closes (Schank & Wagner's "forward" algorithm). The closing edge is
    looked up in row j of U alone, by a branch-free binary search of
    bit_length(U's longest row) steps. A triangle counts for each of its three
    nodes, and marks its three edges; a node's sdeg is the number of its edges
    marked.
    """
    if g._counts is not None:
        return g._counts
    n = len(g._labels)
    rank = np.empty(n, np.intp)
    rank[np.argsort(np.diff(g._indptr), kind="stable")] = np.arange(n)
    low = rank.astype(np.int32)  # int32 ranks halve the mask's two 2m-long operands
    upper = np.repeat(low, np.diff(g._indptr)) <= low[g._indices]  # the entries whose row ranks lower, as ranks differ
    del low
    key = np.repeat(rank, np.diff(g._indptr))[upper] * n + rank[g._indices[upper]]  # U's entries as row * n + col
    del upper  # freed before U's edge arrays are made
    key.sort()  # row-major
    first = np.searchsorted(key, np.arange(n + 1) * n)  # row r of U is key[first[r]:first[r + 1]]
    steps = [1 << b for b in reversed(range(int(np.diff(first).max(initial=0)).bit_length()))]
    # edge e opens a wedge with each later edge of its row, so before[e], the
    # wedges opened before edge e, sums (end of e's row) - e - 1 over earlier edges
    before = np.concatenate([[0], np.cumsum(np.repeat(first[1:], np.diff(first)) - np.arange(1, len(key) + 1))])
    dst = key % n  # edge e of U joins key[e] // n < dst[e]; dst ascends in a row
    triangles, hit, start = np.zeros(n, np.int64), np.zeros(len(key), bool), 0
    while start < len(key):
        stop = max(start + 1, int(np.searchsorted(before, before[start] + _BLOCK_WORK, "right")) - 1)
        count = np.diff(before[start : stop + 1])
        # the block's wedge w pairs edge e with edge e + 1 + w - (the block's first wedge of e)
        shift = np.arange(start + 1, stop + 1) - (before[start:stop] - before[start])
        e = np.repeat(np.arange(start, stop), count)
        f = np.arange(len(e)) + np.repeat(shift, count)
        row = dst[e]
        closing = row * n + dst[f]  # the key of the edge that would close the wedge
        # a lower-bound search in that row alone: the steps add up to at least
        # its length, and every key of a later row lies above the closing key
        at = first[row]
        for s in steps:
            at += (key[s - 1 :].take(at, mode="clip") < closing) * s  # key[at + s - 1], clipped
        found = np.flatnonzero(key.take(at, mode="clip") == closing)  # also rejects a clipped overshoot past U's last row
        e, f, at = e[found], f[found], at[found]
        hit[e] = hit[f] = hit[at] = True
        triangles += np.bincount(np.concatenate([key[e] // n, dst[e], dst[f]]), minlength=n)
        start = stop
    del first, before  # freed before the sdeg counts are made
    sizes = np.bincount(key[hit] // n, minlength=n) + np.bincount(dst[hit], minlength=n)
    g._counts = triangles[rank], sizes[rank]
    for counts in g._counts:
        counts.flags.writeable = False  # every later caller shares them
    return g._counts


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
    lf = _lf(text)
    start = 0
    while lf.startswith("#", start):  # a leading comment block, like a SNAP header
        start = lf.find("\n", start) + 1 or len(lf)
    pairs = _plain_pairs(lf[start:])
    if pairs is None:
        return _scan_edgelist(lf)
    labels, rows = np.unique(pairs, return_inverse=True)
    return Graph._of(labels.tolist(), _adjacency(len(labels), rows))


def _scan_edgelist(lf: str) -> Graph:
    """parse_edgelist one line at a time, on text whose line ends are all LF: any
    input, and the line of an error."""
    pairs: list[Tuple[NodeId, NodeId]] = []
    for lineno, raw in enumerate(lf.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        parts = body.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ParseError(f"expected 'u v', got {body.strip()!r}", lineno)
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"non-integer endpoint in {body.strip()!r}", lineno) from None
    return Graph(pairs)


# where str.splitlines ends a line, besides "\n" and "\r\n"
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _lf(text: str) -> str:
    """``text`` with every line end that str.splitlines knows as LF, so that line
    k of ``text`` is line k of the result."""
    if any(c in text for c in _LINE_BREAKS):
        for end in ("\r\n", *_LINE_BREAKS):  # CRLF first, as it ends one line
            text = text.replace(end, "\n")
    return text


# Maps digits to b"0" and tabs to spaces. A body that becomes only b"0", b" "
# and b"\n", with no run of 19 zeros, holds only unsigned int64 tokens that
# fromstring and int() read alike.
_DIGITS = bytes.maketrans(b"123456789\t", b"000000000 ")

# Bytes of a body that _plain_pairs checks at once: a slice runs to the first
# line end at or past this many bytes, or to the body's end.
_SLICE_BYTES = 1 << 17


def _plain_pairs(body: str) -> np.ndarray | None:
    """``body`` as an (m, 2) int64 array when every nonblank line of it is two
    unsigned decimal integers of at most 18 digits, and None for any other body."""
    if not body.isascii():
        return None
    tokens, start = 0, 0
    while start < len(body):
        stop = body.find("\n", start + _SLICE_BYTES - 1) + 1 or len(body)
        shape = body[start:stop].encode().translate(_DIGITS)
        if shape.translate(None, b"0 \n") or b"0" * 19 in shape:
            return None
        # one b"0" for the first digit of each token and one b"\n" for each line
        # end, so a line of two tokens leaves b"00"; the slice's first byte is
        # kept too, and is a b"0" only when it starts a token
        s = np.frombuffer(shape, np.uint8)
        digit = s == ord("0")
        mark = np.empty_like(digit)
        mark[:1] = True
        np.greater(digit[1:], digit[:-1], out=mark[1:])
        mark |= np.equal(s, ord("\n"), out=digit)
        marks = s[mark].tobytes()
        pairs = marks.count(b"00")
        if 2 * pairs != marks.count(b"0") or b"000" in marks:
            return None
        tokens, start = tokens + 2 * pairs, stop
    return np.fromstring(body, np.int64, tokens, sep=" ").reshape(-1, 2)


# Pajek section keyword -> what its body lines hold; *Network only names the file
_SECTIONS = {
    "*network": None, "*vertices": "vertex", "*edges": "pair", "*arcs": "pair",
    "*edgeslist": "list", "*arcslist": "list",
}

# Largest *Vertices count accepted: an isolated vertex costs 130 bytes of peak
# memory to read and 158 with the triangle pass, so this allows about 1.6 GB.
_MAX_VERTICES = 10**7


def parse_pajek(text: str) -> Graph:
    """Read a Pajek ``.net`` description into an undirected simple graph.

    Requires a ``*Vertices n`` header; accepts any number of ``*Edges`` /
    ``*Arcs`` (and ``*Edgeslist`` / ``*Arcslist``) sections. Section keywords
    are case-insensitive, ``%`` comment lines and blank lines are skipped, a
    leading ``*Network`` line is ignored. Arcs are merged undirected, edge
    weights are ignored, duplicates collapse, self-loops are dropped, and all
    n declared vertices are kept even when isolated. Vertex ids are the
    file's 1-based integers; ids outside 1..n, and n above ``_MAX_VERTICES``,
    raise :class:`ParseError`.
    """
    lf = _lf(text)
    heads = []  # (start, end) of each line whose first token starts with "*"
    at = lf.find("*")
    while at >= 0:
        start, end = lf.rfind("\n", 0, at) + 1, lf.find("\n", at) + 1 or len(lf)
        if not lf[start:at].strip():
            heads.append((start, end))
        at = lf.find("*", end)
    n, section, lineno, body, ends = None, None, 1, 0, []
    for start, end in [*heads, (len(lf), None)]:
        ends.append(_read_body(lf[body:start], section, n, lineno))
        if end is None:
            break
        lineno += lf.count("\n", body, start)
        raw = lf[start:end]
        parts = raw.split()
        key = parts[0].lower()
        if key not in _SECTIONS:
            raise ParseError(f"unsupported section {parts[0]!r}", lineno)
        if key == "*vertices":
            if n is not None:
                raise ParseError("duplicate *Vertices header", lineno)
            try:
                n = int(parts[1])
            except (IndexError, ValueError):
                raise ParseError(f"malformed header {raw.strip()!r}", lineno) from None
            if n < 0:
                raise ParseError("negative vertex count", lineno)
            if n > _MAX_VERTICES:
                raise ParseError(f"vertex count above the limit of {_MAX_VERTICES}", lineno)
        elif _SECTIONS[key] and n is None:
            raise ParseError(f"{parts[0]} before *Vertices", lineno)
        section, body, lineno = _SECTIONS[key] or section, end, lineno + 1
    if n is None:
        raise ParseError("missing *Vertices header", lf.count("\n") + (not lf.endswith("\n")))
    full = [piece for piece in ends if len(piece)]
    ends = full[0] if len(full) == 1 else np.concatenate(ends)  # no copy of a lone section
    ends -= 1  # label v is row v - 1
    csr = _adjacency(n, ends)  # built before the labels are made
    return Graph._of(list(range(1, n + 1)), csr)


def _read_body(body: str, section: str | None, n: int | None, lineno: int) -> np.ndarray:
    """The (u, v) rows of one section body, whose first line is line ``lineno``.
    An *Edges or *Arcs body is read whole if _plain_pairs reads it and its ids
    lie in 1..n, and a *Vertices body is checked whole if _plain_ids accepts it;
    _scan_body reads every other body."""
    if section == "vertex" and _plain_ids(body, n):
        return np.empty((0, 2), np.int64)
    pairs = _plain_pairs(body) if section == "pair" else None
    if pairs is None or pairs.size and (pairs.min() < 1 or pairs.max() > n):
        return _scan_body(body, section, n, lineno)
    return pairs


# One line start of a plain *Vertices body, with LF put before the body and
# after it: an id of 1-8 digits, with no leading 0, and a space, a tab or LF.
# re compiles it on first use, not at import.
_PLAIN_ID = r"\n([1-9][0-9]{0,7})(?=[ \t\n])"


def _plain_ids(body: str, n: int) -> bool:
    """Whether every line of a *Vertices ``body`` starts with an id of 1-8 digits,
    with no leading 0, that lies in 1..n and is followed by a space, a tab or LF:
    ids that _scan_body accepts and int() reads alike."""
    ids = re.findall(_PLAIN_ID, f"\n{body}\n")
    if len(ids) != body.count("\n") + (body[-1:] not in "\n"):  # a last line without LF counts too
        return False
    return not ids or bool(np.fromstring(" ".join(ids), np.int64, sep=" ").max() <= n)


def _scan_body(body: str, section: str | None, n: int | None, lineno: int) -> np.ndarray:
    """The (u, v) rows of one section body, whose first line is line ``lineno``,
    read one line at a time: any body, and the line of an error."""
    pairs: list[Tuple[NodeId, NodeId]] = []

    def check_id(token: str, lineno: int) -> int:
        try:
            vid = int(token)
        except ValueError:
            raise ParseError(f"non-numeric vertex id {token!r}", lineno) from None
        assert n is not None
        if not 1 <= vid <= n:
            raise ParseError(f"vertex id {vid} outside 1..{n}", lineno)
        return vid

    for lineno, raw in enumerate(body.split("\n"), start=lineno):
        parts = raw.split()
        if not parts or parts[0][0] == "%":
            continue
        if section == "vertex":
            check_id(parts[0], lineno)
        elif section == "pair":
            if len(parts) < 2:
                raise ParseError(f"expected 'u v [weight]', got {raw.strip()!r}", lineno)
            u, v = check_id(parts[0], lineno), check_id(parts[1], lineno)
            if len(parts) >= 3:
                try:
                    float(parts[2])  # weight: validated, then ignored
                except ValueError:
                    raise ParseError(f"non-numeric weight {parts[2]!r}", lineno) from None
            pairs.append((u, v))
        elif section == "list":
            u = check_id(parts[0], lineno)
            pairs.extend((u, check_id(token, lineno)) for token in parts[1:])
        else:
            raise ParseError(f"content before any section header: {raw.strip()!r}", lineno)
    return np.array(pairs, np.int64).reshape(-1, 2)


_READERS = {"pajek": parse_pajek, "edgelist": parse_edgelist}


def load_graph(path: str | Path, fmt: str = "auto") -> Graph:
    """Read a network file. ``fmt`` is ``pajek``, ``edgelist``, or ``auto``
    (``.net`` extension means Pajek, anything else a plain edge list)."""
    path = Path(path)
    if fmt == "auto":
        fmt = "pajek" if path.suffix.lower() == ".net" else "edgelist"
    if fmt not in _READERS:
        raise ValueError(f"unknown graph format {fmt!r}")
    return _READERS[fmt](path.read_text(encoding="utf-8-sig"))  # skips one leading byte-order mark
