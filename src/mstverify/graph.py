"""Weighted-graph data model, file formats, and spanning-tree validation.

Vertices are the integers 0..n-1. Edges keep their position in the input
edge list as a stable id, and all deterministic comparisons use the
(weight, id) total order so that duplicate weights never make a result
ambiguous. A Graph stores its edges as three read-only numpy columns u, v
and w indexed by edge id; an Edge object is built only when a caller asks
for one, and is then cached per id. Graph, Edge and SpanningTree are
immutable after construction and safe to share across threads.

The loaders accept exactly what int() and float() accept. A large file in
the layout serialize_graph writes is cast to columns by numpy behind a
guard that makes the two agree; any other file is read line by line,
which names the first bad line.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from itertools import compress
from numbers import Integral
from types import MappingProxyType
from typing import Iterable

import numpy as np

INFINITE_WEIGHT = math.inf


class GraphError(ValueError):
    """Base class for invalid graph or tree input."""


class ParseError(GraphError):
    """Malformed graph or tree file."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DisconnectedError(GraphError):
    """The graph does not connect all its vertices."""


class NotInGraphError(GraphError):
    """A tree refers to a pair or index that is not an edge of the graph."""


class NotSpanningError(GraphError):
    """The candidate edge set is not a spanning tree."""


@dataclass(frozen=True)
class Edge:
    """Undirected weighted edge, normalized so that u < v."""

    id: int
    u: int
    v: int
    w: float

    @property
    def key(self) -> tuple[float, int]:
        """Deterministic total order: weight first, id breaks ties."""
        return (self.w, self.id)


class UnionFind:
    """Disjoint sets over the integers 0..size-1 (path halving + union by size)."""

    def __init__(self, size: int):
        self._parent = list(range(size))
        self._size = [1] * size
        self.components = size

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; return False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self.components -= 1
        return True


def _read_only(a: np.ndarray) -> np.ndarray:
    """a made read-only, returned as a view: a view of a read-only base cannot be made writeable."""
    a.flags.writeable = False
    return a.view()


def _edge_error(eid: int, u, v, w, n: int) -> GraphError | None:
    """Why edge eid is invalid, or None: the per-edge checks in their reporting order."""
    if not (0 <= u < n and 0 <= v < n):
        return ParseError(f"edge {eid}: endpoint out of range [0, {n - 1}]")
    if u == v:
        return SelfLoopError(f"edge {eid}: self-loop at vertex {u}")
    if not (math.isfinite(w) and w >= 0.0):
        return ParseError(f"edge {eid}: weight must be finite and >= 0, got {w!r}")
    if not (isinstance(u, Integral) and isinstance(v, Integral)):
        return ParseError(f"edge {eid}: endpoints must be integers, got ({u!r}, {v!r})")
    return None


# Graphs with at most this many edges are checked for connectivity (and,
# in verify, tested for violations) edge by edge in Python: on a few edges
# that beats numpy, whose fixed cost per call dominates (a 5-edge graph's
# connectivity costs about 3 us with a union-find against 14 us in array
# rounds; the batched violation test costs about 37 us at any small size,
# the edge-by-edge one 18 us at 8 edges and 49 us at 32).
SMALL_GRAPH_EDGES = 32


def _edge_columns(n: int, us: Sequence, vs: Sequence, ws: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated int64 endpoint and float64 weight columns, u < v on every row.

    The edges are checked column by column. When a check fails (or an
    endpoint column is not integer-typed) they are walked one by one to
    raise the first invalid edge's error.
    """
    uv = np.asarray((us, vs))
    w = np.asarray(ws, dtype=np.float64)
    if uv.size == 0 or uv.dtype.kind in "biu":
        uv = uv.astype(np.int64)
        lo, hi = uv.min(axis=0), uv.max(axis=0)
        if ((lo >= 0) & (hi < n) & (lo != hi) & (w >= 0.0) & (w < math.inf)).all():
            return lo, hi, w
    # Python values, so that an error names a parsed array's values as the line-by-line parser's
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in (us, vs, ws)))
    for eid, (u, v, x) in enumerate(rows):
        error = _edge_error(eid, u, v, x, n)
        if error is not None:
            raise error
    raise ParseError("edge endpoints must be integers")


def _component_count(n: int, u: np.ndarray, v: np.ndarray) -> int:
    """Connected components of the graph on 0..n-1 with edges zip(u, v).

    Above SMALL_GRAPH_EDGES: min-label hooking with full pointer jumping.
    Every round hooks each root onto its smallest adjacent root, so within
    two rounds every root is either hooked or gains a hooked neighbor, and
    O(log n) rounds of O(m) array work suffice. It is some 9x faster than
    the union-find loop on large graphs (n=20000 m=80000: 6.5 ms against
    59 ms; n=8192 m=24576: 2.0 against 16.7 ms).
    """
    if u.size <= SMALL_GRAPH_EDGES:
        uf = UnionFind(n)
        for a, b in zip(u.tolist(), v.tolist()):
            uf.union(a, b)
        return uf.components
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        hook = ru != rv
        if not hook.any():
            return int(np.count_nonzero(root == np.arange(n)))
        np.minimum.at(root, np.maximum(ru, rv)[hook], np.minimum(ru, rv)[hook])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


class Graph:
    """Connected undirected graph with finite non-negative edge weights.

    Parallel edges are permitted in the edge list (each keeps its own id);
    self-loops are not. Connectivity is validated at construction time, so
    every Graph instance supports a spanning tree. Edge i is the row
    (u[i], v[i], w[i]) of three read-only numpy columns, with u[i] < v[i].
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        rows = list(edges)
        columns = zip(*rows, strict=True) if rows else ((), (), ())
        self._init(n, *columns)

    @classmethod
    def _from_columns(cls, n: int, us: Sequence, vs: Sequence, ws: Sequence) -> Graph:
        g = cls.__new__(cls)
        g._init(n, us, vs, ws)
        return g

    def _init(self, n: int, us: Sequence, vs: Sequence, ws: Sequence) -> None:
        if n < 1:
            raise ParseError(f"vertex count must be >= 1, got {n}")
        if len(us) < n - 1:
            # before any per-vertex allocation, so a huge n costs nothing
            raise DisconnectedError(f"{len(us)} edges cannot connect {n} vertices")
        u, v, w = _edge_columns(n, us, vs, ws)
        self.n = n
        self.m = len(w)
        self.u, self.v, self.w = _read_only(u), _read_only(v), _read_only(w)
        self._columns: tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]] | None = None
        self._edge_cache: dict[int, Edge] = {}
        self._edges: tuple[Edge, ...] | None = None
        self._pair_min: Mapping[tuple[int, int], int] | None = None
        components = _component_count(n, u, v)
        if components != 1:
            raise DisconnectedError(f"graph has {components} components, expected 1")

    @property
    def columns(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
        """u, v and w as Python tuples, made on first use.

        For code that reads edges one at a time: indexing a tuple is several
        times faster than reading a numpy scalar.
        """
        if self._columns is None:
            self._columns = (tuple(self.u.tolist()), tuple(self.v.tolist()), tuple(self.w.tolist()))
        return self._columns

    def edge(self, i: int) -> Edge:
        """Edge i as an object, built on first request; later calls return the same object."""
        e = self._edge_cache.get(i)
        if e is None:
            if not (0 <= i < self.m):
                raise IndexError(f"edge id {i} out of range [0, {self.m - 1}]")
            us, vs, ws = self.columns
            e = self._edge_cache.setdefault(i, Edge(int(i), us[i], vs[i], ws[i]))
        return e

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge as an object, in id order; built on first access from edge()."""
        if self._edges is None:
            self._edges = tuple(map(self.edge, range(self.m)))
        return self._edges

    def pair_min_ids(self) -> Mapping[tuple[int, int], int]:
        """Read-only map (a, b) -> id of the minimum-(w, id) edge joining a < b; built on first use."""
        if self._pair_min is None:
            us, vs, ws = self.columns
            # descending (w, id) order, so the lightest edge of a pair is written last
            order = sorted(range(self.m), key=ws.__getitem__)[::-1]
            self._pair_min = MappingProxyType({(us[i], vs[i]): i for i in order})
        return self._pair_min

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class SpanningTree:
    """n-1 edge ids of the parent graph forming a spanning tree.

    Construct through spanning_tree() or load_tree(), which validate the
    spanning/acyclic invariant against the graph.
    """

    edge_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_id_set", frozenset(self.edge_ids))

    def __contains__(self, edge_id: int) -> bool:
        return edge_id in self._id_set  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.edge_ids)


def spanning_tree(g: Graph, edge_ids: Sequence[int]) -> SpanningTree:
    """Validate edge_ids as a spanning tree of g and wrap them.

    Raises NotInGraphError for unknown ids and NotSpanningError when the
    edge count is wrong or the edges contain a cycle (equivalently, fail
    to connect all vertices). Above SMALL_GRAPH_EDGES ids the checks run
    on whole arrays, and the ids are walked one by one only after one
    fails, to raise the first error.
    """
    ids = tuple(map(int, edge_ids))
    if len(ids) > SMALL_GRAPH_EDGES and 0 <= min(ids) and max(ids) < g.m and len(ids) == g.n - 1:
        at = np.array(ids, dtype=np.int64)
        if _component_count(g.n, g.u[at], g.v[at]) == 1:
            # n-1 edges connecting n vertices are necessarily acyclic
            return SpanningTree(ids)
    for i in ids:
        if not (0 <= i < g.m):
            raise NotInGraphError(f"edge index {i} out of range [0, {g.m - 1}]")
    if len(ids) != g.n - 1:
        raise NotSpanningError(f"expected {g.n - 1} edges, got {len(ids)}")
    uf = UnionFind(g.n)
    us, vs, _ = g.columns
    for i in ids:
        if not uf.union(us[i], vs[i]):
            raise NotSpanningError(f"edge {i} ({us[i]}, {vs[i]}) closes a cycle")
    # n-1 acyclic edges on n vertices are necessarily spanning
    return SpanningTree(ids)


def non_tree_mask(g: Graph, t: SpanningTree) -> np.ndarray:
    """Boolean mask over edge ids, True for the edges outside t."""
    mask = np.ones(g.m, dtype=bool)
    mask[list(t.edge_ids)] = False
    return mask


def tree_weight(g: Graph, t: SpanningTree) -> float:
    """Total weight of the tree, from stored edge data (no oracle calls)."""
    ws = g.columns[2]
    return sum((ws[i] for i in t.edge_ids), 0.0)


def _fields(text: str) -> tuple[list[int], list[int], list[str]]:
    """The 1-based numbers and field counts of text's non-blank lines, and all its fields in order.

    No per-line lists are kept (each line's split is dropped once counted),
    so a large file does not set off the cyclic garbage collector: a
    20000-vertex 80000-edge graph file loads in about half the time a
    parser holding every line's fields takes (best of 11: 112 against
    203 ms). text.split() yields the lines' fields in order, every line
    boundary being whitespace.
    """
    counts = list(map(len, map(str.split, text.splitlines())))
    linenos = list(compress(range(1, len(counts) + 1), counts))
    return linenos, list(filter(None, counts)), text.split()


def _columns(
    linenos: list[int],
    counts: list[int],
    fields: list[str],
    types: tuple[Callable[[str], object], ...],
    shape: str,
    malformed: str,
    check: Callable[..., None] | None = None,
) -> list[list]:
    """The data lines' fields as columns, converted by types (one per field).

    linenos, counts and fields describe the data lines as _fields does.
    check(lineno, *row), if given, raises the error of a converted row.
    Well-formed lines are converted column by column; otherwise the lines
    are walked in order, so the error raised is always the first bad
    line's: "line <k>: <shape>" for a wrong field count, "line <k>:
    <malformed>" for a field its type rejects, or check's.
    """
    k = len(types)
    if counts.count(k) == len(counts):
        try:
            columns = [list(map(t, fields[j::k])) for j, t in enumerate(types)]
        except ValueError:
            pass
        else:
            if check is not None:
                for row in zip(linenos, *columns):
                    check(*row)
            return columns
    start = 0  # every line before the first bad one has k fields
    for lineno, count in zip(linenos, counts):
        if count != k:
            raise ParseError(f"line {lineno}: {shape}")
        try:
            row = [t(x) for t, x in zip(types, fields[start : start + k])]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {malformed}") from exc
        if check is not None:
            check(lineno, *row)
        start += k
    raise AssertionError("a conversion failed on no line")


# The characters a field may hold in the fast layout: ASCII digits and
# those of a decimal or exponent float (no inf, nan, underscore or hex).
_NUMBER_CHARS = b"0123456789.eE+-"
# Any decimal of at most this many digits is below 2**63.
_INT64_DIGITS = 18


def _fast_fields(text: str, head: int, k: int, rows: int) -> list[str] | None:
    """text's fields if it is in the fast layout, else None.

    The fast layout is a line of head fields (none if head is 0), then rows
    lines of k fields: fields of _NUMBER_CHARS only, one space between
    fields, a newline after every line (optional after the last) and no
    other character. Deleting the number characters must leave exactly
    that pattern of separators, and split() must then give a full line of
    fields per pattern line, so that no field is empty. Both run at C speed
    over the text, about a sixth of the cost of splitting every line (4
    against 26 ms on a 20000-vertex 80000-edge graph file).
    """
    if not text.isascii():
        return None
    first = b" " * (head - 1) + b"\n" if head else b""
    line = b" " * (k - 1) + b"\n"
    seps = text.encode("ascii").translate(None, _NUMBER_CHARS)
    if not seps.endswith(b"\n"):
        seps += b"\n"
    # compared by length first, so a huge row count allocates nothing
    if len(seps) != len(first) + len(line) * rows or seps != first + line * rows:
        return None
    fields = text.split()
    return fields if len(fields) == head + k * rows else None


def _int64_column(fields: list[str]) -> np.ndarray | None:
    """fields as an int64 array if each is 1 to _INT64_DIGITS ASCII digits, else None.

    On such fields numpy's cast and int() agree: every value fits in int64.
    """
    digits = "".join(fields)
    if not (digits.isascii() and digits.isdigit()) or max(map(len, fields)) > _INT64_DIGITS:
        return None
    try:
        return np.array(fields, dtype=np.int64)
    except (ValueError, OverflowError):
        return None


def _load_graph_fast(text: str) -> Graph | None:
    """load_graph for a graph file of more than SMALL_GRAPH_EDGES edges in the fast layout, else None.

    The columns are cast by numpy, never listed in Python. None means the
    file needs the line-by-line parser, which raises its exact error.
    """
    end = text.find("\n")
    n_text, _, m_text = text[: max(end, 0)].partition(" ")
    if not (n_text.isascii() and n_text.isdigit() and m_text.isascii() and m_text.isdigit()):
        return None
    n, m = int(n_text), int(m_text)
    if not (SMALL_GRAPH_EDGES < m and 1 <= n <= m + 1):
        return None
    fields = _fast_fields(text, 2, 3, m)
    if fields is None:
        return None
    us, vs = _int64_column(fields[2::3]), _int64_column(fields[3::3])
    if us is None or vs is None:
        return None
    try:
        # numpy casts each str through float(), so the weights are float()'s bit for bit
        ws = np.array(fields[4::3], dtype=np.float64)
    except ValueError:
        return None
    return Graph._from_columns(n, us, vs, ws)


def load_graph(text: str) -> Graph:
    """Parse the graph file format: a "n m" header, then m "u v w" lines.

    A file of more than SMALL_GRAPH_EDGES edges in the fast layout (one
    space between fields, one newline after each line, digit endpoints)
    is cast to columns by numpy; any other file is read line by line.
    Both accept exactly what int() and float() accept, with the same
    errors.
    """
    g = _load_graph_fast(text)
    if g is not None:
        return g
    linenos, counts, fields = _fields(text)
    if not linenos:
        raise ParseError("empty graph file")
    if counts[0] != 2:
        raise ParseError(f"line {linenos[0]}: expected header 'n m'")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise ParseError(f"line {linenos[0]}: non-integer header field") from exc
    if n < 1 or m < 0:
        raise ParseError(f"line {linenos[0]}: need n >= 1 and m >= 0, got n={n} m={m}")
    if len(linenos) - 1 != m:
        raise ParseError(f"header declares {m} edges but file has {len(linenos) - 1}")
    if m < n - 1:
        # checked before Graph allocates per-vertex state, so a huge n costs nothing
        raise DisconnectedError(f"{m} edges cannot connect {n} vertices")
    del linenos[0], counts[0], fields[:2]  # the header
    us, vs, ws = _columns(linenos, counts, fields, (int, int, float), "expected 'u v w'", "malformed edge")
    return Graph._from_columns(n, us, vs, ws)


def serialize_graph(g: Graph) -> str:
    """Canonical text form; load_graph(serialize_graph(g)) is a fixed point."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v} {w!r}" for u, v, w in zip(*g.columns))
    return "\n".join(lines) + "\n"


def load_tree(text: str, g: Graph) -> SpanningTree:
    """Parse a tree file against its graph.

    The header line is either "indices" (each following line one edge id)
    or "pairs" (each line "u v"; resolved to the minimum-(w, id) edge of
    that pair). Exactly n-1 data lines are required. An "indices" file of
    more than SMALL_GRAPH_EDGES lines in the fast layout of load_graph is
    cast and range-checked as one array; any other file is read line by
    line, which names the first bad line.
    """
    if text.startswith("indices\n") and g.n - 1 > SMALL_GRAPH_EDGES:
        fields = _fast_fields(text[len("indices\n") :], 0, 1, g.n - 1)
        ids = None if fields is None else _int64_column(fields)
        # digits only, so no index is negative
        if ids is not None and (ids < g.m).all():
            return spanning_tree(g, ids.tolist())
    linenos, counts, fields = _fields(text)
    if not linenos:
        raise ParseError("empty tree file")
    if counts[0] != 1 or fields[0] not in ("pairs", "indices"):
        raise ParseError(f"line {linenos[0]}: expected header 'pairs' or 'indices'")
    if len(linenos) - 1 != g.n - 1:
        raise NotSpanningError(f"expected {g.n - 1} tree lines, got {len(linenos) - 1}")
    indices = fields[0] == "indices"
    del linenos[0], counts[0], fields[0]  # the header
    if indices:

        def check_index(lineno: int, i: int) -> None:
            if not (0 <= i < g.m):
                raise NotInGraphError(f"line {lineno}: index {i} is not an edge of the graph")

        (ids,) = _columns(linenos, counts, fields, (int,), "expected one edge index", "non-integer index", check_index)
        return spanning_tree(g, ids)

    pair_min = g.pair_min_ids()

    def check_pair(lineno: int, a: int, b: int) -> None:
        if not (0 <= a < g.n and 0 <= b < g.n):
            raise NotInGraphError(f"line {lineno}: vertex out of range")
        if ((a, b) if a < b else (b, a)) not in pair_min:
            raise NotInGraphError(f"line {lineno}: ({a}, {b}) is not an edge of the graph")

    a_s, b_s = _columns(linenos, counts, fields, (int, int), "expected 'u v'", "non-integer endpoint", check_pair)
    return spanning_tree(g, [pair_min[(a, b) if a < b else (b, a)] for a, b in zip(a_s, b_s)])


def serialize_tree(g: Graph, t: SpanningTree, fmt: str = "indices") -> str:
    """Canonical tree file in the requested format."""
    if fmt == "indices":
        lines = ["indices"] + [str(i) for i in t.edge_ids]
    elif fmt == "pairs":
        us, vs, _ = g.columns
        lines = ["pairs"] + [f"{us[i]} {vs[i]}" for i in t.edge_ids]
    else:
        raise ValueError(f"unknown tree format {fmt!r}")
    return "\n".join(lines) + "\n"
