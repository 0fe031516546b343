"""Weighted-graph data model, file formats, and spanning-tree validation.

Vertices are the integers 0..n-1. Edges keep their position in the input
edge list as a stable id, and all deterministic comparisons use the
(weight, id) total order so that duplicate weights never make a result
ambiguous. A Graph stores its edges as three read-only numpy columns u, v
and w indexed by edge id, and sorts them once into a fourth, order: the
edge ids in (w, id) order. The edge of id i is the row (u[i], v[i], w[i]);
the columns are the only copy of the edges. A SpanningTree is its edge
ids and a read-only bool mask over all edge ids, built once when the
tree is validated. Graph and SpanningTree are immutable, unpickled ones
too, and safe to share across threads. Input is walked edge by edge or
id by id only after a check of whole columns fails, to name its error.

The loaders accept exactly what int() and float() accept. A large file in
the layout serialize_graph writes is read by one np.loadtxt pass over its
bytes, behind a byte-level check of its layout: numpy reads every field it
accepts as int() or float() does, and a file with a field it rejects, or
any other file, is read line by line, which names the first bad line.
"""

from __future__ import annotations

import io
import math
import operator
from bisect import bisect_left
from collections.abc import Callable, Sequence, Sized
from dataclasses import dataclass, field
from itertools import compress
from numbers import Complex, Integral, Number, Real
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


class UnionFind:
    """Disjoint sets over the integers 0..size-1 (path halving + union by size)."""

    def __init__(self, size: int):
        self._parent = list(range(size))
        self._size = [1] * size
        self.components = size

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; return False if already joined.

        Both roots are found by path halving in line: two calls of a find
        method were most of a union's cost.
        """
        parent = self._parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]  # parent[a] is set before a is rebound
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return False
        size = self._size
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        self.components -= 1
        return True


def _read_only(a: np.ndarray) -> np.ndarray:
    """a made read-only, returned as a view: a view of a read-only base cannot be made writeable."""
    a.flags.writeable = False
    return a.view()


# Graphs with at most this many edges of Python numbers are checked by
# builtins, and graph and tree files of at most this many lines are read
# line by line: on a few edges that beats numpy, whose fixed cost per call
# dominates. Their weights are sorted by one stable argsort.
SMALL_GRAPH_EDGES = 32


def _is_real(x: object) -> bool:
    """Whether x is a real number: a numbers.Real, or a Number that is not Complex, as a Decimal is."""
    return isinstance(x, Real) or (isinstance(x, Number) and not isinstance(x, Complex))


def _finite(x) -> bool:
    """math.isfinite of a real x, False where x has no float value: 10**400 overflows one, Decimal("sNaN") signals."""
    try:
        return math.isfinite(x)
    except (OverflowError, ValueError):
        return False


def pair_index(n: int, a, b):
    """The index of pair a < b among the n(n-1)/2 vertex pairs in (a, b) order: ints or int64 arrays, 0 <= a < b < n."""
    return a * (2 * n - a - 1) // 2 + b - a - 1


def key_position(keys: memoryview, key: int) -> int:
    """The position of key in keys, a memoryview of increasing int64 keys, or -1 if key is not among them."""
    i = bisect_left(keys, key)
    return i if i < len(keys) and keys[i] == key else -1


def _edge_error(eid: int, u, v, w, n: int) -> GraphError | None:
    """Why edge eid is invalid, or None: the per-edge checks in their reporting order."""
    real = _is_real(u) and _is_real(v)
    try:
        in_range = real and 0 <= u < n and 0 <= v < n
    except ArithmeticError:  # a Decimal NaN signals when compared: it is no integer
        real = False
    if not real:
        return ParseError(f"edge {eid}: endpoints must be integers, got ({u!r}, {v!r})")
    if not in_range:
        return ParseError(f"edge {eid}: endpoint out of range [0, {n - 1}]")
    if u == v:
        return SelfLoopError(f"edge {eid}: self-loop at vertex {u}")
    if not (_is_real(w) and _finite(w) and w >= 0.0):
        return ParseError(f"edge {eid}: weight must be finite and >= 0, got {w!r}")
    if not (isinstance(u, Integral) and isinstance(v, Integral)):
        return ParseError(f"edge {eid}: endpoints must be integers, got ({u!r}, {v!r})")
    return None


def _weight_order(w: np.ndarray) -> np.ndarray:
    """The edge ids in (w, id) order, edge ids being the positions of the float64 array w.

    Up to SMALL_GRAPH_EDGES weights a stable argsort orders them, so
    equal weights (-0.0 equals 0.0) stay in id order. Above it numpy's
    default argsort sorts the weights. If any two are equal, only the
    tied positions are repaired: sorting the unique integer keys run
    number * m + id puts each run of equal weights in id order within its
    own slots, and the keys mod m are the ids. Neither of these two sorts
    needs to be stable, and on many edges the default kind is several
    times faster than a stable or multi-key sort.
    """
    m = w.size
    if m <= SMALL_GRAPH_EDGES:
        return np.argsort(w, kind="stable")
    order = np.argsort(w)
    by_w = w[order]
    tie = by_w[1:] == by_w[:-1]
    if not tie.any():
        return order
    # only a position whose weight equals a neighbour's can be out of id order
    tied = np.zeros(m, dtype=bool)
    tied[1:] = tie
    tied[:-1] |= tie
    at = np.flatnonzero(tied)
    w_at = by_w[at]
    run = np.concatenate(([0], np.cumsum(w_at[1:] != w_at[:-1])))  # runs of equal weights, numbered in order
    order[at] = np.sort(run * m + order[at]) % m
    return order


def _small_columns(n: int, us: Sequence, vs: Sequence, ws: Sequence) -> tuple[np.ndarray, ...] | None:
    """_edge_columns' result if the edges are valid rows of exact int, int and float, else None.

    The line parser's columns and Graph(n, edges)'s tuples of Python
    numbers are checked by builtins over whole columns, with no numpy
    call but the three that make the columns. Anything else (bool, numpy
    scalars, integer weights, or an edge that fails a check) gives None,
    and _edge_columns checks the edges and raises their error.
    """
    if {*map(type, us), *map(type, vs)} != {int} or set(map(type, ws)) != {float}:
        return None
    lo, hi = list(map(min, us, vs)), list(map(max, us, vs))
    if not (0 <= min(lo) and max(hi) < n and all(map(operator.ne, lo, hi)) and all(map(math.isfinite, ws))):
        return None
    return (np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64), np.array(ws)) if min(ws) >= 0.0 else None


def _edge_columns(n: int, us: Sequence, vs: Sequence, ws: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated int64 endpoint and float64 weight columns, u < v on every row.

    The edges are checked column by column. When a check fails, or a
    column does not hold one number of its kind per edge (integers for the
    endpoints; reals with a finite float value for the weights, so no
    string is parsed, and no sequence), they are walked one by one to
    raise the first invalid edge's error. Valid edges that numpy read as
    another kind are then made into columns from their Python values.
    """
    try:
        uv, w = np.asarray((us, vs)), np.asarray(ws)
    except ValueError:  # ragged: a sequence among numbers
        uv = w = np.zeros((0, 0))
    if w.dtype == object and all(_is_real(x) and _finite(x) for x in w.tolist()):  # Fraction or Decimal weights
        w = w.astype(np.float64)
    one_per_edge = uv.shape == (2, len(ws)) and w.shape == (len(ws),)  # a sequence in every row adds an axis
    if one_per_edge and (uv.size == 0 or uv.dtype.kind in "biu") and w.dtype.kind in "biuf":
        # uv is asarray's own stack of us and vs, so an int64 one is used as it is
        uv, w = uv.astype(np.int64, copy=False), w.astype(np.float64, copy=False)
        lo, hi = uv.min(axis=0), uv.max(axis=0)
        if ((lo >= 0) & (hi < n) & (lo != hi) & (w >= 0.0) & (w < math.inf)).all():
            return lo, hi, w
    # Python values, so that an error names a parsed array's values as the line-by-line parser's
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in (us, vs, ws)))
    for eid, (u, v, x) in enumerate(rows):
        error = _edge_error(eid, u, v, x, n)
        if error is not None:
            raise error
    # every edge is valid, yet numpy read a column as another kind: int64 with uint64 endpoints make float64
    uv = np.array([list(map(operator.index, us)), list(map(operator.index, vs))], dtype=np.int64)
    return uv.min(axis=0), uv.max(axis=0), np.array(list(map(float, ws)))


# Graphs with at most this many edges are checked for connectivity by a
# union-find in line, edge by edge; larger ones in array rounds, each of
# which costs about a dozen numpy calls however few edges there are.
# Measured on random connected graphs of n from 9 to 48 vertices, median
# over 30 graphs per band of the fastest of 5 x 100 calls, in us,
# union-find (with the tolist of the arrays) against array rounds (2-vCPU
# VM, Python 3.11, numpy 2.4): m in [64, 80) 9.7 against 15.7, [96, 112)
# 14.3 against 16.6, [112, 128) 16.3 against 17.7, [128, 144) 18.5 against
# 18.6, [144, 160) 20.6 against 18.8. Union-find was faster on 19 to 22 of
# 30 graphs in [112, 128), 14 to 15 in [128, 144) and 2 to 6 in [144, 160).
UNION_FIND_EDGES = 128


def _jump(root: np.ndarray) -> np.ndarray:
    """Full pointer jumping: root with each entry replaced by the fixed point of following root from it."""
    while True:
        up = root[root]
        if np.array_equal(up, root):
            return root
        root = up


def _component_count(n: int, u: np.ndarray, v: np.ndarray) -> int:
    """Connected components of the graph on 0..n-1 with edges zip(u, v), two int64 arrays.

    Up to UNION_FIND_EDGES edges a union-find joins them one by one, on
    Python lists. Above it: min-label hooking with full pointer jumping.
    Every round hooks each root onto its smallest adjacent root, so
    within two rounds every root is either hooked or gains a hooked
    neighbor, and O(log n) rounds of O(m) array work suffice. It is some
    9x faster than the union-find loop on large graphs (n=20000 m=80000:
    6.5 ms against 59 ms; n=8192 m=24576: 2.0 against 16.7 ms).
    """
    if u.size <= UNION_FIND_EDGES:
        # UnionFind.union in line, with path halving and no sizes, to spare a method call per edge
        parent = list(range(n))
        components = n
        for a, b in zip(u.tolist(), v.tolist()):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[b] = a
                components -= 1
        return components
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        hook = ru != rv
        if not hook.any():
            return int(np.count_nonzero(root == np.arange(n)))
        np.minimum.at(root, np.maximum(ru, rv)[hook], np.minimum(ru, rv)[hook])
        root = _jump(root)


class Graph:
    """Connected undirected graph with finite non-negative edge weights.

    Parallel edges are permitted in the edge list (each keeps its own id);
    self-loops are not. Connectivity is validated at construction time, so
    every Graph instance supports a spanning tree. The edge of id i is the
    row (u[i], v[i], w[i]) of three read-only numpy columns, with u[i] <
    v[i], which columns gives as memoryviews for code that reads edges
    one at a time; the read-only int64 column order lists the edge ids in
    (w, id) order.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        try:
            n = operator.index(n)
        except TypeError:
            raise ParseError(f"vertex count must be an integer, got {n!r}") from None
        try:
            rows = list(edges)
        except TypeError:
            raise ParseError(f"edges must be an iterable of (u, v, w) rows, got {edges!r}") from None
        try:
            columns = tuple(zip(*rows, strict=True)) if rows else ((), (), ())
        except (TypeError, ValueError):  # a row that is no sequence, or rows of different lengths
            columns = ()
        if len(columns) != 3:
            eid, row = next((eid, row) for eid, row in enumerate(rows) if not (isinstance(row, Sized) and len(row) == 3))
            got = f"{len(row)} values" if isinstance(row, Sized) else repr(row)
            raise ParseError(f"edge {eid}: expected (u, v, w), got {got}")
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
        columns = _small_columns(n, us, vs, ws) if len(us) <= SMALL_GRAPH_EDGES else None
        u, v, w = _edge_columns(n, us, vs, ws) if columns is None else columns
        self.n = n
        self.m = w.size
        self._pairs: tuple[np.ndarray, np.ndarray] | None = None
        components = _component_count(n, u, v)
        if components != 1:
            raise DisconnectedError(f"graph has {components} components, expected 1")
        self.order = _read_only(_weight_order(w))
        self.u, self.v, self.w = _read_only(u), _read_only(v), _read_only(w)

    @property
    def columns(self) -> tuple[memoryview, memoryview, memoryview]:
        """u, v and w as read-only memoryviews, for reads one edge at a time: no copy, and exact Python numbers."""
        return memoryview(self.u), memoryview(self.v), memoryview(self.w)

    def pair_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Built once, read-only int64: sorted pair_index keys of edge-joined pairs, each one's minimum-(w, id) edge id."""
        if self._pairs is None:
            o = self.order  # a pair's first edge in (w, id) order is its minimum: np.unique's first occurrence
            keys, first = np.unique(pair_index(self.n, self.u[o], self.v[o]), return_index=True)
            self._pairs = _read_only(keys), _read_only(o[first])
        return self._pairs

    def __getstate__(self) -> tuple:
        """n, m and the four columns, made read-only again by __setstate__; the pair columns are not kept."""
        return self.n, self.m, self.u, self.v, self.w, self.order

    def __setstate__(self, state: tuple) -> None:
        self.n, self.m, *columns = state
        self.u, self.v, self.w, self.order = map(_read_only, columns)
        self._pairs = None

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class SpanningTree:
    """n-1 edge ids of the parent graph forming a spanning tree, and their mask.

    edge_ids are Python ints in the order the tree was given. in_tree is a
    read-only bool array over the graph's edge ids, True at exactly
    edge_ids. Trees come only from spanning_tree() (which load_tree and the
    verify and generate functions call), which validates the
    spanning/acyclic invariant against the graph and builds the mask once.
    Equality and hashing read edge_ids alone.
    """

    edge_ids: tuple[int, ...]
    in_tree: np.ndarray = field(compare=False, repr=False)

    def __contains__(self, edge_id: object) -> bool:
        """Whether edge_id, an integer (bool and numpy integers included), is a tree edge; False for anything else."""
        try:
            i = operator.index(edge_id)  # a True index on a bool array would add an axis
        except TypeError:
            return False
        return 0 <= i < self.in_tree.size and bool(self.in_tree[i])

    def __len__(self) -> int:
        return len(self.edge_ids)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, in_tree=_read_only(state["in_tree"]))  # read-only, as spanning_tree() made it


def spanning_tree(g: Graph, edge_ids: Sequence[int]) -> SpanningTree:
    """Validate edge_ids as a spanning tree of g and wrap them.

    Raises NotInGraphError for unknown ids and NotSpanningError when the
    edge count is wrong or the edges contain a cycle (equivalently, fail
    to connect all vertices); an id that is not an integer raises
    TypeError, as operator.index does. The count, the range (by min and
    max) and the edges' component count are checked on all ids at once;
    only after one fails are the ids walked one by one, to raise the
    first error: a range error in id order, a wrong count, or a cycle.
    A 1-d int64 array, as load_tree's fast path gives, has its range
    checked by the array's own min() and max(); any other ids by the
    builtins over their tuple.
    """
    at = edge_ids if isinstance(edge_ids, np.ndarray) and edge_ids.dtype == np.int64 and edge_ids.ndim == 1 else None
    if at is None:
        ids = tuple(map(operator.index, edge_ids))
        lo, hi = min(ids, default=0), max(ids, default=-1)
    else:
        ids = tuple(at.tolist())
        lo, hi = (at.min(), at.max()) if at.size else (0, -1)  # min() of an empty array raises
    if len(ids) == g.n - 1 and 0 <= lo and hi < g.m:
        at = np.array(ids, dtype=np.int64) if at is None else at
        if _component_count(g.n, g.u[at], g.v[at]) == 1:
            # n-1 edges connecting n vertices are necessarily acyclic
            in_tree = np.zeros(g.m, dtype=bool)
            in_tree[at] = True
            return SpanningTree(ids, _read_only(in_tree))
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
    raise AssertionError("n-1 acyclic edges on n vertices span them")


def _check_tree_of(g: Graph, t: SpanningTree) -> None:
    """Raise NotSpanningError unless t's mask and edge count fit g: a tree of another graph would read g's ids."""
    if t.in_tree.size != g.m or len(t.edge_ids) != g.n - 1:
        raise NotSpanningError(f"tree of {len(t.edge_ids)} edges over {t.in_tree.size} edge ids is not one of {g!r}")


def tree_weight(g: Graph, t: SpanningTree) -> float:
    """Total weight of the tree, from stored edge data (no oracle calls); NotSpanningError for a tree of another graph."""
    _check_tree_of(g, t)
    return sum(map(g.columns[2].__getitem__, t.edge_ids), 0.0)


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


# ASCII digits, and the other characters a field may hold in the fast
# layout: those of a decimal or exponent float (no inf, nan, underscore or hex).
_DIGITS = b"0123456789"
_FLOAT_CHARS = b".eE+-"
# One row of a graph file's edge lines, as numpy reads them.
_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _fast_fields(text: str, head: int, k: int, rows: int) -> bytes | None:
    """text as ASCII bytes, ending in a newline, if its fields are in the fast layout, else None.

    The fast layout is a line of head fields (none if head is 0), then rows
    lines of k fields: fields of digits and _FLOAT_CHARS only, one space
    between fields, a newline after every line (optional after the last)
    and no other character. Only the layout is checked here: a field may
    be empty, "1e3" or "3.0" in an integer column, or beyond int64.
    np.loadtxt rejects each such field itself, and reads every field it
    accepts as int() or float() does. The check is one bytes copy and one
    compare, C speed on a large file and a few us on a small one.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"
    seps = data.translate(None, _DIGITS + _FLOAT_CHARS)
    first = b" " * (head - 1) + b"\n" if head else b""
    line = b" " * (k - 1) + b"\n"
    # compared by length first, so a huge row count allocates nothing
    if len(seps) != len(first) + len(line) * rows or seps != first + line * rows:
        return None
    return data


def _fast_rows(text: str, head: int, k: int, rows: int, dtype: np.dtype) -> np.ndarray | None:
    """The rows lines of text in _fast_fields' layout, read by np.loadtxt into dtype, else None.

    None also when numpy rejects a field. Each field numpy accepts has the
    value int() or float() gives it, so the caller's checks of the values
    are the line parser's.
    """
    data = _fast_fields(text, head, k, rows)
    if data is None:
        return None
    try:
        a = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=" ", comments=None, skiprows=1 if head else 0)
    except (ValueError, OverflowError):
        return None
    return a if a.shape == (rows,) else None


def _load_graph_fast(text: str) -> Graph | None:
    """load_graph for a graph file of more than SMALL_GRAPH_EDGES edges in the fast layout, else None.

    The edge lines are read by one np.loadtxt pass over the bytes, which
    makes no Python object per field and converts each weight with the
    routine float() uses, so the weights are float()'s bit for bit. None
    means the file needs the line-by-line parser, which raises its exact
    error.
    """
    end = text.find("\n")
    n_text, _, m_text = text[: max(end, 0)].partition(" ")
    if not (n_text.isascii() and n_text.isdigit() and m_text.isascii() and m_text.isdigit()):
        return None
    n, m = int(n_text), int(m_text)
    if not (SMALL_GRAPH_EDGES < m and 1 <= n <= m + 1):
        return None
    rows = _fast_rows(text, 2, 3, m, _EDGE_ROW)
    if rows is None:
        return None
    # a contiguous copy of w, so that no column keeps the row array alive
    return Graph._from_columns(n, rows["u"], rows["v"], rows["w"].copy())


def load_graph(text: str) -> Graph:
    """Parse the graph file format: a "n m" header, then m "u v w" lines.

    A file of more than SMALL_GRAPH_EDGES edges in the fast layout (one
    space between fields, one newline after each line) is read by numpy's
    loadtxt; any other file, or one with a field numpy rejects, is read
    line by line.
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
    return "\n".join([f"{g.n} {g.m}", *(f"{u} {v} {w!r}" for u, v, w in zip(*g.columns))]) + "\n"


def load_tree(text: str, g: Graph) -> SpanningTree:
    """Parse a tree file against its graph.

    The header line is either "indices" (each following line one edge id)
    or "pairs" (each line "u v"; resolved to the minimum-(w, id) edge of
    that pair). Exactly n-1 data lines are required. An "indices" file of
    more than SMALL_GRAPH_EDGES lines in the fast layout of load_graph is
    read by numpy's loadtxt and range-checked as one array; any other file,
    or one with an index out of range, is read line by line, which names
    the first bad line.
    """
    if text.startswith("indices\n") and g.n - 1 > SMALL_GRAPH_EDGES:
        ids = _fast_rows(text[len("indices\n") :], 0, 1, g.n - 1, np.dtype(np.int64))
        if ids is not None and 0 <= ids.min() and ids.max() < g.m:
            return spanning_tree(g, ids)
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

    keys, pair_ids = map(memoryview, g.pair_columns())
    ids = []  # each checked line's pair minimum; an error discards them

    def check_pair(lineno: int, a: int, b: int) -> None:
        if not (0 <= a < g.n and 0 <= b < g.n):
            raise NotInGraphError(f"line {lineno}: vertex out of range")
        at = key_position(keys, pair_index(g.n, min(a, b), max(a, b))) if a != b else -1  # (a, a) would alias another pair
        if at < 0:
            raise NotInGraphError(f"line {lineno}: ({a}, {b}) is not an edge of the graph")
        ids.append(pair_ids[at])

    _columns(linenos, counts, fields, (int, int), "expected 'u v'", "non-integer endpoint", check_pair)
    return spanning_tree(g, ids)


def serialize_tree(g: Graph, t: SpanningTree, fmt: str = "indices") -> str:
    """Canonical tree file in the requested format; NotSpanningError for a tree of another graph.

    load_tree reads a pairs line as its pair's minimum-(w, id) edge, so the
    pairs format raises ValueError at the first tree edge that is a heavier
    parallel edge, rather than write another tree.
    """
    _check_tree_of(g, t)
    if fmt == "indices":
        lines = ["indices"] + [str(i) for i in t.edge_ids]
    elif fmt == "pairs":
        at = np.array(t.edge_ids, dtype=np.int64)
        keys, ids = g.pair_columns()
        minimum = ids[keys.searchsorted(pair_index(g.n, g.u[at], g.v[at]))]  # every tree edge's pair is a key
        heavier = np.flatnonzero(minimum != at)
        us, vs, _ = g.columns
        if heavier.size:
            i, j = t.edge_ids[heavier[0]], int(minimum[heavier[0]])
            raise ValueError(
                f"tree edge {i} ({us[i]}, {vs[i]}) is not its pair's minimum-(w, id) edge {j}: a pairs file would load {j}"
            )
        lines = ["pairs"] + [f"{us[i]} {vs[i]}" for i in t.edge_ids]
    else:
        raise ValueError(f"unknown tree format {fmt!r}")
    return "\n".join(lines) + "\n"
