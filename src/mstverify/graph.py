"""Weighted-graph data model, file formats, and spanning-tree validation.

Vertices are the integers 0..n-1. Edges keep their position in the input
edge list as a stable id, and all deterministic comparisons use the
(weight, id) total order so that duplicate weights never make a result
ambiguous. Graph, Edge and SpanningTree are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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

    def other(self, vertex: int) -> int:
        return self.v if vertex == self.u else self.u


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


class Graph:
    """Connected undirected graph with finite non-negative edge weights.

    Parallel edges are permitted in the edge list (each keeps its own id);
    self-loops are not. Connectivity is validated at construction time, so
    every Graph instance supports a spanning tree.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        if n < 1:
            raise ParseError(f"vertex count must be >= 1, got {n}")
        self.n = n
        built: list[Edge] = []
        for eid, (u, v, w) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge {eid}: endpoint out of range [0, {n - 1}]")
            if u == v:
                raise SelfLoopError(f"edge {eid}: self-loop at vertex {u}")
            if not (math.isfinite(w) and w >= 0.0):
                raise ParseError(f"edge {eid}: weight must be finite and >= 0, got {w!r}")
            if u > v:
                u, v = v, u
            built.append(Edge(eid, u, v, float(w)))
        self.edges: tuple[Edge, ...] = tuple(built)
        self.m = len(self.edges)

        pair_min: dict[tuple[int, int], Edge] = {}
        for e in self.edges:
            best = pair_min.get((e.u, e.v))
            if best is None or e.key < best.key:
                pair_min[(e.u, e.v)] = e
        self._pair_min = pair_min

        uf = UnionFind(n)
        for e in self.edges:
            uf.union(e.u, e.v)
        if uf.components != 1:
            raise DisconnectedError(f"graph has {uf.components} components, expected 1")

    def pair_min(self, a: int, b: int) -> Edge | None:
        """Minimum-(w, id) edge between a and b, or None for a non-edge pair."""
        if a > b:
            a, b = b, a
        return self._pair_min.get((a, b))

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
    to connect all vertices).
    """
    ids = tuple(int(i) for i in edge_ids)
    for i in ids:
        if not (0 <= i < g.m):
            raise NotInGraphError(f"edge index {i} out of range [0, {g.m - 1}]")
    if len(ids) != g.n - 1:
        raise NotSpanningError(f"expected {g.n - 1} edges, got {len(ids)}")
    uf = UnionFind(g.n)
    for i in ids:
        e = g.edges[i]
        if not uf.union(e.u, e.v):
            raise NotSpanningError(f"edge {i} ({e.u}, {e.v}) closes a cycle")
    # n-1 acyclic edges on n vertices are necessarily spanning
    return SpanningTree(ids)


def tree_weight(g: Graph, t: SpanningTree) -> float:
    """Total weight of the tree, from stored edge data (no oracle calls)."""
    return sum((g.edges[i].w for i in t.edge_ids), 0.0)


def _split_fields(text: str) -> list[tuple[int, list[str]]]:
    """Non-blank lines as (1-based line number, whitespace-split fields)."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields:
            out.append((lineno, fields))
    return out


def load_graph(text: str) -> Graph:
    """Parse the graph file format: a "n m" header, then m "u v w" lines."""
    lines = _split_fields(text)
    if not lines:
        raise ParseError("empty graph file")
    lineno, header = lines[0]
    if len(header) != 2:
        raise ParseError(f"line {lineno}: expected header 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: non-integer header field") from exc
    if n < 1 or m < 0:
        raise ParseError(f"line {lineno}: need n >= 1 and m >= 0, got n={n} m={m}")
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"header declares {m} edges but file has {len(body)}")
    if m < n - 1:
        # checked before Graph allocates per-vertex state, so a huge n costs nothing
        raise DisconnectedError(f"{m} edges cannot connect {n} vertices")
    edges: list[tuple[int, int, float]] = []
    for lineno, fields in body:
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 'u v w'")
        try:
            u, v = int(fields[0]), int(fields[1])
            w = float(fields[2])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: malformed edge") from exc
        edges.append((u, v, w))
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    """Canonical text form; load_graph(serialize_graph(g)) is a fixed point."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{e.u} {e.v} {e.w!r}" for e in g.edges)
    return "\n".join(lines) + "\n"


def load_tree(text: str, g: Graph) -> SpanningTree:
    """Parse a tree file against its graph.

    The header line is either "indices" (each following line one edge id)
    or "pairs" (each line "u v"; resolved to the minimum-(w, id) edge of
    that pair). Exactly n-1 data lines are required.
    """
    lines = _split_fields(text)
    if not lines:
        raise ParseError("empty tree file")
    lineno, header = lines[0]
    if len(header) != 1 or header[0] not in ("pairs", "indices"):
        raise ParseError(f"line {lineno}: expected header 'pairs' or 'indices'")
    fmt = header[0]
    body = lines[1:]
    if len(body) != g.n - 1:
        raise NotSpanningError(f"expected {g.n - 1} tree lines, got {len(body)}")
    ids: list[int] = []
    for lineno, fields in body:
        if fmt == "indices":
            if len(fields) != 1:
                raise ParseError(f"line {lineno}: expected one edge index")
            try:
                i = int(fields[0])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer index") from exc
            if not (0 <= i < g.m):
                raise NotInGraphError(f"line {lineno}: index {i} is not an edge of the graph")
            ids.append(i)
        else:
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected 'u v'")
            try:
                a, b = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer endpoint") from exc
            if not (0 <= a < g.n and 0 <= b < g.n):
                raise NotInGraphError(f"line {lineno}: vertex out of range")
            e = g.pair_min(a, b) if a != b else None
            if e is None:
                raise NotInGraphError(f"line {lineno}: ({a}, {b}) is not an edge of the graph")
            ids.append(e.id)
    return spanning_tree(g, ids)


def serialize_tree(g: Graph, t: SpanningTree, fmt: str = "indices") -> str:
    """Canonical tree file in the requested format."""
    if fmt == "indices":
        lines = ["indices"] + [str(i) for i in t.edge_ids]
    elif fmt == "pairs":
        lines = ["pairs"] + [f"{g.edges[i].u} {g.edges[i].v}" for i in t.edge_ids]
    else:
        raise ValueError(f"unknown tree format {fmt!r}")
    return "\n".join(lines) + "\n"
