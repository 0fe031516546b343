"""Boruvka tree construction and tree-path maximum queries.

Repeated Boruvka phases on a spanning tree T yield a full branching tree
whose leaves are the vertices: every phase, each current node selects its
minimum-(w, id) incident T-edge, and the connected components of the
selected edges become the nodes of the next level. The maximum branch
weight between two leaves equals the maximum edge weight on their T-path,
so after one O(n)-query build, path-max queries cost O(log n) and zero
oracle calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import Edge, Graph, SpanningTree, UnionFind, _read_only
from .oracle import InstrumentedOracle


class SameVertexError(ValueError):
    """A path query needs two distinct vertices."""


class BNode(NamedTuple):
    """One aggregate in the Boruvka tree, as read from the tree's arrays.

    branch_edge_id / branch_weight describe the tree edge this node
    selected when it merged into its parent; both are None for the root.
    """

    id: int
    level: int
    parent: int | None = None
    branch_edge_id: int | None = None
    branch_weight: float | None = None
    children: tuple[int, ...] = ()


@dataclass(frozen=True)
class PathMaxAnswer:
    """Heaviest-(w, id) edge on the tree path between two queried vertices."""

    max_weight: float
    max_edge_id: int
    ascent_steps: int


class BoruvkaTree:
    """Full branching tree over vertex aggregates; immutable after build.

    Node i < n is leaf (vertex) i; internal nodes follow in creation order,
    the root last. parent[i] is node i's parent (-1 at the root), and
    branch_w[i] / branch_id[i] the weight and id of the tree edge node i
    selected when it merged into its parent (-inf and -1 at the root).
    Every leaf sits at depth `height`, so all queries can climb together
    level by level. Path queries take vertices, the leaves 0..n-1.
    """

    def __init__(
        self, n: int, parent: list[int], branch_w: list[float], branch_id: list[int], height: int, build_work: int
    ):
        self.n = n
        self.root = len(parent) - 1
        self.height = height
        self.build_work = build_work
        # the scalar ascent indexes tuples, which is faster than indexing arrays
        self._up, self._bw, self._bid = tuple(parent), tuple(branch_w), tuple(branch_id)

    @cached_property
    def parent(self) -> np.ndarray:
        """Parent node id of every node, -1 at the root (read-only, made on first use)."""
        return _read_only(np.array(self._up, dtype=np.int64))

    @cached_property
    def branch_w(self) -> np.ndarray:
        """Weight of every node's branch edge, -inf at the root (read-only, made on first use)."""
        return _read_only(np.array(self._bw, dtype=np.float64))

    @cached_property
    def branch_id(self) -> np.ndarray:
        """Id of every node's branch edge, -1 at the root (read-only, made on first use)."""
        return _read_only(np.array(self._bid, dtype=np.int64))

    def path_max(self, u: int, v: int) -> PathMaxAnswer:
        """Maximum branch on the two synchronized ascents from u and v to their LCA.

        Equals the maximum-(w, id) edge of the T-path between u and v.
        O(height) work, no oracle queries.
        """
        if u == v:
            raise SameVertexError(f"path query needs distinct vertices, got {u} twice")
        for x in (u, v):
            if not (0 <= x < self.n):
                raise IndexError(f"vertex {x} out of range [0, {self.n - 1}]")
        up, bw, bid = self._up, self._bw, self._bid
        a, b = u, v
        best_w = -math.inf
        best_id = -1
        steps = 0
        while a != b:
            for x in (a, b):
                if (bw[x], bid[x]) > (best_w, best_id):
                    best_w, best_id = bw[x], bid[x]
            a = up[a]
            b = up[b]
            steps += 2
        return PathMaxAnswer(best_w, best_id, steps)

    def path_max_batch(self, us, vs) -> tuple[np.ndarray, np.ndarray]:
        """path_max for many vertex pairs at once: (max weights, max edge ids).

        All pairs climb together, one gather per level for `height` levels;
        a pair stops taking maxima once its two ascents meet at the LCA.
        Branches are compared by their rank in (w, id) order, so each level
        costs one integer maximum. No oracle queries.
        """
        a = np.asarray(us, dtype=np.int64)
        b = np.asarray(vs, dtype=np.int64)
        same = a == b
        if same.any():
            raise SameVertexError(f"path query needs distinct vertices, got {int(a[same.argmax()])} twice")
        outside = (a < 0) | (a >= self.n) | (b < 0) | (b >= self.n)
        if outside.any():
            k = int(outside.argmax())
            x = int(a[k]) if not (0 <= a[k] < self.n) else int(b[k])
            raise IndexError(f"vertex {x} out of range [0, {self.n - 1}]")
        by_rank = np.lexsort((self.branch_id, self.branch_w))
        rank = np.empty_like(by_rank)
        rank[by_rank] = np.arange(by_rank.size)
        best = np.full(a.shape, -1, dtype=np.int64)
        for _ in range(self.height):
            apart = a != b
            best = np.where(apart, np.maximum(best, np.maximum(rank[a], rank[b])), best)
            a, b = self.parent[a], self.parent[b]
        node = by_rank[best]
        return self.branch_w[node], self.branch_id[node]

    @cached_property
    def nodes(self) -> tuple[BNode, ...]:
        """The tree as one BNode per node id, derived from the arrays."""
        up = self._up
        children: list[list[int]] = [[] for _ in up]
        level = [0] * len(up)
        for i, p in enumerate(up[:-1]):  # children come before their parent
            children[p].append(i)
            level[p] = level[i] + 1
        nodes = list(map(BNode, range(len(up)), level, up, self._bid, self._bw, map(tuple, children)))
        nodes[self.root] = BNode(self.root, level[self.root], children=tuple(children[self.root]))
        return tuple(nodes)

    def dump(self) -> str:
        """Debug outline, one node per line: id level parent branch_weight branch_edge_id."""
        lines = []
        for node in self.nodes:
            parent = "-" if node.parent is None else str(node.parent)
            bw = "-" if node.branch_weight is None else repr(node.branch_weight)
            be = "-" if node.branch_edge_id is None else str(node.branch_edge_id)
            lines.append(f"{node.id} {node.level} {parent} {bw} {be}")
        return "\n".join(lines) + "\n"


def build_boruvka_tree(g: Graph, t: SpanningTree, oracle: InstrumentedOracle) -> BoruvkaTree:
    """Run Boruvka phases on T until one aggregate remains.

    Each tree edge's weight is fetched through the oracle exactly once and
    cached, so the classical counter advances by exactly n-1. Every phase
    at least halves the aggregate count, so the height is at most
    ceil(log2 n).
    """
    n = g.n
    ids = list(t.edge_ids)
    weights = [oracle.lookup_weight(i) for i in ids]
    # tree edges in (w, id) order, so the first edge an aggregate meets is its lightest
    order = sorted(range(len(ids)), key=lambda j: (weights[j], ids[j]))
    ids = [ids[j] for j in order]
    ew = [weights[j] for j in order]
    us, vs, _ = g.columns
    eu, ev = [us[i] for i in ids], [vs[i] for i in ids]

    parent = [-1] * n
    branch_w = [-math.inf] * n
    branch_id = [-1] * n
    comp = list(range(n))  # vertex -> current aggregate node id
    current = range(n)  # the aggregates of this level: always a contiguous id range
    active = list(range(len(ids)))  # tree edges joining two different aggregates, in (w, id) order
    level = 0
    work = 0

    while len(current) > 1:
        level += 1
        # each aggregate selects its minimum-(w, id) incident tree edge
        best: dict[int, int] = {}
        for j in active:
            best.setdefault(comp[eu[j]], j)
            best.setdefault(comp[ev[j]], j)
        work += 2 * len(active)
        # components of the selected edges become the next level's nodes,
        # numbered in order of their smallest member
        base = current.start
        uf = UnionFind(len(current))
        for j in best.values():
            uf.union(comp[eu[j]] - base, comp[ev[j]] - base)
        work += len(current)
        first = base + len(current)
        group: dict[int, int] = {}
        for node_id in current:
            j = best[node_id]
            parent[node_id] = group.setdefault(uf.find(node_id - base), first + len(group))
            branch_w[node_id] = ew[j]
            branch_id[node_id] = ids[j]
        parent += [-1] * len(group)
        branch_w += [-math.inf] * len(group)
        branch_id += [-1] * len(group)
        comp = [parent[c] for c in comp]
        current = range(first, first + len(group))
        active = [j for j in active if comp[eu[j]] != comp[ev[j]]]
        work += n + len(active)

    return BoruvkaTree(n, parent, branch_w, branch_id, height=level, build_work=work)


def validate_structure(b: BoruvkaTree, n: int) -> None:
    """Raise ValueError unless b is a full branching tree within the size bounds."""
    leaves = [node for node in b.nodes if not node.children]
    if len(leaves) != n or any(node.level != 0 for node in leaves):
        raise ValueError("leaves must be exactly the n vertices at level 0")
    if len(b.nodes) > 2 * n:
        raise ValueError(f"node count {len(b.nodes)} exceeds 2n = {2 * n}")
    for node in b.nodes:
        if node.children and len(node.children) < 2:
            raise ValueError(f"internal node {node.id} has fan-out {len(node.children)}")
        if node.id != b.root and node.parent is None:
            raise ValueError(f"non-root node {node.id} has no parent")
    # equal leaf depth: every leaf must reach the root in exactly `height` hops
    for leaf in leaves:
        depth = 0
        node = leaf
        while node.parent is not None:
            node = b.nodes[node.parent]
            depth += 1
        if node.id != b.root or depth != b.height:
            raise ValueError(f"leaf {leaf.id} at depth {depth}, expected height {b.height}")
    if n > 1 and b.height > math.ceil(math.log2(n)):
        raise ValueError(f"height {b.height} exceeds ceil(log2 {n})")
    if n == 1 and b.height != 0:
        raise ValueError("single-vertex tree must have height 0")


def tree_path_edges(g: Graph, t: SpanningTree, u: int, v: int) -> list[Edge]:
    """The unique T-path between u and v, as a list of edges. O(n), reads only tree edges."""
    if u == v:
        raise SameVertexError(f"path query needs distinct vertices, got {u} twice")
    us, vs, _ = g.columns
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]  # vertex -> (neighbor, edge id)
    for i in t.edge_ids:
        adjacency[us[i]].append((vs[i], i))
        adjacency[vs[i]].append((us[i], i))
    via: list[tuple[int, int] | None] = [None] * g.n  # vertex -> (previous vertex, edge id)
    stack = [u]
    seen = [False] * g.n
    seen[u] = True
    while stack:
        x = stack.pop()
        if x == v:
            break
        for y, i in adjacency[x]:
            if not seen[y]:
                seen[y] = True
                via[y] = (x, i)
                stack.append(y)
    path: list[Edge] = []
    x = v
    while x != u:
        x, i = via[x]
        path.append(g.edge(i))
    path.reverse()
    return path


def direct_path_max(g: Graph, t: SpanningTree, u: int, v: int) -> PathMaxAnswer:
    """Brute-force reference for path_max: walk the T-path, take the (w, id) max."""
    path = tree_path_edges(g, t, u, v)
    best = max(path, key=lambda e: e.key)
    return PathMaxAnswer(best.w, best.id, ascent_steps=len(path))
