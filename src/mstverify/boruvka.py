"""Boruvka tree construction and tree-path maximum queries.

Repeated Boruvka phases on a spanning tree T yield a full branching tree
whose leaves are the vertices: every phase, each current node selects its
minimum-(w, id) incident T-edge, and the connected components of the
selected edges become the nodes of the next level. The maximum branch
weight between two leaves equals the maximum edge weight on their T-path,
so after one O(n)-query build, path-max queries cost O(log n) and zero
oracle calls. Trees above SMALL_TREE_VERTICES run the phases on arrays:
a minimum per aggregate over the active edges, pointer jumping over the
selected edges, and a cumulative sum to number the groups; smaller trees
run them as Python loops, where numpy's per-call cost would dominate.
tree_path_edges, which certification uses, roots T at one endpoint the
same way: on arrays (an Euler tour ranked by pointer jumping) above
SMALL_TREE_VERTICES, by a Python search below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Edge, Graph, SpanningTree, UnionFind, _read_only
from .oracle import InstrumentedOracle


class SameVertexError(ValueError):
    """A path query needs two distinct vertices."""


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

    def __init__(self, n: int, parent, branch_w, branch_id, height: int, build_work: int):
        """parent, branch_w and branch_id come as lists (Python phases) or arrays (array phases).

        The arrays and the tuples the scalar ascent reads are each made from
        them on first use.
        """
        self.n = n
        self.root = len(parent) - 1
        self.height = height
        self.build_work = build_work
        self._given = (parent, branch_w, branch_id)

    @cached_property
    def parent(self) -> np.ndarray:
        """Parent node id of every node, -1 at the root (read-only)."""
        return _read_only(np.asarray(self._given[0], dtype=np.int64))

    @cached_property
    def branch_w(self) -> np.ndarray:
        """Weight of every node's branch edge, -inf at the root (read-only)."""
        return _read_only(np.asarray(self._given[1], dtype=np.float64))

    @cached_property
    def branch_id(self) -> np.ndarray:
        """Id of every node's branch edge, -1 at the root (read-only)."""
        return _read_only(np.asarray(self._given[2], dtype=np.int64))

    @cached_property
    def _tuples(self) -> tuple[tuple, tuple, tuple]:
        """parent, branch_w and branch_id as tuples: the scalar ascent indexes tuples, faster than arrays."""
        return tuple(tuple(x.tolist() if isinstance(x, np.ndarray) else x) for x in self._given)

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
        up, bw, bid = self._tuples
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


# Trees on at most this many vertices run the Boruvka phases as Python
# loops, larger ones on arrays: an array phase costs some 25 numpy calls
# however few aggregates it has, more than a whole Python build of a small
# tree. Measured from the same (w, id)-sorted edges (median of 40 random
# trees, 10 builds each): n=32 99 us Python against 206 us arrays, n=96
# 260 against 297 us, n=128 318 against 277 us, n=200 561 against 387 us;
# n=20000 172 ms against 9 ms.
SMALL_TREE_VERTICES = 100


def build_boruvka_tree(g: Graph, t: SpanningTree, oracle: InstrumentedOracle) -> BoruvkaTree:
    """Run Boruvka phases on T until one aggregate remains.

    Each tree edge's weight is fetched through the oracle exactly once and
    cached, so the classical counter advances by exactly n-1. Every phase
    at least halves the aggregate count, so the height is at most
    ceil(log2 n). Trees above SMALL_TREE_VERTICES run the phases on
    arrays, smaller ones as Python loops; both give the same tree.
    """
    ids = list(t.edge_ids)
    weights = list(map(oracle.lookup_weight, ids))
    phases = _python_phases if g.n <= SMALL_TREE_VERTICES else _array_phases
    return phases(g, ids, weights)


def _python_phases(g: Graph, ids: list[int], weights: list[float]) -> BoruvkaTree:
    """The Boruvka phases over the tree edges ids (weights[j] is edge ids[j]'s weight) as Python loops."""
    n = g.n
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


def _array_phases(g: Graph, ids: list[int], weights: list[float]) -> BoruvkaTree:
    """The Boruvka phases of _python_phases on arrays, with the same result and build_work.

    The active edges' endpoints are kept as aggregate numbers 0..k-1 of
    the current level, whose node ids are base..base+k-1. A phase picks
    each aggregate's first active edge in (w, id) order; the picked edges,
    one out of each aggregate, form a functional graph whose only cycles
    are mutual pairs (two aggregates picking the same edge), so rooting
    each pair at its smaller end and pointer jumping finds the components.
    """
    n = g.n
    eid = np.asarray(ids, dtype=np.int64)
    ew = np.asarray(weights, dtype=np.float64)
    order = np.lexsort((eid, ew))
    eid, ew = eid[order], ew[order]
    au, av = g.u[eid], g.v[eid]  # vertices are the level-0 aggregates
    parent, branch_w, branch_id = [], [], []
    k = n
    base = level = work = 0
    while k > 1:
        level += 1
        work += 2 * eid.size + k
        me = np.arange(k)
        # active edges stay in (w, id) order, so the lowest position is the lightest edge
        best = np.full(k, eid.size)
        at = np.arange(eid.size)
        np.minimum.at(best, au, at)
        np.minimum.at(best, av, at)
        to = au[best] + av[best] - me  # the picked edge's other end
        root = np.where((to[to] == me) & (me < to), me, to)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        # number the components in order of their smallest member
        smallest = np.full(k, k)
        np.minimum.at(smallest, root, me)
        leader = smallest[root]
        number = np.cumsum(leader == me) - 1
        group = number[leader]
        parent.append(group + (base + k))
        branch_w.append(ew[best])
        branch_id.append(eid[best])
        assert 2 * (number[-1] + 1) <= k, "every group has at least two members"
        base += k
        k = int(number[-1]) + 1
        au, av = group[au], group[av]
        keep = au != av
        au, av, eid, ew = au[keep], av[keep], eid[keep], ew[keep]
        work += n + eid.size
    parent.append(np.array([-1]))
    branch_w.append(np.array([-math.inf]))
    branch_id.append(np.array([-1]))
    return BoruvkaTree(
        n,
        np.concatenate(parent),
        np.concatenate(branch_w),
        np.concatenate(branch_id),
        height=level,
        build_work=work,
    )


def tree_path_edges(g: Graph, t: SpanningTree, u: int, v: int) -> list[Edge]:
    """The unique T-path between u and v, as a list of edges in u -> v order. Reads only tree edges.

    T is rooted at u, then v's parent edges are followed up to u. A tree
    on more than SMALL_TREE_VERTICES vertices is rooted on arrays in
    O(n log n) work whatever its shape (_tour_parents); a smaller one by a
    Python search from u that stops at v, where numpy's per-call cost
    would dominate.
    """
    if u == v:
        raise SameVertexError(f"path query needs distinct vertices, got {u} twice")
    parent, via = _search_parents(g, t, u, v) if g.n <= SMALL_TREE_VERTICES else _tour_parents(g, t, u)
    path: list[int] = []
    x = v
    while x != u:
        path.append(via[x])
        x = parent[x]
    path.reverse()
    return list(map(g.edge, path))


def _search_parents(g: Graph, t: SpanningTree, u: int, v: int) -> tuple[list[int], list[int]]:
    """Parent vertex and parent edge id of each vertex of T rooted at u, found by a depth-first search.

    The search stops at v, so only the vertices on v's way up to u are sure to be set.
    """
    us, vs, _ = g.columns
    adjacency: list[list[int]] = [[] for _ in range(g.n)]  # vertex -> ids of its tree edges
    for i in t.edge_ids:
        adjacency[us[i]].append(i)
        adjacency[vs[i]].append(i)
    parent = [-1] * g.n
    via = [-1] * g.n
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            break
        for i in adjacency[x]:
            if i != via[x]:
                y = us[i] + vs[i] - x
                parent[y], via[y] = x, i
                stack.append(y)
    return parent, via


def _tour_parents(g: Graph, t: SpanningTree, u: int) -> tuple[list[int], list[int]]:
    """Parent vertex and parent edge id of every vertex of T rooted at u, on arrays.

    Both directions of every tree edge are slots, sorted by tail vertex (a
    CSR). An Euler tour of T leaves a vertex, after arriving by x -> y, by
    the slot after y -> x in y's slots, cyclically; started at u's first
    slot, it crosses every edge first from parent to child. Pointer jumping
    counts the slots left after each one in ceil(log2(2n-2)) rounds of
    array gathers, so the earlier direction of each edge is the one with
    more left.
    """
    ids = np.array(t.edge_ids, dtype=np.int64)
    e = ids.size
    tail = np.concatenate((g.u[ids], g.v[ids]))  # slot j runs tail[j] -> head[j] along edge ids[j % e]
    head = np.concatenate((g.v[ids], g.u[ids]))
    order = np.argsort(tail)  # any order of a vertex's slots gives an Euler tour
    at = np.empty_like(order)
    at[order] = np.arange(2 * e)  # at[j]: the sorted position of slot j
    first = np.searchsorted(tail[order], np.arange(g.n + 1))  # vertex x's slots sit at first[x]..first[x+1]-1
    reverse = at[(order + e) % (2 * e)]
    to = head[order]
    after = reverse + 1
    step = np.where(after == first[to + 1], first[to], after)
    # the tour ends on the slot whose next is u's first: the reverse of u's last slot
    last = reverse[first[u + 1] - 1]
    step[last] = last
    left = np.ones(2 * e, dtype=np.int64)
    left[last] = 0
    for _ in range((2 * e - 1).bit_length()):
        left += left[step]
        step = step[step]
    down = left[at[:e]] > left[at[e:]]  # edge ids[j] is first crossed from its u end
    child = np.where(down, g.v[ids], g.u[ids])
    parent = np.full(g.n, -1)
    via = np.full(g.n, -1)
    parent[child] = np.where(down, g.u[ids], g.v[ids])
    via[child] = ids
    return parent.tolist(), via.tolist()
