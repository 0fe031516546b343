"""Boruvka tree construction and tree-path maximum queries.

Repeated Boruvka phases on a spanning tree T yield a full branching tree
whose leaves are the vertices: every phase, each current node selects its
minimum-(w, id) incident T-edge, and the connected components of the
selected edges become the nodes of the next level. The maximum branch
weight between two leaves equals the maximum edge weight on their T-path,
so after one O(n)-query build, BoruvkaTree.path_max_batch answers any
number of path-max queries together: all of them climb the tree in
lock-step, O(log n) array gathers and zero oracle calls. Trees above
SMALL_TREE_VERTICES run the phases on arrays: a minimum per aggregate
over the active edges, pointer jumping over the selected edges, and a
cumulative sum to number the groups; smaller trees run them as Python
loops, where numpy's per-call cost would dominate. The batch also names
each path's maximum edge, which is the tree edge a violating edge
replaces, so certification needs no walk of T.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, SpanningTree, UnionFind, _read_only
from .oracle import InstrumentedOracle


class SameVertexError(ValueError):
    """A path query needs two distinct vertices."""


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
        """parent, branch_w and branch_id come as lists (Python phases) or arrays (array phases)."""
        self.n = n
        self.root = len(parent) - 1
        self.height = height
        self.build_work = build_work
        self.parent = _read_only(np.asarray(parent, dtype=np.int64))
        self.branch_w = _read_only(np.asarray(branch_w, dtype=np.float64))
        self.branch_id = _read_only(np.asarray(branch_id, dtype=np.int64))

    def path_max_batch(self, us, vs) -> tuple[np.ndarray, np.ndarray]:
        """Maximum-(w, id) edge of the T-path of each vertex pair: (max weights, max edge ids).

        The maximum branch on the two synchronized ascents from u and v to
        their LCA is the maximum-(w, id) edge of their T-path. All pairs
        climb together, one gather per level for `height` levels; a pair
        stops taking maxima once its two ascents meet at the LCA. Branches
        are compared by their rank in (w, id) order, so each level costs
        one integer maximum. No oracle queries.
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
