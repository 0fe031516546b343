"""Boruvka tree construction and tree-path maximum queries.

Repeated Boruvka phases on a spanning tree T yield a full branching tree
whose leaves are the vertices: every phase, each current node selects its
minimum-(w, id) incident T-edge, and the connected components of the
selected edges become the nodes of the next level. The maximum branch
weight between two leaves equals the maximum edge weight on their T-path,
so after one O(n)-query build, BoruvkaTree.path_max_batch answers any
number of path-max queries together: all of them climb the tree in
lock-step, O(log n) array gathers and zero oracle calls. A phase finds
the components by following the picks, one algorithm in two forms: on
arrays for trees above SMALL_TREE_VERTICES and on Python lists for
smaller ones, where numpy's per-call cost would dominate. The batch also
names each path's maximum edge, which is the tree edge a violating edge
replaces, so certification needs no walk of T.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, SpanningTree, _read_only
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


# Trees on at most this many vertices run the Boruvka phases on Python
# lists, larger ones on arrays: an array phase costs some 25 numpy calls
# however few aggregates it has, more than a whole Python build of a small
# tree. Measured from the same (w, id)-sorted edges, as the median over 40
# random trees of the fastest of 100 builds (2-vCPU VM, Python 3.11, numpy
# 2.4): n=32 62 us Python against 109 us arrays, n=64 103 against 136 us,
# n=96 133 against 126 us, n=128 173 against 148 us, n=200 240 against
# 164 us; n=20000 46 ms against 6 ms.
SMALL_TREE_VERTICES = 100


def build_boruvka_tree(g: Graph, t: SpanningTree, oracle: InstrumentedOracle) -> BoruvkaTree:
    """Run Boruvka phases on T until one aggregate remains.

    Each tree edge's weight is fetched through the oracle exactly once and
    cached, so the classical counter advances by exactly n-1. A phase
    follows the picks. The active edges (those joining two aggregates)
    stay in (w, id) order, their ends named by the current level's
    aggregate numbers 0..k-1 (node ids base..base+k-1). Each aggregate
    picks its first active edge. The picked edges form a functional graph
    whose only cycles are mutual pairs (two aggregates picking the same
    edge), so rooting each pair at its smaller end and pointer jumping to
    a fixed point finds the groups, numbered in order of their smallest
    member. Edges within a group then drop out. Every group has at least
    two members, so the height is at most ceil(log2 n). Trees above
    SMALL_TREE_VERTICES run the phases on arrays, smaller ones on Python
    lists; both give the same tree and build_work.
    """
    ids = list(t.edge_ids)
    weights = list(map(oracle.lookup_weight, ids))
    phases = _python_phases if g.n <= SMALL_TREE_VERTICES else _array_phases
    return phases(g, ids, weights)


def _python_phases(g: Graph, ids: list[int], weights: list[float]) -> BoruvkaTree:
    """build_boruvka_tree's phases on Python lists; weights[j] is tree edge ids[j]'s weight."""
    n = g.n
    order = sorted(range(len(ids)), key=lambda j: (weights[j], ids[j]))
    eid = [ids[j] for j in order]
    ew = [weights[j] for j in order]
    us, vs, _ = g.columns
    au, av = [us[i] for i in eid], [vs[i] for i in eid]  # vertices are the level-0 aggregates
    parent, branch_w, branch_id = [], [], []
    k = n
    base = level = work = 0
    while k > 1:
        level += 1
        work += 2 * len(eid) + k
        # a backwards pass over the (w, id)-ordered edges leaves each aggregate its lightest
        best = [0] * k
        for j in range(len(eid) - 1, -1, -1):
            best[au[j]] = best[av[j]] = j
        to = [au[j] + av[j] - me for me, j in enumerate(best)]  # the picked edge's other end
        root = [me if me < t and to[t] == me else t for me, t in enumerate(to)]
        while True:
            up = [root[r] for r in root]
            if up == root:
                break
            root = up
        # number the components in order of their smallest member: the first to name its root
        number = {r: x for x, r in enumerate(dict.fromkeys(root))}
        group = [number[r] for r in root]
        parent += [base + k + x for x in group]
        branch_w += [ew[j] for j in best]
        branch_id += [eid[j] for j in best]
        base += k
        k = len(number)
        keep = [j for j in range(len(eid)) if group[au[j]] != group[av[j]]]
        au, av = [group[au[j]] for j in keep], [group[av[j]] for j in keep]
        eid, ew = [eid[j] for j in keep], [ew[j] for j in keep]
        work += n + len(eid)
    return BoruvkaTree(n, parent + [-1], branch_w + [-math.inf], branch_id + [-1], height=level, build_work=work)


def _array_phases(g: Graph, ids: list[int], weights: list[float]) -> BoruvkaTree:
    """build_boruvka_tree's phases on arrays, with the same result and build_work as _python_phases."""
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
    return BoruvkaTree(
        n,
        np.concatenate(parent + [[-1]]),
        np.concatenate(branch_w + [[-math.inf]]),
        np.concatenate(branch_id + [[-1]]),
        height=level,
        build_work=work,
    )
