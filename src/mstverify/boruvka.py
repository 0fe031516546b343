"""Boruvka tree construction and tree-path maximum queries.

Repeated Boruvka phases on a spanning tree T yield a full branching tree
whose leaves are the vertices: every phase, each current node selects its
minimum-(w, id) incident T-edge, and the connected components of the
selected edges become the nodes of the next level. The maximum branch
weight between two leaves equals the maximum edge weight on their T-path,
so after one build (n-1 lookups the verifier charges), one batched climb
answers the path maxima of all non-tree edges together: they climb the
tree in lock-step, O(log n) array gathers, no oracle calls. The build takes
the tree edges in (w, id) order from the graph's order column, and each
node keeps the rank of its branch in that order, so neither the build
nor a climb sorts, and a climb compares integers. A phase finds the
components of the picked edges in one of two forms: on arrays by pointer
jumping, for trees above SMALL_TREE_VERTICES, and on Python lists by a
union-find, for smaller ones, where numpy's per-call cost would
dominate. Both give the same arrays (tests/test_tree_arrays.py,
test_array_phases_equal_python_phases). The climb also names each path's
maximum edge, which is the tree edge a violating edge replaces, so
certification needs no walk of T.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, SpanningTree, _jump, _read_only


class BoruvkaTree:
    """Full branching tree over vertex aggregates; immutable after build.

    Node i < n is leaf (vertex) i; internal nodes follow in creation order,
    the root last. parent[i] is node i's parent (-1 at the root), and
    branch_rank[i] the rank, in the tree edges' (w, id) order, of the tree
    edge node i selected when it merged into its parent (-1 at the root).
    rank_w[r] / rank_id[r] are the weight and id of the rank-r tree edge,
    with a (-inf, -1) sentinel last, so that rank -1 reads it: node i's
    branch is rank_w[branch_rank[i]] / rank_id[branch_rank[i]]. Every
    leaf sits at depth `height`, so all queries can climb together level
    by level. Path queries take vertices, the leaves 0..n-1.
    """

    def __init__(self, n: int, parent, branch_rank, rank_w, rank_id, height: int, build_work: int):
        """The tree arrays: int64 parent, branch_rank and rank_id, float64 rank_w, the sentinels included."""
        self.n = n
        self.root = len(parent) - 1
        self.height = height
        self.build_work = build_work
        self.parent = _read_only(parent)
        self.branch_rank = _read_only(branch_rank)
        self.rank_w = _read_only(rank_w)
        self.rank_id = _read_only(rank_id)

    def _climb(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Maximum-(w, id) edge of the T-path of each vertex pair a[k], b[k]: (max weights, max edge ids).

        The maximum branch on the two synchronized ascents from a[k] and
        b[k] to their LCA is the maximum-(w, id) edge of their T-path. All
        pairs climb together, one gather per level for `height` levels; a
        pair stops taking maxima once its two ascents meet at the LCA.
        Branches are compared by the ranks the build stored, so each level
        costs one integer maximum, and two gathers map the winning ranks to
        weights and ids. Nothing is sorted, and no oracle queries.

        Unchecked precondition: a and b are int64 vertex arrays of one
        shape, every vertex is in 0..n-1, and a != b everywhere, as a
        Graph's endpoint columns are on every row.
        """
        rank, parent = self.branch_rank, self.parent
        best = np.full(a.shape, -1, dtype=np.int64)
        for _ in range(self.height):
            apart = a != b
            best = np.where(apart, np.maximum(best, np.maximum(rank[a], rank[b])), best)
            a, b = parent[a], parent[b]
        return self.rank_w[best], self.rank_id[best]


# Trees on at most this many vertices run the Boruvka phases on Python
# lists, larger ones on arrays: an array phase costs some 25 numpy calls
# however few aggregates it has, more than a whole Python build of a small
# tree. Measured on the two phase functions alone, given the tree edges'
# end columns in (w, id) order, weights k/2^20, as the median over 40
# random trees of the fastest of 5 x 20 calls (2-vCPU VM, Python 3.11,
# numpy 2.4): n=64 44 us lists against 80 us arrays, n=128 79 against 101
# us, n=160 100 against 104 us, n=176 103-108 against 104-106 us, n=192
# 111-117 against 107-108 us. Lists were faster on 25 to 37 of 40 trees at
# n=160 and on 5 to 27 at n=176. At n=20000, 17.3 against 1.9 ms.
SMALL_TREE_VERTICES = 160


def build_boruvka_tree(g: Graph, t: SpanningTree) -> BoruvkaTree:
    """Run Boruvka phases on T until one aggregate remains.

    The build reads stored weights and charges no oracle: verify._verify
    charges the n-1 tree edges first. The phases take the tree edges in
    (w, id) order, g.order picked by the tree's mask t.in_tree, and carry
    each edge's rank in that order instead of its weight and id. A phase
    follows the picks. The active edges (those joining two aggregates)
    stay in rank order, their ends named by the current level's aggregate
    numbers 0..k-1 (node ids base..base+k-1). Each aggregate picks its
    first active edge, and the components of the picked edges are the
    groups, numbered in order of their smallest member. Trees above
    SMALL_TREE_VERTICES find them on arrays: the picked edges form a
    functional graph whose only cycles are mutual pairs (two aggregates
    picking the same edge), so rooting each pair at its smaller end and
    pointer jumping to a fixed point finds them. Smaller trees find them
    on Python lists, joining each aggregate to the other end of its pick
    in a union-find. Edges within a group then drop out. Every group has
    at least two members, so the height is at most ceil(log2 n). Both
    forms give the same parent and branch_rank arrays, height and
    build_work, and the rank-ordered weights and ids are gathered here.
    """
    rank_id = g.order[t.in_tree[g.order]]
    phases = _python_phases if g.n <= SMALL_TREE_VERTICES else _array_phases
    parent, branch_rank, height, work = phases(g.n, g.u[rank_id], g.v[rank_id])
    rank_w, rank_id = np.concatenate((g.w[rank_id], [-math.inf])), np.concatenate((rank_id, [-1]))
    return BoruvkaTree(g.n, parent, branch_rank, rank_w, rank_id, height=height, build_work=work)


def _python_phases(n: int, au: np.ndarray, av: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """build_boruvka_tree's phases on Python lists: (parent, branch_rank, height, build_work).

    au and av are the int64 end columns of the tree edges in (w, id) order,
    whose vertices are the level-0 aggregates. parent and branch_rank come
    back as int64 arrays, the root's -1 last.
    """
    au, av = au.tolist(), av.tolist()  # on a small tree, lists beat reading the columns edge by edge
    rank = list(range(len(au)))
    parent, branch_rank = [], []
    k = n
    base = level = work = 0
    while k > 1:
        level += 1
        work += 2 * len(rank) + k
        # a backwards pass over the rank-ordered edges leaves each aggregate its lightest
        best = [0] * k
        for j in range(len(rank) - 1, -1, -1):
            best[au[j]] = best[av[j]] = j
        # join each aggregate to the picked edge's other end by a union-find in line, each
        # root the smallest of its set: with a helper call per join the phases took 0.85 of
        # the time of list pointer jumping, in line 0.78 to 0.80 (27 trees, n from 2 to 32)
        up = list(range(k))
        for me, j in enumerate(best):
            a, b = me, au[j] + av[j] - me
            while up[a] != a:
                up[a] = a = up[up[a]]
            while up[b] != b:
                up[b] = b = up[up[b]]
            if a < b:
                up[b] = a
            elif b < a:
                up[a] = b
        # every link points to a smaller aggregate, so one ascending pass numbers the
        # groups in order of their smallest member, their root
        group = []
        groups = 0
        for me, a in enumerate(up):
            if a == me:
                group.append(groups)
                groups += 1
            else:
                group.append(group[a])
        parent += [base + k + x for x in group]
        branch_rank += [rank[j] for j in best]
        base += k
        k = groups
        keep = [j for j in range(len(rank)) if group[au[j]] != group[av[j]]]
        au, av = [group[au[j]] for j in keep], [group[av[j]] for j in keep]
        rank = [rank[j] for j in keep]
        work += n + len(rank)
    return np.array(parent + [-1], dtype=np.int64), np.array(branch_rank + [-1], dtype=np.int64), level, work


def _array_phases(n: int, au: np.ndarray, av: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """build_boruvka_tree's phases on arrays, with the same result as _python_phases."""
    rank = np.arange(au.size)
    parent, branch_rank = [], []
    k = n
    base = level = work = 0
    while k > 1:
        level += 1
        work += 2 * rank.size + k
        me = np.arange(k)
        # active edges stay in rank order, so the lowest position is the lightest edge
        best = np.full(k, rank.size)
        at = np.arange(rank.size)
        np.minimum.at(best, au, at)
        np.minimum.at(best, av, at)
        to = au[best] + av[best] - me  # the picked edge's other end
        root = _jump(np.where((to[to] == me) & (me < to), me, to))
        # number the components in order of their smallest member
        smallest = np.full(k, k)
        np.minimum.at(smallest, root, me)
        leader = smallest[root]
        number = np.cumsum(leader == me) - 1
        group = number[leader]
        parent.append(group + (base + k))
        branch_rank.append(rank[best])
        assert 2 * (number[-1] + 1) <= k, "every group has at least two members"
        base += k
        k = int(number[-1]) + 1
        au, av = group[au], group[av]
        keep = au != av
        au, av, rank = au[keep], av[keep], rank[keep]
        work += n + rank.size
    return np.concatenate(parent + [[-1]]), np.concatenate(branch_rank + [[-1]]), level, work
