"""Array Boruvka phases, the array spanning-tree check and certification against their Python and walking references."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mstverify import Graph, GraphError, classical_verify, kruskal_mst, quantum_verify, random_spanning_tree, tree_weight
from mstverify import boruvka, graph
from mstverify.boruvka import SMALL_TREE_VERTICES, BoruvkaTree, build_boruvka_tree
from mstverify.generate import perturbed_mst
from mstverify.graph import SMALL_GRAPH_EDGES, _weight_order, spanning_tree
from mstverify.oracle import InstrumentedOracle
from mstverify.verify import InvalidWitnessError, Witness, improve

from .conftest import adj_oracle, edge_oracle
from .reference import dfs_tree_path_edges, direct_path_max, path_max, validate_structure, walk_improve, walk_spanning_tree
from .test_verify import as_charges, spy_charges

SIZES = [2, 3, 5, 17, SMALL_TREE_VERTICES - 1, SMALL_TREE_VERTICES, SMALL_TREE_VERTICES + 1, 257, 1500]


def tree_graph(rng, n: int, shape: str) -> Graph:
    """A tree on n vertices in random edge order, weights tied in {1, 2, 3}.

    "path" and "star" give the longest chains of picked edges (a path
    whose weights rise along it picks every edge towards one end).
    """
    if shape == "path":
        pairs = [(v - 1, v) for v in range(1, n)]
    elif shape == "star":
        pairs = [(0, v) for v in range(1, n)]
    elif shape == "caterpillar":  # a spine of half the vertices, each other one a leg on it
        pairs = [(v - 1, v) if v < n // 2 else (int(rng.integers(max(n // 2, 1))), v) for v in range(1, n)]
    else:
        pairs = [(int(rng.integers(v)), v) for v in range(1, n)]
    weights = rng.integers(1, 4, size=n - 1).astype(float)
    if shape == "path" and rng.random() < 0.5:
        weights = np.sort(weights)
    return Graph(n, [(*pairs[i], weights[i]) for i in rng.permutation(n - 1)])


def multigraph(rng, n: int, weight) -> Graph:
    """A random backbone tree plus 2n random edges (parallel ones allowed), weights from weight()."""
    edges = [(int(rng.integers(v)), v, weight()) for v in range(1, n)]
    for _ in range(2 * n):
        a, b = rng.choice(n, 2, replace=False)
        edges.append((int(a), int(b), weight()))
    return Graph(n, edges)


def fields(phases) -> tuple:
    """A phase form's (parent, branch_rank, height, build_work), the arrays as lists; both arrays must be int64."""
    parent, branch_rank, height, build_work = phases
    assert parent.dtype == branch_rank.dtype == np.int64
    return parent.tolist(), branch_rank.tolist(), height, build_work


# few distinct weights, so that ties are heavy, and -0.0 beside 0.0
TIED_WEIGHTS = st.one_of(st.integers(0, 3).map(float), st.just(-0.0), st.floats(0.0, 1e300))


@settings(max_examples=400, deadline=None)
@given(st.lists(TIED_WEIGHTS, max_size=60))
@example([])
@example([1.0])
@example([0.0, -0.0, 0.0, -0.0])
@example([2.0, 0.0, -0.0, 1.0] * 10)  # above SMALL_GRAPH_EDGES, where argsort and the tie repair run
@example([1.0] * (SMALL_GRAPH_EDGES + 1))
def test_weight_order_is_the_weight_then_id_order(weights):
    w = np.array(weights, dtype=np.float64)
    expected = np.lexsort((np.arange(w.size), w)).tolist()
    assert _weight_order(w).tolist() == expected
    g = Graph(w.size + 1, [(i, i + 1, x) for i, x in enumerate(weights)])
    assert g.order.tolist() == expected
    with pytest.raises(ValueError):
        g.order[:1] = 0


class TestArrayBuild:
    @pytest.mark.parametrize("shape", ["random", "path", "star"])
    @pytest.mark.parametrize("n", [1, *SIZES])  # n = 1 runs no phase in either loop
    def test_array_phases_equal_python_phases(self, rng, n, shape):
        for _ in range(4):
            g = tree_graph(rng, n, shape)
            ids = [int(i) for i in rng.permutation(g.m)]
            # every edge of a tree graph is a tree edge, so its (w, id) order is g.order
            au, av = g.u[g.order], g.v[g.order]
            python = boruvka._python_phases(g.n, au, av)
            array = boruvka._array_phases(g.n, au, av)
            assert fields(array) == fields(python)
            built = build_boruvka_tree(g, spanning_tree(g, ids))
            assert fields((built.parent, built.branch_rank, built.height, built.build_work)) == fields(python)

    @pytest.mark.parametrize("shape", ["random", "path"])
    @pytest.mark.parametrize("n", [2, 17, SMALL_TREE_VERTICES, SMALL_TREE_VERTICES + 1, 257])
    def test_each_branch_is_the_tree_edge_of_its_rank(self, rng, n, shape):
        g = tree_graph(rng, n, shape)
        ws = g.columns[2]
        by_rank = sorted(range(g.m), key=lambda i: (ws[i], i))
        b = build_boruvka_tree(g, spanning_tree(g, range(g.m)))
        branch_w, branch_id = b.rank_w[b.branch_rank], b.rank_id[b.branch_rank]
        assert (b.branch_rank[b.root], branch_w[b.root], branch_id[b.root]) == (-1, -math.inf, -1)
        for node in range(b.root):
            i = by_rank[b.branch_rank[node]]
            assert (branch_w[node], branch_id[node]) == (ws[i], i)

    def test_array_tree_answers_scalar_and_batched_queries(self, rng):
        g = tree_graph(rng, 300, "random")
        t = spanning_tree(g, range(g.m))
        b = build_boruvka_tree(g, t)
        assert g.n > SMALL_TREE_VERTICES
        validate_structure(b, g.n)
        us, vs = rng.integers(g.n, size=200), rng.integers(g.n, size=200)
        us, vs = us[us != vs], vs[us != vs]
        max_w, max_id = b._climb(us, vs)
        for u, v, w, i in zip(us.tolist(), vs.tolist(), max_w.tolist(), max_id.tolist()):
            scalar, expected = path_max(b, u, v), direct_path_max(g, t, u, v)
            assert (scalar.max_weight, scalar.max_edge_id) == (w, i) == (expected.max_weight, expected.max_edge_id)

    @pytest.mark.parametrize("model", ["edgelist", "adjacency"])
    def test_exactly_n_minus_1_lookups_on_the_array_path(self, rng, monkeypatch, model):
        g = tree_graph(rng, 4 * SMALL_TREE_VERTICES, "random")
        ids = rng.permutation(g.m).tolist()
        oracle = InstrumentedOracle(g, model)
        charged = spy_charges(monkeypatch)
        # a tree graph leaves no candidate to scan: the verify charges only the build's tree edges, in their given order
        _, report = classical_verify(g, spanning_tree(g, ids), oracle)
        assert oracle.classical_queries == report.classical_weight_queries == g.n - 1
        assert charged == as_charges(g, ids, model)


def outcome(check, g: Graph, ids) -> tuple:
    """check(g, ids)'s result as comparable data: the error's type and message, or the tree's ids."""
    try:
        return ("ok", check(g, ids))
    except GraphError as exc:
        return (type(exc), str(exc))


class TestSpanningTreeCheck:
    # n - 1 = UNION_FIND_EDGES + 1 tree ids take the array connectivity rounds before the walk
    @pytest.mark.parametrize("n", [12, SMALL_GRAPH_EDGES + 1, SMALL_GRAPH_EDGES + 2, 120, graph.UNION_FIND_EDGES + 2])
    def test_same_error_as_the_edge_walk(self, rng, n):
        g = multigraph(rng, n, lambda: float(rng.integers(1, 4)))
        tree = list(kruskal_mst(g).edge_ids)
        outside = [i for i in range(g.m) if i not in set(tree)]
        cases = [tree, tree[::-1], tree[:-1], tree + outside[:1]]
        for _ in range(30):
            ids = list(tree)
            for k in rng.choice(len(ids), int(rng.integers(1, 4)), replace=False):
                ids[k] = outside[int(rng.integers(len(outside)))]  # often closes a cycle
            cases.append(ids)
            bad = list(ids)
            bad[int(rng.integers(len(bad)))] = g.m + int(rng.integers(3))
            bad[int(rng.integers(len(bad)))] = -1 - int(rng.integers(3))
            cases.append(bad)
            cases.append(bad[1:])
            # one id too high or too low alone, so that each end of the range check is tested by itself
            for wrong in (g.m + int(rng.integers(3)), -1 - int(rng.integers(3))):
                alone = list(ids)
                alone[int(rng.integers(len(alone)))] = wrong
                cases.append(alone)
        checked = [outcome(lambda g, ids: spanning_tree(g, ids).edge_ids, g, ids) for ids in cases]
        walked = [outcome(walk_spanning_tree, g, ids) for ids in cases]
        assert checked == walked
        # the same ids as an int64 array, as load_tree's fast path passes them, are range-checked by the array's min and max
        as_arrays = [outcome(lambda g, ids: spanning_tree(g, np.array(ids, dtype=np.int64)).edge_ids, g, ids) for ids in cases]
        assert as_arrays == walked
        kinds = {result[0] for result in walked}
        assert {"ok", graph.NotInGraphError, graph.NotSpanningError} <= kinds
        assert any("closes a cycle" in str(result[1]) for result in walked)
        assert any("expected" in str(result[1]) for result in walked)

    @pytest.mark.parametrize("n", [1, 2])
    def test_an_empty_int64_array_is_checked_as_an_empty_list(self, n):
        """n = 1 takes no edge, so an empty array must pass without its min() or max(), which raise on no elements."""
        g = Graph(n, [(0, 1, 1.0)] if n == 2 else [])
        empty = np.array([], dtype=np.int64)
        assert outcome(lambda g, ids: spanning_tree(g, ids).edge_ids, g, empty) == outcome(walk_spanning_tree, g, []) == (
            ("ok", ()) if n == 1 else (graph.NotSpanningError, "expected 1 edges, got 0")
        )

    @pytest.mark.parametrize("n", [3, SMALL_GRAPH_EDGES + 2])  # trees on either side of SMALL_GRAPH_EDGES
    def test_non_integer_ids_raise_type_error(self, n):
        g = Graph(n, [(v - 1, v, 1.0) for v in range(1, n)] + [(0, n - 1, 2.0)])
        ids = list(range(n - 1))
        for bad in ([0.5, 1.9, *ids[2:]], [*ids[:-1], float(ids[-1])], np.array(ids, dtype=np.float64)):
            with pytest.raises(TypeError):
                spanning_tree(g, bad)
        # integers of any integer type, and bool, are ids
        for good in (np.array(ids), np.array(ids, dtype=np.int32), [np.int64(i) for i in ids], [False, True, *ids[2:]]):
            assert spanning_tree(g, good).edge_ids == tuple(ids)


def certified(certify, g: Graph, t, witness) -> tuple:
    """certify's result as comparable data: the error's type and message, or the improved tree's ids."""
    try:
        return ("ok", certify(g, t, witness).edge_ids)
    except InvalidWitnessError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("n", [6, 12, SMALL_GRAPH_EDGES + 2, 45])
def test_improve_equals_the_walking_reference(rng, n):
    g = multigraph(rng, n, lambda: float(rng.integers(1, 4)))
    kinds = set()
    for t in (kruskal_mst(g), perturbed_mst(g, rng), random_spanning_tree(g, rng)):
        tree = list(t.edge_ids)
        outside = sorted(set(range(g.m)) - set(tree))
        # every swap of a non-tree edge for a tree edge: on or off the path, lighter or not
        witnesses = [Witness(a, b) for a in outside for b in tree]
        # out of range, incoming edge in T, outgoing edge not in T, and two faults at once
        for bad in (-1, g.m, g.m + 5):
            witnesses += [Witness(bad, tree[0]), Witness(outside[0], bad), Witness(bad, bad)]
        witnesses += [Witness(a, b) for a in tree[:3] for b in tree[:3] + outside[:3]]
        witnesses += [Witness(a, b) for a in outside[:3] for b in outside[:3]]
        for w in witnesses:
            expected = certified(walk_improve, g, t, w)
            assert certified(improve, g, t, w) == expected, w
            kinds.add(expected[0] if expected[0] == "ok" else expected[1].split(" ")[0])
    # swaps that certify, and each way a witness can fail
    assert kinds == {"ok", "witness", "incoming", "outgoing", "edge", "swap"}


@pytest.mark.parametrize("shape", ["random", "path", "star", "caterpillar", "in a multigraph"])
@pytest.mark.parametrize("n", [2, 3, 5, 17, SMALL_TREE_VERTICES, SMALL_TREE_VERTICES + 1, 257, 1500, 3000])
def test_tree_path_equals_the_dfs_reference(rng, shape, n):
    """The T-path as the package sees it, through the batch's maximum and improve's on-path check."""
    if shape == "in a multigraph":
        base = multigraph(rng, n, rng.random)
        tree = random_spanning_tree(base, rng).edge_ids
        pairs = []
    else:
        shaped = tree_graph(rng, n, shape)
        label = rng.permutation(n)  # so that a path's ends and a star's center fall anywhere
        base = Graph(n, [(int(label[u]), int(label[v]), w) for u, v, w in zip(*shaped.columns)])
        tree = range(n - 1)
        pairs = [(int(label[0]), int(label[n - 1]))]  # a path's two ends
    pairs += [tuple(map(int, rng.choice(n, 2, replace=False))) for _ in range(12)]
    # each pair also joined by a non-tree edge, so that a swap can enter the tree on its path
    g = Graph(n, [*zip(*base.columns), *((u, v, float(rng.integers(1, 4))) for u, v in pairs)])
    t = spanning_tree(g, tree)
    b = build_boruvka_tree(g, t)
    for k, (u, v) in enumerate(pairs):
        path = dfs_tree_path_edges(g, t, u, v)
        on_path = set(path)
        for a, c in ((u, v), (v, u)):
            expected = direct_path_max(g, t, a, c)
            ws, ids = b._climb(np.array([a]), np.array([c]))
            assert (float(ws[0]), int(ids[0])) == (expected.max_weight, expected.max_edge_id)
        off_path = sorted(set(t.edge_ids) - on_path)
        sample = [int(i) for i in rng.permutation(sorted(on_path))[:16]]
        sample += [int(i) for i in rng.permutation(off_path)[:16]]
        for out in sample:
            result = certified(improve, g, t, Witness(base.m + k, out))
            assert (result[0] == "ok" or "not on the tree path" not in result[1]) == (out in on_path), (u, v, out)


def test_witness_is_the_brute_force_path_max(monkeypatch):
    batches = []
    climb = BoruvkaTree._climb  # the one batched path maximum, which _violations calls once per verify

    def counted(self, *args):
        batches.append(args)
        return climb(self, *args)

    monkeypatch.setattr(BoruvkaTree, "_climb", counted)
    checked = 0
    for n, mode in [(12, "classical"), (300, "classical"), (40, "edgelist"), (20, "adjacency")]:
        for seed in range(3):
            gen = np.random.default_rng([n, seed])
            g = multigraph(gen, n, gen.random)
            t = perturbed_mst(g, gen)
            batches.clear()
            if mode == "classical":
                verdict, _ = classical_verify(g, t, edge_oracle(g))
            else:
                oracle = edge_oracle(g) if mode == "edgelist" else adj_oracle(g)
                verdict, _ = quantum_verify(g, t, oracle, rng_seed=seed)
            assert len(batches) == 1
            if verdict.minimal:
                continue
            checked += 1
            i = verdict.witness.violating_edge_id
            expected = direct_path_max(g, t, int(g.u[i]), int(g.v[i]))
            assert verdict.witness.replaced_edge_id == expected.max_edge_id
            assert verdict.weight_delta == g.w[i] - expected.max_weight
            assert tree_weight(g, verdict.improved_tree) < tree_weight(g, t)
    assert checked >= 8
