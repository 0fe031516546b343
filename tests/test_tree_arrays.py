"""Array Boruvka phases, the array spanning-tree check and one-walk certification against their Python paths."""

from __future__ import annotations

import numpy as np
import pytest

from mstverify import Graph, GraphError, classical_verify, kruskal_mst, quantum_verify, random_spanning_tree, tree_weight
from mstverify import boruvka, graph, verify
from mstverify.boruvka import SMALL_TREE_VERTICES, SameVertexError, build_boruvka_tree, tree_path_edges
from mstverify.generate import perturbed_mst
from mstverify.graph import SMALL_GRAPH_EDGES, spanning_tree

from .conftest import adj_oracle, edge_oracle
from .reference import dfs_tree_path_edges, direct_path_max, validate_structure

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


def fields(b) -> tuple:
    return b.parent.tolist(), b.branch_w.tolist(), b.branch_id.tolist(), b.height, b.build_work


class TestArrayBuild:
    @pytest.mark.parametrize("shape", ["random", "path", "star"])
    @pytest.mark.parametrize("n", SIZES)
    def test_array_phases_equal_python_phases(self, rng, n, shape):
        for _ in range(4):
            g = tree_graph(rng, n, shape)
            ids = [int(i) for i in rng.permutation(g.m)]
            weights = [g.columns[2][i] for i in ids]
            python = boruvka._python_phases(g, ids, weights)
            array = boruvka._array_phases(g, ids, weights)
            assert fields(array) == fields(python)
            built = build_boruvka_tree(g, spanning_tree(g, ids), edge_oracle(g))
            assert fields(built) == fields(python)

    def test_array_tree_answers_scalar_and_batched_queries(self, rng):
        g = tree_graph(rng, 300, "random")
        t = spanning_tree(g, range(g.m))
        b = build_boruvka_tree(g, t, edge_oracle(g))
        assert g.n > SMALL_TREE_VERTICES
        validate_structure(b, g.n)
        us, vs = rng.integers(g.n, size=200), rng.integers(g.n, size=200)
        us, vs = us[us != vs], vs[us != vs]
        max_w, max_id = b.path_max_batch(us, vs)
        for u, v, w, i in zip(us.tolist(), vs.tolist(), max_w.tolist(), max_id.tolist()):
            scalar, expected = b.path_max(u, v), direct_path_max(g, t, u, v)
            assert (scalar.max_weight, scalar.max_edge_id) == (w, i) == (expected.max_weight, expected.max_edge_id)

    @pytest.mark.parametrize("make_oracle", [edge_oracle, adj_oracle])
    def test_exactly_n_minus_1_lookups_on_the_array_path(self, rng, monkeypatch, make_oracle):
        g = tree_graph(rng, 4 * SMALL_TREE_VERTICES, "random")
        oracle = make_oracle(g)
        looked_up = []
        lookup = oracle.lookup_weight
        monkeypatch.setattr(oracle, "lookup_weight", lambda i: looked_up.append(i) or lookup(i))
        build_boruvka_tree(g, spanning_tree(g, range(g.m)), oracle)
        assert oracle.classical_queries == g.n - 1
        assert sorted(looked_up) == list(range(g.m))


def outcome(g: Graph, ids) -> tuple:
    """spanning_tree's result as comparable data: the error's type and message, or the tree's ids."""
    try:
        return ("ok", spanning_tree(g, ids).edge_ids)
    except GraphError as exc:
        return (type(exc), str(exc))


class TestSpanningTreeCheck:
    @pytest.mark.parametrize("n", [12, SMALL_GRAPH_EDGES + 1, SMALL_GRAPH_EDGES + 2, 120])
    def test_same_error_as_the_edge_walk(self, rng, monkeypatch, n):
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
        arrays = [outcome(g, ids) for ids in cases]
        monkeypatch.setattr(graph, "SMALL_GRAPH_EDGES", 10**9)
        walked = [outcome(g, ids) for ids in cases]
        assert arrays == walked
        kinds = {result[0] for result in walked}
        assert {"ok", graph.NotInGraphError, graph.NotSpanningError} <= kinds
        assert any("closes a cycle" in str(result[1]) for result in walked)
        assert any("expected" in str(result[1]) for result in walked)


@pytest.mark.parametrize("shape", ["random", "path", "star", "caterpillar", "in a multigraph"])
@pytest.mark.parametrize("n", [2, 3, 5, 17, SMALL_TREE_VERTICES, SMALL_TREE_VERTICES + 1, 257, 1500, 3000])
def test_tree_path_equals_the_dfs_reference(rng, shape, n):
    if shape == "in a multigraph":
        g = multigraph(rng, n, rng.random)
        t = random_spanning_tree(g, rng)
        pairs = []
    else:
        tree = tree_graph(rng, n, shape)
        label = rng.permutation(n)  # so that a path's ends and a star's center fall anywhere
        g = Graph(n, [(int(label[u]), int(label[v]), w) for u, v, w in zip(*tree.columns)])
        t = spanning_tree(g, range(n - 1))
        pairs = [(int(label[0]), int(label[n - 1]))]  # a path's two ends
    pairs += [tuple(map(int, rng.choice(n, 2, replace=False))) for _ in range(12)]
    for u, v in pairs:
        for a, b in ((u, v), (v, u)):
            assert tree_path_edges(g, t, a, b) == dfs_tree_path_edges(g, t, a, b)
    x = int(rng.integers(n))
    with pytest.raises(SameVertexError):
        tree_path_edges(g, t, x, x)


def test_not_minimal_walks_the_tree_path_once(monkeypatch):
    walks = []
    walk = boruvka.tree_path_edges

    def counted(*args):
        walks.append(args[2:])
        return walk(*args)

    monkeypatch.setattr(boruvka, "tree_path_edges", counted)
    monkeypatch.setattr(verify, "tree_path_edges", counted)
    checked = 0
    for n, mode in [(12, "classical"), (300, "classical"), (40, "edgelist"), (20, "adjacency")]:
        for seed in range(3):
            gen = np.random.default_rng([n, seed])
            g = multigraph(gen, n, gen.random)
            t = perturbed_mst(g, gen)
            walks.clear()
            if mode == "classical":
                verdict, _ = classical_verify(g, t, edge_oracle(g))
            else:
                oracle = edge_oracle(g) if mode == "edgelist" else adj_oracle(g)
                verdict, _ = quantum_verify(g, t, oracle, rng_seed=seed)
            if verdict.minimal:
                continue
            assert len(walks) == 1
            checked += 1
            e = g.edge(verdict.witness.violating_edge_id)
            expected = direct_path_max(g, t, e.u, e.v)
            assert verdict.witness.replaced_edge_id == expected.max_edge_id
            assert verdict.weight_delta == e.w - expected.max_weight
            assert tree_weight(g, verdict.improved_tree) < tree_weight(g, t)
    assert checked >= 8
