"""Boruvka tree structure and path-maximum queries."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from mstverify import kruskal_mst, quantum_verify, random_connected_graph, random_spanning_tree
from mstverify.boruvka import build_boruvka_tree
from mstverify.graph import spanning_tree

from .conftest import edge_oracle, path_graph, star_graph, triangle, whole_tree
from .reference import dfs_tree_path_edges, direct_path_max, dump, nodes, path_max, validate_structure

TRIANGLE_DUMP = "0 0 3 1.0 0\n1 0 3 1.0 0\n2 0 3 2.0 1\n3 1 - - -\n"


class TestBuild:
    def test_triangle_structure(self):
        g = triangle()
        t = spanning_tree(g, (0, 1))
        b = build_boruvka_tree(g, t)
        assert b.height == 1
        assert len(nodes(b)) == 4
        root = nodes(b)[b.root]
        assert root.children == (0, 1, 2)
        assert [nodes(b)[i].branch_weight for i in range(3)] == [1.0, 1.0, 2.0]
        assert [nodes(b)[i].branch_edge_id for i in range(3)] == [0, 0, 1]
        o = edge_oracle(g)
        _, report = quantum_verify(g, t, o)  # the verify charges the build's two tree edges
        assert o.classical_queries == report.classical_weight_queries == 2

    def test_triangle_dump_golden(self):
        g = triangle()
        b = build_boruvka_tree(g, spanning_tree(g, (0, 1)))
        assert dump(b) == TRIANGLE_DUMP

    def test_two_vertex_tree(self):
        g = path_graph([4.0])
        b = build_boruvka_tree(g, whole_tree(g))
        assert b.height == 1 == math.ceil(math.log2(2))
        assert len(nodes(b)) == 3
        assert nodes(b)[0].branch_weight == nodes(b)[1].branch_weight == 4.0

    def test_star_collapses_in_one_phase(self):
        g = star_graph([1.0, 2.0, 3.0])
        b = build_boruvka_tree(g, whole_tree(g))
        assert b.height == 1 <= math.ceil(math.log2(4))
        assert len(nodes(b)[b.root].children) == 4
        # the center selects its lightest spoke
        assert nodes(b)[0].branch_weight == 1.0

    def test_single_vertex(self):
        from mstverify import Graph

        g = Graph(1, [])
        t = spanning_tree(g, ())
        b = build_boruvka_tree(g, t)
        assert b.height == 0
        assert len(nodes(b)) == 1
        o = edge_oracle(g)
        quantum_verify(g, t, o)
        assert (o.classical_queries, o.quantum_queries) == (0, 0)
        validate_structure(b, 1)

    def test_build_queries_exactly_n_minus_1(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 3 * n) + 1))
            g = random_connected_graph(n, m, rng)
            t = random_spanning_tree(g, rng)
            validate_structure(build_boruvka_tree(g, t), n)
            o = edge_oracle(g)
            _, report = quantum_verify(g, t, o)
            assert o.classical_queries == report.classical_weight_queries == n - 1

    def test_phase_contraction(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 120))
            g = random_connected_graph(n, n - 1, rng)
            b = build_boruvka_tree(g, whole_tree(g))
            sizes = Counter(node.level for node in nodes(b))
            for level in range(1, b.height + 1):
                assert sizes[level] <= math.ceil(sizes[level - 1] / 2)

    def test_equal_weights_still_valid(self):
        g = random_connected_graph_with_ties()
        t = kruskal_mst(g)
        b = build_boruvka_tree(g, t)
        validate_structure(b, g.n)


def random_connected_graph_with_ties():
    import numpy as np

    from mstverify import Graph

    rng = np.random.default_rng(7)
    n = 30
    pairs = [(int(rng.integers(v)), v) for v in range(1, n)]
    pairs += [(i, (i + 7) % n) for i in range(0, n, 3) if i != (i + 7) % n]
    return Graph(n, [(min(a, b), max(a, b), float(rng.integers(1, 4))) for a, b in pairs])


class TestPathMax:
    def test_triangle_examples(self):
        g = triangle()
        b = build_boruvka_tree(g, spanning_tree(g, (0, 1)))
        a02 = path_max(b, 0, 2)
        assert (a02.max_weight, a02.max_edge_id) == (2.0, 1)
        a01 = path_max(b, 0, 1)
        assert (a01.max_weight, a01.max_edge_id) == (1.0, 0)

    def test_same_vertex_rejected(self):
        g = triangle()
        b = build_boruvka_tree(g, spanning_tree(g, (0, 1)))
        with pytest.raises(ValueError, match="distinct vertices"):
            path_max(b, 1, 1)

    def test_differential_against_direct(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 50))
            g = random_connected_graph(n, n - 1, rng, weight_alphabet=[1.0, 2.0, 3.0, 4.0])
            t = whole_tree(g)
            b = build_boruvka_tree(g, t)
            for u in range(n):
                for v in range(u + 1, n):
                    fast = path_max(b, u, v)
                    slow = direct_path_max(g, t, u, v)
                    assert (fast.max_weight, fast.max_edge_id) == (slow.max_weight, slow.max_edge_id)



class TestDirectPathMax:
    def test_triangle(self):
        g = triangle()
        t = spanning_tree(g, (0, 1))
        a = direct_path_max(g, t, 0, 2)
        assert (a.max_weight, a.max_edge_id) == (2.0, 1)

    def test_path_graph(self):
        g = path_graph([5.0, 1.0, 7.0])
        a = direct_path_max(g, whole_tree(g), 0, 3)
        assert (a.max_weight, a.max_edge_id) == (7.0, 2)

    def test_adjacent_pair_returns_their_edge(self):
        g = path_graph([5.0, 1.0, 7.0])
        a = direct_path_max(g, whole_tree(g), 1, 2)
        assert (a.max_weight, a.max_edge_id) == (1.0, 1)

    def test_same_vertex_rejected(self):
        g = triangle()
        with pytest.raises(ValueError, match="distinct vertices"):
            direct_path_max(g, spanning_tree(g, (0, 1)), 2, 2)

    def test_path_edges_order(self):
        g = path_graph([5.0, 1.0, 7.0])
        path = dfs_tree_path_edges(g, whole_tree(g), 0, 3)
        assert path == [0, 1, 2]
