"""Graph/tree parsing, validation, and serialization."""

from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstverify import Graph, load_graph, load_tree, serialize_graph, serialize_tree, tree_weight
from mstverify.graph import (
    DisconnectedError,
    NotInGraphError,
    NotSpanningError,
    ParseError,
    SelfLoopError,
    UnionFind,
    spanning_tree,
)

from .conftest import TRIANGLE_TEXT, triangle
from .reference import pair_min


class TestLoadGraph:
    def test_triangle(self):
        g = load_graph(TRIANGLE_TEXT)
        assert (g.n, g.m) == (3, 3)
        assert [(e.u, e.v, e.w) for e in g.edges] == [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            load_graph("2 1\n0 0 1.0\n")

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            load_graph("4 2\n0 1 1.0\n2 3 1.0\n")

    def test_too_few_edges_rejected_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedError):
                load_graph("1000000 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_endpoint_normalized(self):
        g = load_graph("2 1\n1 0 1.0\n")
        assert (g.edges[0].u, g.edges[0].v) == (0, 1)

    def test_parallel_edges_keep_ids(self):
        g = load_graph("2 2\n0 1 2.0\n0 1 1.0\n")
        assert g.m == 2
        assert pair_min(g, 0, 1).id == 1  # lighter parallel edge wins
        assert pair_min(g, 1, 0).id == 1

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n",
            "x y\n",
            "3 3\n0 1 1.0\n1 2 2.0\n",  # fewer edges than declared
            "3 1\n0 1 1.0\n1 2 2.0\n0 2 3.0\n",  # more edges than declared
            "2 1\n0 1\n",
            "2 1\n0 1 abc\n",
            "2 1\n0 2 1.0\n",  # endpoint out of range
            "2 1\n0 1 -1.0\n",
            "2 1\n0 1 nan\n",
            "2 1\n0 1 inf\n",
            "0 0\n",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            load_graph(text)

    def test_weight_must_be_finite_on_direct_construction(self):
        with pytest.raises(ParseError):
            Graph(2, [(0, 1, math.inf)])

    def test_single_vertex(self):
        g = load_graph("1 0\n")
        assert (g.n, g.m) == (1, 0)


class TestLoadTree:
    def test_indices(self):
        g = triangle()
        t = load_tree("indices\n0\n1\n", g)
        assert t.edge_ids == (0, 1)

    def test_pairs(self):
        g = triangle()
        t = load_tree("pairs\n0 1\n0 2\n", g)
        assert t.edge_ids == (0, 2)

    def test_wrong_count_rejected(self):
        g = triangle()
        with pytest.raises(NotSpanningError):
            load_tree("indices\n0\n1\n2\n", g)

    def test_cycle_rejected(self):
        g = load_graph("4 4\n0 1 1.0\n1 2 1.0\n0 2 1.0\n2 3 1.0\n")
        with pytest.raises(NotSpanningError):
            load_tree("indices\n0\n1\n2\n", g)

    def test_duplicate_index_rejected(self):
        g = triangle()
        with pytest.raises(NotSpanningError):
            load_tree("indices\n0\n0\n", g)

    def test_unknown_pair_rejected(self):
        g = load_graph("4 3\n0 1 1.0\n1 2 1.0\n2 3 1.0\n")
        with pytest.raises(NotInGraphError):
            load_tree("pairs\n0 1\n1 2\n0 3\n", g)

    def test_index_out_of_range_rejected(self):
        g = triangle()
        with pytest.raises(NotInGraphError):
            load_tree("indices\n0\n5\n", g)

    def test_bad_header_rejected(self):
        g = triangle()
        with pytest.raises(ParseError):
            load_tree("edges\n0\n1\n", g)

    def test_pairs_resolve_to_lightest_parallel_edge(self):
        g = load_graph("2 2\n0 1 2.0\n0 1 1.0\n")
        t = load_tree("pairs\n0 1\n", g)
        assert t.edge_ids == (1,)

    def test_single_vertex_tree(self):
        g = load_graph("1 0\n")
        t = load_tree("indices\n", g)
        assert t.edge_ids == ()


class TestTreeWeight:
    @pytest.mark.parametrize("ids,expected", [((0, 1), 3.0), ((0, 2), 4.0), ((1, 2), 5.0)])
    def test_triangle_weights(self, ids, expected):
        g = triangle()
        assert tree_weight(g, spanning_tree(g, ids)) == expected


graph_texts = st.builds(
    lambda n, extra, weights: _graph_text(n, extra, weights),
    st.integers(min_value=1, max_value=12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20),
    st.lists(st.integers(0, 4000), min_size=40, max_size=40),
)


def _graph_text(n, extra, weights):
    pairs = [(v - 1 if v > 0 else 0, v) for v in range(1, n)]
    pairs += [(min(a % n, b % n), max(a % n, b % n)) for a, b in extra if a % n != b % n]
    lines = [f"{n} {len(pairs)}"]
    lines += [f"{u} {v} {weights[i % len(weights)] / 8.0!r}" for i, (u, v) in enumerate(pairs)]
    return "\n".join(lines) + "\n"


class TestSerializeRoundTrip:
    def test_canonical_fixed_point(self):
        canonical = serialize_graph(load_graph(TRIANGLE_TEXT))
        assert serialize_graph(load_graph(canonical)) == canonical

    @settings(max_examples=150, deadline=None)
    @given(graph_texts)
    def test_serialize_is_idempotent_and_preserving(self, text):
        g = load_graph(text)
        canonical = serialize_graph(g)
        g2 = load_graph(canonical)
        assert g2.n == g.n
        assert [(e.u, e.v, e.w) for e in g2.edges] == [(e.u, e.v, e.w) for e in g.edges]
        assert serialize_graph(g2) == canonical

    def test_tree_round_trip_both_formats(self):
        g = triangle()
        t = spanning_tree(g, (0, 1))
        assert load_tree(serialize_tree(g, t, "indices"), g).edge_ids == (0, 1)
        assert load_tree(serialize_tree(g, t, "pairs"), g).edge_ids == (0, 1)


class TestSpanningInvariant:
    @settings(max_examples=100, deadline=None)
    @given(graph_texts, st.randoms(use_true_random=False))
    def test_valid_trees_have_one_component(self, text, rnd):
        g = load_graph(text)
        # greedy randomized spanning tree: shuffle then Kruskal-style accept
        order = list(range(g.m))
        rnd.shuffle(order)
        uf = UnionFind(g.n)
        ids = [i for i in order if uf.union(g.edges[i].u, g.edges[i].v)]
        t = spanning_tree(g, sorted(ids))
        assert len(t) == g.n - 1
        check = UnionFind(g.n)
        for i in t.edge_ids:
            assert check.union(g.edges[i].u, g.edges[i].v)
        assert check.components == 1
