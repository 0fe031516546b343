"""Graph/tree parsing, validation, and serialization."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstverify import (
    Graph,
    GraphError,
    load_graph,
    load_tree,
    random_connected_graph,
    random_spanning_tree,
    serialize_graph,
    serialize_tree,
    tree_weight,
)
from mstverify import graph
from mstverify.graph import (
    SMALL_GRAPH_EDGES,
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


# One token's replacements in the fast-parse differential: each is a field
# int() or float() reads differently from a plain decimal, or rejects, or
# a vertex or edge index out of range.
ODD_TOKENS = ["1_0", "+3", "-1", "٣", "0x10", "3.0", "1e3", "inf", "nan", "99999999999999999999999", "1e400"]
ODD_TOKENS += ["0003", "-0.0", "1e-5", ".5", "5.", "1e", "+-1", "1..2", "12345678901234567890", "x", "\x00", "100000"]


def mutate(rng, text: str) -> str:
    """text with one token replaced, or a line dropped, duplicated or split, or its separators varied."""
    lines = text.splitlines()
    i = int(rng.integers(len(lines)))
    kind = rng.choice(["token", "token", "token", "drop", "dup", "split", "space", "tab", "crlf", "blank", "no-eol"])
    if kind == "token":
        fields = lines[i].split()
        fields[int(rng.integers(len(fields)))] = str(rng.choice(ODD_TOKENS))
        lines[i] = " ".join(fields)
    elif kind == "drop":
        del lines[i]
    elif kind == "dup":
        lines.insert(i, lines[i])
    elif kind == "split":
        lines[i : i + 1] = lines[i].split(" ", 1)
    elif kind in ("space", "tab"):
        lines[i] = lines[i].replace(" ", "  " if kind == "space" else "\t", 1)
    elif kind == "blank":
        lines.insert(i, "")
    if kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    return "\n".join(lines) + ("" if kind == "no-eol" else "\n")


def outcome(load, *args):
    """What load(*args) gives: its Graph's columns (weights bit for bit) or tree ids, or the error raised."""
    try:
        result = load(*args)
    except GraphError as exc:
        return type(exc), str(exc)
    if isinstance(result, Graph):
        return result.n, result.u.tolist(), result.v.tolist(), result.w.view(np.int64).tolist()
    return result.edge_ids


class TestFastParse:
    """Files above SMALL_GRAPH_EDGES: numpy's column cast against the line-by-line parser alone."""

    def test_same_columns_or_error_as_the_line_by_line_parser(self, monkeypatch):
        rng = np.random.default_rng(8)
        cast = []  # per graph load: True when numpy cast the columns (the Graph may still be invalid)
        load_graph_fast = graph._load_graph_fast

        def spy(text):
            cast.append(True)
            g = load_graph_fast(text)
            cast[-1] = g is not None
            return g

        monkeypatch.setattr(graph, "_load_graph_fast", spy)
        for case in range(600):
            n = int(rng.integers(SMALL_GRAPH_EDGES + 2, 60))
            g = random_connected_graph(n, int(rng.integers(n - 1, 2 * n)), rng, weight_high=float(rng.choice([1.0, 1e6])))
            t = random_spanning_tree(g, rng)
            graph_text, tree_text = serialize_graph(g), serialize_tree(g, t)
            if case % 2:
                graph_text = mutate(rng, graph_text)
            else:
                tree_text = mutate(rng, tree_text)
            fast = (outcome(load_graph, graph_text), outcome(load_tree, tree_text, g))
            with monkeypatch.context() as m:
                m.setattr(graph, "_fast_fields", lambda *args: None)
                by_line = (outcome(load_graph, graph_text), outcome(load_tree, tree_text, g))
            assert fast == by_line, (graph_text, tree_text)
        assert sum(cast[::2]) > 300  # every unmutated graph file and many mutated ones were cast by numpy

    def test_canonical_files_take_the_fast_path(self, monkeypatch):
        rng = np.random.default_rng(9)
        g = random_connected_graph(SMALL_GRAPH_EDGES + 2, 2 * SMALL_GRAPH_EDGES, rng)
        t = random_spanning_tree(g, rng)
        taken = []
        fast_fields = graph._fast_fields
        monkeypatch.setattr(graph, "_fast_fields", lambda *args: taken.append(fast_fields(*args) is not None))
        load_graph(serialize_graph(g))
        load_tree(serialize_tree(g, t), g)
        assert taken == [True, True]
