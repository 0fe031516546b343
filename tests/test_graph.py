"""Graph/tree parsing, validation, and serialization."""

from __future__ import annotations

import copy
import json
import math
import pickle
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstverify import (
    Graph,
    GraphError,
    kruskal_mst,
    load_graph,
    load_tree,
    random_connected_graph,
    random_spanning_tree,
    serialize_graph,
    serialize_tree,
    tree_weight,
)
from mstverify import graph
from mstverify.generate import perturbed_mst
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
from mstverify.verify import Witness, classical_verify, improve

from .conftest import TRIANGLE_TEXT, adj_oracle, edge_oracle, triangle
from .reference import pair_min


class TestLoadGraph:
    def test_triangle(self):
        g = load_graph(TRIANGLE_TEXT)
        assert (g.n, g.m) == (3, 3)
        assert list(zip(*g.columns)) == [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]

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
        assert (g.u[0], g.v[0]) == (0, 1)

    def test_parallel_edges_keep_ids(self):
        g = load_graph("2 2\n0 1 2.0\n0 1 1.0\n")
        assert g.m == 2
        assert pair_min(g, 0, 1) == 1  # lighter parallel edge wins
        assert pair_min(g, 1, 0) == 1

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

    def test_vertex_count_must_be_positive_on_direct_construction(self):
        with pytest.raises(ParseError, match="vertex count must be >= 1, got 0"):
            Graph(0, [])

    @pytest.mark.parametrize(
        "row",
        [
            (0, 1, "1.0"),
            (0, 1, b"1.0"),
            ("0", 1, 1.0),
            (0, 1, None),
            (0, 1, 1 + 0j),
            # real, but with no float value: too large for one, or a signaling NaN
            (0, 1, 10**400),
            (0, 1, Fraction(10**400)),
            (0, 1, Decimal("sNaN")),
            # a sequence among numbers, which numpy cannot make one column of
            (0, 1, [1.0]),
            ([0], 1, 1.0),
            (0, 1, np.array([1.0])),
        ],
    )
    @pytest.mark.parametrize("n", [3, SMALL_GRAPH_EDGES + 2])
    def test_value_that_is_not_a_number_named(self, row, n):
        # a path, then the bad row: at n = 3 a small graph, at SMALL_GRAPH_EDGES + 2 one past the small path
        with pytest.raises(ParseError, match=f"^edge {n - 1}: "):
            Graph(n, [(v - 1, v, 1.0) for v in range(1, n)] + [row])

    @pytest.mark.parametrize("row", [(0, 1, [1.0]), (0, 1, [1.0, 2.0]), ([0], [1], 1.0), (0, 1, np.array([1.0]))])
    def test_sequence_in_every_row_named(self, row):
        # numpy makes such a column with one more axis, or more than one value per edge
        with pytest.raises(ParseError, match="^edge 0: "):
            Graph(2, [row])

    def test_fraction_and_decimal_weights_are_read_as_floats(self):
        g = Graph(3, [(0, 1, Fraction(1, 3)), (1, 2, Decimal("0.1")), (0, 2, 2)])
        assert g.w.tolist() == [1 / 3, 0.1, 2.0]

    def test_single_vertex(self):
        g = load_graph("1 0\n")
        assert (g.n, g.m) == (1, 0)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(0, 1), (1, 2)], "edge 0: expected \\(u, v, w\\), got 2 values"),
            ([(0, 1, 1.0, 7), (1, 2, 1.0, 7)], "edge 0: expected \\(u, v, w\\), got 4 values"),
            ([(0, 1, 1.0), (1, 2), (0, 2, 1.0)], "edge 1: expected \\(u, v, w\\), got 2 values"),
            ([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0, 7)], "edge 2: expected \\(u, v, w\\), got 4 values"),
            ([(0, 1, 1.0), ()], "edge 1: expected \\(u, v, w\\), got 0 values"),
        ],
    )
    def test_row_that_is_not_a_triple_named(self, rows, message):
        with pytest.raises(ParseError, match=message):
            Graph(3, rows)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([5], "^edge 0: expected \\(u, v, w\\), got 5$"),
            ([(0, 1, 1.0), None], "^edge 1: expected \\(u, v, w\\), got None$"),
            (None, "^edges must be an iterable of \\(u, v, w\\) rows, got None$"),
        ],
    )
    def test_row_or_edge_list_that_is_no_sequence_named(self, edges, message):
        with pytest.raises(ParseError, match=message):
            Graph(2, edges)

    @pytest.mark.parametrize("n", [2.0, 3.5, "3", None, np.float64(3)])
    def test_vertex_count_that_is_not_an_integer_named(self, n):
        with pytest.raises(ParseError, match=f"^vertex count must be an integer, got {re.escape(repr(n))}$"):
            Graph(n, [(0, 1, 1.0), (1, 2, 1.0)])

    @pytest.mark.parametrize("n", [np.int64(3), np.uint8(3)])
    def test_vertex_count_of_an_integer_type_is_read_as_int(self, n):
        g = Graph(n, [(0, 1, 1.0), (1, 2, 1.0)])
        assert type(g.n) is int and g.n == 3

    @pytest.mark.parametrize("endpoint", [Decimal("NaN"), Decimal("sNaN")])
    @pytest.mark.parametrize("n", [3, SMALL_GRAPH_EDGES + 2])
    def test_decimal_nan_endpoint_named(self, endpoint, n):
        # as a float endpoint is: Decimal NaNs signal when compared with the range
        with pytest.raises(ParseError, match=f"^edge {n - 1}: endpoints must be integers"):
            Graph(n, [(v - 1, v, 1.0) for v in range(1, n)] + [(0, endpoint, 1.0)])

    def test_int64_beside_uint64_endpoints_build(self):
        # numpy reads the two kinds together as float64, so only the edge-by-edge walk finds every edge valid
        g = Graph(3, [(np.uint64(0), np.int64(1), 1.0), (np.int64(2), np.uint64(1), 2.0)])
        assert (g.u.dtype, g.u.tolist(), g.v.tolist(), g.w.tolist()) == (np.int64, [0, 1], [1, 2], [1.0, 2.0])


# few distinct weights, -0.0 beside 0.0, and values each check rejects
_SMALL_WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]), st.floats(0.0, 1e300))
_BAD_WEIGHTS = st.sampled_from(
    [math.nan, math.inf, -math.inf, -1.0, -5e-324, 1, 0, True, np.float64(1.5), np.float32(2.0), "1.0", b"1.0", None, 1 + 0j]
)
_BAD_ENDPOINTS = st.sampled_from(
    [-1, 99, True, False, np.int64(1), np.int32(0), 1.0, 2**70, -(2**70), "0", b"1", None, 1 + 0j]
)


@st.composite
def small_edge_lists(draw):
    """n and up to SMALL_GRAPH_EDGES rows: a random tree plus extra edges, some rows corrupted, in random order."""
    n = draw(st.integers(1, 12))
    rows = [[draw(st.integers(0, v - 1)), v, draw(_SMALL_WEIGHTS)] for v in range(1, n)]
    for _ in range(draw(st.integers(0, SMALL_GRAPH_EDGES - len(rows))) if n > 1 else 0):
        u = draw(st.integers(0, n - 1))
        rows.append([u, (u + draw(st.integers(1, n - 1))) % n, draw(_SMALL_WEIGHTS)])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            field = draw(st.integers(0, 3))
            if field == 3:
                row[1] = row[0]  # a self-loop
            else:
                row[field] = draw(_BAD_WEIGHTS if field == 2 else _BAD_ENDPOINTS)
    if rows and draw(st.booleans()):  # drop an edge: the graph may come apart
        del rows[draw(st.integers(0, len(rows) - 1))]
    rows = [(v, u, w) if draw(st.booleans()) else (u, v, w) for u, v, w in rows]
    return n, draw(st.permutations(rows))


def built(n: int, rows: list[tuple], columns: bool):
    """Graph(n, rows), or Graph._from_columns on lists, as comparable data, or the exception's type and text."""
    try:
        g = Graph._from_columns(n, *map(list, zip(*rows))) if columns and rows else Graph(n, rows)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = (g.u, g.v, g.w, g.order)
    assert not any(a.flags.writeable for a in arrays)
    return g.n, g.m, [(a.dtype.str, a.tobytes()) for a in arrays]


class TestSmallGraphPath:
    """Graphs of at most SMALL_GRAPH_EDGES edges of Python numbers are checked and sorted in Python."""

    @settings(max_examples=400, deadline=None)
    @given(small_edge_lists(), st.booleans())
    def test_same_graph_or_error_as_the_array_path(self, instance, columns):
        n, rows = instance
        small = built(n, rows, columns)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "SMALL_GRAPH_EDGES", -1)  # every edge list takes the array checks and argsort
            assert built(n, rows, columns) == small

    def test_python_numbers_take_the_small_path(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("array checks")

        monkeypatch.setattr(graph, "_edge_columns", unreachable)
        g = Graph(3, [(1, 0, 2.0), (2, 1, -0.0), (0, 2, 0.0)])
        assert (g.u.tolist(), g.v.tolist(), g.order.tolist()) == ([0, 1, 0], [1, 2, 2], [1, 2, 0])
        assert math.copysign(1.0, g.w[1]) == -1.0
        load_graph(TRIANGLE_TEXT)
        # an integer weight or a numpy scalar is left to the array checks
        for rows in ([(0, 1, 1), (1, 2, 1.0)], [(0, 1, 1.0), (1, np.int64(2), 1.0)]):
            with pytest.raises(AssertionError, match="array checks"):
                Graph(3, rows)


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

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError, match="empty tree file"):
            load_tree("", triangle())

    def test_single_vertex_tree(self):
        g = load_graph("1 0\n")
        t = load_tree("indices\n", g)
        assert t.edge_ids == ()


class TestTreeWeight:
    @pytest.mark.parametrize("ids,expected", [((0, 1), 3.0), ((0, 2), 4.0), ((1, 2), 5.0)])
    def test_triangle_weights(self, ids, expected):
        g = triangle()
        assert tree_weight(g, spanning_tree(g, ids)) == expected


class TestTreeOfAnotherGraph:
    """tree_weight and serialize_tree check a tree's size against the graph, as a verify does, before they read its ids."""

    @pytest.mark.parametrize(
        "other",
        [
            Graph(3, [(0, 1, 1.0), (1, 2, 2.0)]),  # the triangle's tree (1, 2) fits its edge count, not its 2 ids
            Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]),  # 3 edge ids like the triangle, one vertex more
        ],
    )
    @pytest.mark.parametrize(
        "call", [tree_weight, serialize_tree, lambda g, t: serialize_tree(g, t, "pairs")], ids=["weight", "indices", "pairs"]
    )
    def test_rejected_with_not_spanning_error(self, other, call):
        t = spanning_tree(triangle(), (1, 2))
        with pytest.raises(NotSpanningError, match=f"tree of 2 edges over 3 edge ids is not one of Graph\\(n={other.n}, m={other.m}\\)"):
            call(other, t)


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
        assert g2.columns == g.columns
        assert serialize_graph(g2) == canonical

    def test_tree_round_trip_both_formats(self):
        g = triangle()
        t = spanning_tree(g, (0, 1))
        assert load_tree(serialize_tree(g, t, "indices"), g).edge_ids == (0, 1)
        assert load_tree(serialize_tree(g, t, "pairs"), g).edge_ids == (0, 1)
        with pytest.raises(ValueError, match="unknown tree format 'csv'"):
            serialize_tree(g, t, "csv")


class TestSpanningInvariant:
    @settings(max_examples=100, deadline=None)
    @given(graph_texts, st.randoms(use_true_random=False))
    def test_valid_trees_have_one_component(self, text, rnd):
        g = load_graph(text)
        # greedy randomized spanning tree: shuffle then Kruskal-style accept
        order = list(range(g.m))
        rnd.shuffle(order)
        uf = UnionFind(g.n)
        us, vs, _ = g.columns
        ids = [i for i in order if uf.union(us[i], vs[i])]
        t = spanning_tree(g, sorted(ids))
        assert len(t) == g.n - 1
        check = UnionFind(g.n)
        for i in t.edge_ids:
            assert check.union(us[i], vs[i])
        assert check.components == 1


def every_tree_kind(rng, monkeypatch) -> list[tuple[str, Graph, object]]:
    """(constructor, graph, tree) from every function that makes a SpanningTree, each load_tree path included."""
    small = triangle()
    big = random_connected_graph(60, 150, rng)  # 59 tree edges, above SMALL_GRAPH_EDGES
    mst = kruskal_mst(big)
    loadtxt, fast = np.loadtxt, []
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: fast.append(1) or loadtxt(*a, **k))
    trees = [("load_tree fast", big, load_tree(serialize_tree(big, mst), big))]
    assert fast == [1]
    trees += [
        ("load_tree line by line", big, load_tree(serialize_tree(big, mst).replace("\n", " \n"), big)),
        ("load_tree small", small, load_tree("indices\n0\n1\n", small)),
        ("load_tree pairs", big, load_tree(serialize_tree(big, mst, "pairs"), big)),
        ("kruskal_mst", big, mst),
        ("improve", small, improve(small, spanning_tree(small, (0, 2)), Witness(1, 2))),
        ("random_spanning_tree", big, random_spanning_tree(big, rng)),
        ("perturbed_mst", big, perturbed_mst(big, rng)),
        ("spanning_tree of an int64 array", big, spanning_tree(big, np.array(mst.edge_ids))),
        ("spanning_tree of numpy scalars and bools", small, spanning_tree(small, [np.int64(2), True])),
    ]
    assert fast == [1]
    return trees


class TestSpanningTreeContract:
    def test_edge_ids_are_python_ints_from_every_constructor(self, rng, monkeypatch):
        for how, _, t in every_tree_kind(rng, monkeypatch):
            assert type(t.edge_ids) is tuple and all(type(i) is int for i in t.edge_ids), how
            assert json.loads(json.dumps(list(t.edge_ids))) == list(t.edge_ids), how

    def test_mask_is_read_only_and_exactly_the_ids(self, rng, monkeypatch):
        for how, g, t in every_tree_kind(rng, monkeypatch):
            assert t.in_tree.dtype == bool and t.in_tree.shape == (g.m,), how
            assert np.flatnonzero(t.in_tree).tolist() == sorted(t.edge_ids), how
            with pytest.raises(ValueError):
                t.in_tree[0] = not t.in_tree[0]
            with pytest.raises(ValueError):
                t.in_tree.flags.writeable = True

    def test_in_answers_as_the_id_set(self, rng):
        g = random_connected_graph(40, 100, rng)
        for t in (random_spanning_tree(g, rng), spanning_tree(triangle(), (0, 1)), spanning_tree(triangle(), (0, 2))):
            ids = frozenset(t.edge_ids)
            for i in range(-3, len(t.in_tree) + 3):
                assert (i in t) == (np.int64(i) in t) == (i in ids)
            # bool members are 0 and 1; a True index on a bool array would add an axis instead
            assert (True in t, False in t) == (True in ids, False in ids)
            for x in (10**30, -(10**30), 1.5, float(t.edge_ids[0]), np.float64(0.0), "0", None, [0]):
                assert x not in t

    def test_equality_and_hash_read_edge_ids_only(self, rng):
        g = random_connected_graph(50, 120, rng)
        t = random_spanning_tree(g, rng)
        same = load_tree(serialize_tree(g, t), g)
        assert same is not t and same.in_tree is not t.in_tree
        assert same == t and hash(same) == hash(t) and {same, t} == {t}
        assert spanning_tree(g, t.edge_ids[::-1]) != t  # the order of the ids is part of the tree
        assert "in_tree" not in repr(t)


def some_graphs(rng) -> list[Graph]:
    """A graph of the small path, one of the array path, and one loaded by np.loadtxt."""
    big = random_connected_graph(60, 150, rng)
    return [triangle(), big, load_graph(serialize_graph(big))]


class TestColumnsContract:
    def test_columns_are_read_only_views_of_the_arrays(self, rng):
        for g in some_graphs(rng):
            for view, column in zip(g.columns, (g.u, g.v, g.w)):
                assert isinstance(view, memoryview) and view.readonly
                assert np.shares_memory(np.asarray(view), column)
                with pytest.raises(TypeError):
                    view[0] = view[1]
            us, vs, ws = g.columns
            assert {*map(type, us), *map(type, vs)} == {int} and set(map(type, ws)) == {float}
            assert not any(isinstance(x, memoryview) for x in vars(g).values())  # made per call, never kept


class TestPickle:
    @pytest.mark.parametrize(
        "round_trip",
        [lambda x: pickle.loads(pickle.dumps(x, 0)), lambda x: pickle.loads(pickle.dumps(x, -1)), copy.deepcopy],
        ids=["protocol 0", "highest protocol", "deepcopy"],
    )
    def test_round_trip_is_equal_and_read_only(self, rng, round_trip):
        for g in some_graphs(rng):
            keys, ids = g.pair_columns()  # cached on the graph, yet not pickled
            adj_oracle(g)  # its memoryviews of the pair columns stay on the oracle: a memoryview cannot be pickled
            g.columns  # nor are these kept on the graph
            t = random_spanning_tree(g, rng)
            g2, t2 = round_trip((g, t))
            assert (g2.n, g2.m) == (g.n, g.m)
            for name in ("u", "v", "w", "order"):
                a, b = getattr(g, name), getattr(g2, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                with pytest.raises(ValueError):
                    b[0] = b[-1]
                with pytest.raises(ValueError):
                    b.flags.writeable = True
            assert np.shares_memory(np.asarray(g2.columns[2]), g2.w)
            for a, b in zip((keys, ids), g2.pair_columns()):  # rebuilt, not shared with the original
                assert b.dtype == np.int64 and a.tobytes() == b.tobytes() and not np.shares_memory(a, b)
                with pytest.raises(ValueError):
                    b.flags.writeable = True
            assert t2 == t and t2.in_tree.tobytes() == t.in_tree.tobytes()
            with pytest.raises(ValueError):
                t2.in_tree[0] = not t2.in_tree[0]
            with pytest.raises(ValueError):
                t2.in_tree.flags.writeable = True
            assert classical_verify(g2, t2, edge_oracle(g2)) == classical_verify(g, t, edge_oracle(g))


# One token's replacements in the fast-parse differential: each is a field
# int() or float() reads differently from a plain decimal, or rejects, or
# a vertex or edge index out of range.
ODD_TOKENS = ["1_0", "+3", "-1", "٣", "0x10", "3.0", "1e3", "inf", "nan", "99999999999999999999999", "1e400"]
ODD_TOKENS += ["0003", "-0.0", "1e-5", ".5", "5.", "1e", "+-1", "1..2", "12345678901234567890", "x", "\x00", "100000"]
ODD_TOKENS += ["-0", "0000000000000000000001"]


def mutate(rng, text: str) -> str:
    """text with one token replaced, or a line dropped, duplicated or split, or its separators varied."""
    lines = text.splitlines()
    i = int(rng.integers(len(lines)))
    kinds = ["token", "token", "token", "drop", "dup", "split", "space", "tab", "crlf", "blank", "no-eol", "lead", "trail"]
    kind = rng.choice(kinds)
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
    elif kind == "lead":
        lines[i] = " " + lines[i]
    elif kind == "trail":
        lines[i] += " "
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


# fields of [0-9.eE+-]{0,25}: any such text, and the integer and float shapes its uniform draw rarely makes
fields_of_float_characters = st.one_of(
    st.text("0123456789.eE+-", max_size=25),
    st.from_regex(r"[+-]?[0-9]{1,24}", fullmatch=True),
    st.from_regex(r"[+-]?[0-9]{0,9}\.?[0-9]{0,9}([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)


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

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(fields_of_float_characters, st.sampled_from(["u", "v", "w", "index"]), st.integers(0, SMALL_GRAPH_EDGES))
    def test_any_field_of_float_characters_loads_as_by_the_line_parser(self, token, field, row):
        # the layout check admits the file, so numpy parses the field: where it accepts the field,
        # its value must be int()'s or float()'s; where it rejects it, the line parser takes over
        rng = np.random.default_rng(12)
        g = random_connected_graph(SMALL_GRAPH_EDGES + 8, 3 * SMALL_GRAPH_EDGES, rng)
        index = field == "index"
        text = serialize_tree(g, random_spanning_tree(g, rng)) if index else serialize_graph(g)
        lines = text.splitlines()
        fields = lines[1 + row].split()
        fields[0 if index else "uvw".index(field)] = token
        lines[1 + row] = " ".join(fields)
        mutated = "\n".join(lines) + "\n"

        def load(t):
            return outcome(load_tree, t, g) if index else outcome(load_graph, t)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(graph, "_fast_fields", lambda *args: None)
            by_line = load(mutated)
        assert load(mutated) == by_line

    @pytest.mark.parametrize("token", ["1e3", "3.0", "+3", "-0", "12345678901234567890", "0000000000000000000001", "-1"])
    @pytest.mark.parametrize("field", ["u", "v", "index"])
    def test_integer_fields_of_float_characters_reach_numpy(self, monkeypatch, token, field):
        # the guard checks only the layout: numpy rejects "1e3", "3.0" and an overflowing integer
        # itself, reads "+3", "-0" and leading zeros as int() does, and a -1 index must still get
        # the line parser's error
        rng = np.random.default_rng(10)
        g = random_connected_graph(SMALL_GRAPH_EDGES + 8, 3 * SMALL_GRAPH_EDGES, rng)
        index = field == "index"
        text = serialize_tree(g, random_spanning_tree(g, rng)) if index else serialize_graph(g)
        head, k, rows = (0, 1, g.n - 1) if index else (2, 3, g.m)

        def guard(t):
            return graph._fast_fields(t.partition("\n")[2] if index else t, head, k, rows)

        def load(t):
            return outcome(load_tree, t, g) if index else outcome(load_graph, t)

        lines = text.splitlines()
        fields = lines[5].split()
        fields[0 if index else "uv".index(field)] = token
        lines[5] = " ".join(fields)
        mutated = "\n".join(lines) + "\n"
        assert guard(mutated) is not None
        with monkeypatch.context() as m:
            m.setattr(graph, "_fast_fields", lambda *args: None)
            by_line = load(mutated)
        assert load(mutated) == by_line

    @pytest.mark.parametrize("where", ["lead", "trail", "empty-u", "empty-v", "empty-w"])
    def test_a_stray_space_is_left_to_the_line_parser(self, monkeypatch, where):
        rng = np.random.default_rng(11)
        g = random_connected_graph(SMALL_GRAPH_EDGES + 8, 3 * SMALL_GRAPH_EDGES, rng)
        t = random_spanning_tree(g, rng)
        for text, head, k, rows in ((serialize_graph(g), 2, 3, g.m), (serialize_tree(g, t), 0, 1, g.n - 1)):
            if k == 1 and where.startswith("empty"):
                continue  # an index line has no space to keep
            lines = text.splitlines()
            u, v, w = (lines[3].split() + ["", ""])[:3]
            # lead and trail add a space; the empty-* cases keep two spaces but leave a field empty
            lines[3] = {
                "lead": " " + lines[3],
                "trail": lines[3] + " ",
                "empty-u": f" {v} {w}",
                "empty-v": f"{u}  {w}",
                "empty-w": f"{u} {v} ",
            }[where]
            mutated = "\n".join(lines) + "\n"
            if where.startswith("empty"):
                # the separators are right, so numpy sees the empty field, and must reject it
                assert graph._load_graph_fast(mutated) is None
            else:
                assert graph._fast_fields(mutated if head else mutated.partition("\n")[2], head, k, rows) is None
            load = load_graph if head else lambda x: load_tree(x, g)
            with monkeypatch.context() as m:
                m.setattr(graph, "_fast_fields", lambda *args: None)
                by_line = outcome(load, mutated)
            assert outcome(load, mutated) == by_line
