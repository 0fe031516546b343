"""Columnar graph storage and the batched path-max against their scalar references."""

from __future__ import annotations

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from mstverify import (
    Graph,
    GraphError,
    classical_verify,
    kruskal_mst,
    load_graph,
    load_tree,
    random_connected_graph,
    random_spanning_tree,
    serialize_tree,
)
from mstverify import graph
from mstverify.boruvka import build_boruvka_tree
from mstverify.generate import perturbed_mst
from mstverify.graph import DisconnectedError, NotInGraphError, pair_index, spanning_tree

from .conftest import adj_oracle, edge_oracle
from .reference import charge_lookup, direct_path_max, is_violating, nodes, pair_min, path_max


def tied_multigraph(rng, n: int, extra: int) -> Graph:
    """Connected graph with parallel edges and weights tied in {1, 2, 3}."""
    edges = [(int(rng.integers(i)), i, float(rng.integers(1, 4))) for i in range(1, n)]
    for _ in range(extra):
        a, c = rng.choice(n, 2, replace=False)
        edges.append((int(a), int(c), float(rng.integers(1, 4))))
    for _ in range(n // 3):  # a twin of an existing edge, endpoints swapped
        a, c, _ = edges[int(rng.integers(len(edges)))]
        edges.append((c, a, float(rng.integers(1, 4))))
    return Graph(n, [edges[i] for i in rng.permutation(len(edges))])


def random_tree_graph(rng, n: int) -> Graph:
    """A random tree on n vertices with tied weights: the whole graph is the tree."""
    return Graph(n, [(int(rng.integers(v)), v, float(rng.integers(1, 4))) for v in range(1, n)])


class TestColumnarGraph:
    def test_columns_are_read_only(self):
        g = load_graph("3 3\n0 1 1.0\n2 1 2.0\n0 2 3.0\n")
        for column in (g.u, g.v, g.w):
            with pytest.raises(ValueError):
                column[0] = 0
        with pytest.raises(ValueError):
            g.w[:] = 0.0
        with pytest.raises(ValueError):
            g.w.flags.writeable = True
        assert g.u.tolist() == [0, 1, 0] and g.v.tolist() == [1, 2, 2]

    @pytest.mark.parametrize("n", [2, 5, 33])
    def test_pair_index_numbers_pairs_in_triu_order(self, n):
        a_s, b_s = np.triu_indices(n, 1)
        assert pair_index(n, a_s, b_s).tolist() == list(range(n * (n - 1) // 2))
        assert [pair_index(n, a, b) for a, b in zip(a_s.tolist(), b_s.tolist())] == list(range(a_s.size))

    def test_pair_min_breaks_weight_ties_by_id(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 1.0), (1, 0, 1.0), (0, 1, 1.0), (2, 1, 1.0)])
        assert pair_min(g, 1, 0) == 2 and pair_min(g, 1, 2) == 1
        assert [column.tolist() for column in g.pair_columns()] == [[0, 2], [2, 1]]
        assert pair_min(g, 0, 2) is None
        g = load_graph("3 3\n0 1 1.0\n2 1 2.0\n0 2 3.0\n")  # the row "2 1" is stored as (1, 2)
        assert pair_min(g, 2, 1) == pair_min(g, 1, 2) == 1

    @pytest.mark.parametrize("n,extra", [(2, 3), (6, 12), (40, 150)])
    def test_pair_columns_are_the_sorted_pair_map(self, rng, n, extra):
        """Keys in increasing order, each beside its minimum-(w, id) edge, on parallel edges with tied weights."""
        parallel = 0
        for _ in range(10):
            g = tied_multigraph(rng, n, extra)
            parallel += len(set(zip(g.u.tolist(), g.v.tolist()))) < g.m
            keys, ids = g.pair_columns()
            assert keys.dtype == ids.dtype == np.int64
            pairs = sorted(set(zip(g.u.tolist(), g.v.tolist())))
            assert keys.tolist() == [pair_index(n, a, b) for a, b in pairs]
            assert ids.tolist() == [pair_min(g, a, b) for a, b in pairs]
        assert parallel > 0

    def test_pair_columns_of_a_graph_without_edges_are_empty(self):
        keys, ids = Graph(1, []).pair_columns()
        assert keys.dtype == ids.dtype == np.int64 and keys.size == ids.size == 0

    def test_pair_columns_are_read_only(self, rng):
        for g in (tied_multigraph(rng, 5, 4), tied_multigraph(rng, 40, 150)):
            for column in g.pair_columns():
                with pytest.raises(ValueError):
                    column[0] = column[-1]
                with pytest.raises(ValueError):
                    column.flags.writeable = True

    def test_too_few_edges_rejected_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedError):
                Graph(50_000_000, [])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("m", [5, 80])
    def test_first_invalid_edge_named_at_every_size(self, m):
        good = [(i, i + 1, 1.0) for i in range(m)]
        cases = [
            ((2, 10**30, 1.0), "edge 3: endpoint out of range"),
            ((2, 2, 1.0), "edge 3: self-loop at vertex 2"),
            ((2, 3, float("nan")), "edge 3: weight must be finite"),
            ((2, 3, -1.0), "edge 3: weight must be finite"),
            ((2, 3.5, 1.0), "edge 3: endpoints must be integers"),
        ]
        for bad, message in cases:
            edges = good[:3] + [bad] + good[4:]
            edges[4] = (0, 0, 1.0)  # a later invalid edge must not be the one reported
            with pytest.raises(GraphError, match=message):
                Graph(m + 1, edges)

    @pytest.mark.parametrize("n,extra", [(6, 4), (40, 120)])
    def test_bulk_parse_matches_line_by_line(self, rng, n, extra):
        g = tied_multigraph(rng, n, extra)
        text = "\n\n".join(["  %d %d" % (g.n, g.m)] + [f"{u}\t{v}  {w!r} " for u, v, w in zip(*g.columns)])
        lines = [line.split() for line in text.splitlines() if line.split()]
        by_line = Graph(int(lines[0][0]), [(int(u), int(v), float(w)) for u, v, w in lines[1:]])
        bulk = load_graph(text)
        for a, b in ((bulk.u, by_line.u), (bulk.v, by_line.v), (bulk.w, by_line.w)):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        t = random_spanning_tree(g, rng)
        tree_text = "indices\n" + "\n".join(map(str, t.edge_ids)) + "\n"
        assert load_tree(tree_text, g).edge_ids == t.edge_ids
        pairs_text = "pairs\n" + "".join(f"{g.v[i]} {g.u[i]}\n" for i in t.edge_ids)
        expected = tuple(pair_min(g, int(g.u[i]), int(g.v[i])) for i in t.edge_ids)
        assert load_tree(pairs_text, g).edge_ids == expected

    @pytest.mark.parametrize(
        "body,message",
        [
            (["0 1 1", "1 2 x", "2 3 1", "3 4"], "line 3: malformed edge"),
            (["0 1 1", "1 2", "2 3 1", "3 4 x"], "line 3: expected 'u v w'"),
            (["0 1 1", "1 2 1", "2 3 1", "3 4 1 1"], "line 5: expected 'u v w'"),
            (["0 1 1", "1 2 1", "2 3 1", "3 4 1e"], "line 5: malformed edge"),
        ],
    )
    def test_graph_error_names_first_bad_line(self, body, message):
        with pytest.raises(GraphError, match=message):
            load_graph("5 4\n" + "\n".join(body) + "\n")

    @pytest.mark.parametrize(
        "body,error,message",
        [
            (["indices", "0", "9", "x", "3"], NotInGraphError, "line 3: index 9 is not an edge"),
            (["indices", "0", "x", "9", "3"], GraphError, "line 3: non-integer index"),
            (["indices", "0", "1", "2", "3 3"], GraphError, "line 5: expected one edge index"),
            (["pairs", "0 1", "0 7", "1 x", "3 4"], NotInGraphError, "line 3: vertex out of range"),
            (["pairs", "0 1", "0 2", "1 x", "3 4"], NotInGraphError, r"line 3: \(0, 2\) is not an edge"),
            # pair_index(n, a, a) is the index of (a - 1, n - 1): here of the non-edge (2, 4), and of the edge (3, 4)
            (["pairs", "0 1", "3 3", "1 x", "3 4"], NotInGraphError, r"line 3: \(3, 3\) is not an edge"),
            (["pairs", "0 1", "4 4", "1 x", "3 4"], NotInGraphError, r"line 3: \(4, 4\) is not an edge"),
            (["pairs", "0 1", "1 x", "0 2", "3 4"], GraphError, "line 3: non-integer endpoint"),
            (["pairs", "0 1", "2", "0 7", "3 4"], GraphError, "line 3: expected 'u v'"),
        ],
    )
    def test_tree_error_names_first_bad_line(self, body, error, message):
        g = load_graph("5 4\n0 1 1\n1 2 1\n2 3 1\n3 4 1\n")
        with pytest.raises(error, match=message):
            load_tree("\n".join(body) + "\n", g)


class TestPairMinima:
    """Every reader of the pair columns against the brute-force pair_min, on tied multigraphs with parallel edges."""

    @pytest.mark.parametrize("n,extra", [(2, 3), (6, 12), (17, 40)])
    def test_weight_of_every_ordered_pair(self, rng, n, extra):
        """weight(a, b) for every (a, b), a == b included, on a graph and on a pickled copy of it."""
        for _ in range(3):
            g = tied_multigraph(rng, n, extra)
            oracles = [adj_oracle(g)]
            oracles.append(adj_oracle(pickle.loads(pickle.dumps(g))))  # the copy rebuilds the pair columns
            for oracle in oracles:
                for a in range(n):
                    for b in range(n):
                        i = pair_min(g, a, b)
                        assert oracle.weight(a, b) == (math.inf if i is None else g.w[i]), (a, b)
                assert oracle.classical_queries == n * n

    @pytest.mark.parametrize("n,extra", [(2, 3), (6, 12), (17, 40)])
    def test_pairs_file_in_either_orientation(self, rng, n, extra):
        """Each line of a pairs file loads as its pair's minimum edge, written u v, v u or mixed."""
        for _ in range(5):
            g = tied_multigraph(rng, n, extra)
            t = random_spanning_tree(g, rng)
            expected = tuple(pair_min(g, int(g.u[i]), int(g.v[i])) for i in t.edge_ids)
            mixed = rng.integers(2, size=len(t)).tolist()
            for flips in ([0] * len(t), [1] * len(t), mixed):
                ends = [(g.v[i], g.u[i]) if flip else (g.u[i], g.v[i]) for i, flip in zip(t.edge_ids, flips)]
                assert load_tree("pairs\n" + "".join(f"{a} {b}\n" for a, b in ends), g).edge_ids == expected

    def test_serialize_refuses_a_heavier_parallel_tree_edge(self):
        """A pairs file names a pair, which loads as the pair's minimum edge: it cannot name a heavier one."""
        g = Graph(2, [(0, 1, 2.0), (0, 1, 1.0)])
        with pytest.raises(ValueError, match=r"tree edge 0 \(0, 1\) is not its pair's minimum-\(w, id\) edge 1"):
            serialize_tree(g, spanning_tree(g, [0]), "pairs")
        assert serialize_tree(g, spanning_tree(g, [0])) == "indices\n0\n"
        assert serialize_tree(g, spanning_tree(g, [1]), "pairs") == "pairs\n0 1\n"

    @pytest.mark.parametrize("n,extra", [(2, 3), (6, 12), (17, 40)])
    def test_serialize_round_trips_every_tree_of_pair_minima(self, rng, n, extra):
        """A tree of pair minima loads back equal from its pairs file; any other tree raises, naming its first heavier edge."""
        kept = refused = 0
        for _ in range(20):
            g = tied_multigraph(rng, n, extra)
            for t in (kruskal_mst(g), random_spanning_tree(g, rng)):
                heavier = [(i, pair_min(g, int(g.u[i]), int(g.v[i]))) for i in t.edge_ids]
                heavier = [(i, j) for i, j in heavier if i != j]
                if heavier:
                    (i, j), refused = heavier[0], refused + 1
                    with pytest.raises(ValueError, match=rf"tree edge {i} \(\d+, \d+\) is not its pair's minimum-\(w, id\) edge {j}:"):
                        serialize_tree(g, t, "pairs")
                else:
                    kept += 1
                    assert load_tree(serialize_tree(g, t, "pairs"), g) == t
        assert kept > 0 and refused > 0


def planted_components(rng, sizes: list[int], extra: int) -> tuple[int, list[tuple[int, int, float]]]:
    """A multigraph whose components are random connected blocks of the given sizes, vertices shuffled."""
    label = rng.permutation(sum(sizes))
    edges, first = [], 0
    for size in sizes:
        block = [(first + int(rng.integers(i)), first + i) for i in range(1, size)]
        block += [tuple(first + rng.choice(size, 2, replace=False)) for _ in range(extra if size > 1 else 0)]
        edges += [(int(label[a]), int(label[b]), float(rng.integers(1, 4))) for a, b in block]
        first += size
    return sum(sizes), [edges[i] for i in rng.permutation(len(edges))]


class TestConnectivity:
    def test_two_blocks_rejected_above_small_graph_cutoff(self, rng):
        n, edges = planted_components(rng, [20, 20], 21)
        assert len(edges) == 80 > graph.SMALL_GRAPH_EDGES
        with pytest.raises(DisconnectedError, match="graph has 2 components, expected 1"):
            Graph(n, edges)
        text = f"{n} {len(edges)}\n" + "".join(f"{u} {v} {w}\n" for u, v, w in edges)
        with pytest.raises(DisconnectedError, match="graph has 2 components, expected 1"):
            load_graph(text)

    def test_component_count_matches_union_find(self, rng):
        checked = 0
        union_find_sizes = set()  # whether each case is small enough for _component_count's union-find
        for _ in range(60):
            k = int(rng.integers(1, 8))
            sizes = [int(x) for x in rng.integers(1, 30, size=k)]
            n, edges = planted_components(rng, sizes, int(rng.integers(0, 40)))
            u = np.array([min(a, b) for a, b, _ in edges], dtype=np.int64)
            v = np.array([max(a, b) for a, b, _ in edges], dtype=np.int64)
            uf = graph.UnionFind(n)
            for a, b in zip(u.tolist(), v.tolist()):
                uf.union(a, b)
            assert graph._component_count(n, u, v) == uf.components == k
            union_find_sizes.add(u.size <= graph.UNION_FIND_EDGES)
            if u.size > graph.SMALL_GRAPH_EDGES and u.size >= n - 1 and k > 1:
                checked += 1
                with pytest.raises(DisconnectedError, match=f"graph has {k} components"):
                    Graph(n, edges)
        assert checked >= 20
        assert union_find_sizes == {True, False}

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_component_count_at_the_union_find_threshold(self, rng, k, extra):
        # UNION_FIND_EDGES edges take the union-find, one more the array rounds
        n, m = 40, graph.UNION_FIND_EDGES + extra
        block = n // k
        edges = set()
        for first in range(0, n, block):
            edges |= {(first + int(rng.integers(i)), first + i) for i in range(1, block)}
        while len(edges) < m:
            a, b = sorted((block * int(rng.integers(k)) + rng.choice(block, 2, replace=False)).tolist())
            edges.add((a, b))
        uv = np.array(sorted(edges), dtype=np.int64)[rng.permutation(m)]
        assert graph._component_count(n, uv[:, 0], uv[:, 1]) == k


class TestPathMaxBatch:
    def test_agrees_with_scalar_and_direct(self, rng):
        for n in [2, 3, 4, 5, 8, 17, 64, 200] + [int(x) for x in rng.integers(2, 201, size=12)]:
            g = random_tree_graph(rng, n)
            t = spanning_tree(g, range(g.m))
            b = build_boruvka_tree(g, t)
            us, vs = np.triu_indices(n, 1) if n <= 64 else rng.choice(n, (2, 3000))
            keep = us != vs
            us, vs = us[keep], vs[keep]
            max_w, max_id = b._climb(us, vs)
            for k, (a, c) in enumerate(zip(us.tolist(), vs.tolist())):
                fast = path_max(b, a, c)
                assert (fast.max_weight, fast.max_edge_id) == (max_w[k], max_id[k])
                if k % 17 == 0:
                    slow = direct_path_max(g, t, a, c)
                    assert (slow.max_weight, slow.max_edge_id) == (max_w[k], max_id[k])

    def test_pairs_meet_at_every_level(self, rng):
        g = random_tree_graph(rng, 150)
        b = build_boruvka_tree(g, spanning_tree(g, range(g.m)))
        us, vs = np.triu_indices(g.n, 1)
        lca_level = np.zeros(us.size, dtype=np.int64)
        a, c = us.copy(), vs.copy()
        for level in range(1, b.height + 1):
            a, c = b.parent[a], b.parent[c]
            lca_level[(a == c) & (lca_level == 0)] = level
        assert set(lca_level.tolist()) == set(range(1, b.height + 1))
        max_w, max_id = b._climb(us, vs)
        for level in range(1, b.height + 1):
            k = int(np.flatnonzero(lca_level == level)[0])
            fast = path_max(b, int(us[k]), int(vs[k]))
            assert (fast.max_weight, fast.max_edge_id) == (max_w[k], max_id[k])

    def test_empty_batch(self, rng):
        g = random_tree_graph(rng, 9)
        b = build_boruvka_tree(g, spanning_tree(g, range(g.m)))
        max_w, max_id = b._climb(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert max_w.size == max_id.size == 0

    def test_vertex_outside_tree_rejected(self, rng):
        g = random_tree_graph(rng, 9)
        b = build_boruvka_tree(g, spanning_tree(g, range(g.m)))
        assert len(b.parent) > g.n  # ids n.. are internal nodes, not vertices
        for bad in (9, len(b.parent) - 1, -1):
            with pytest.raises(IndexError, match=f"vertex {bad} out of range"):
                path_max(b, 0, bad)
            with pytest.raises(IndexError, match=f"vertex {bad} out of range"):
                path_max(b, bad, 0)

    def test_tree_arrays_read_only_and_match_nodes(self, rng):
        g = random_tree_graph(rng, 30)
        b = build_boruvka_tree(g, spanning_tree(g, range(g.m)))
        with pytest.raises(ValueError):
            b.parent[0] = 1
        for node in nodes(b):
            assert b.parent[node.id] == (-1 if node.parent is None else node.parent)
            if node.parent is not None:
                r = b.branch_rank[node.id]
                assert (b.rank_w[r], b.rank_id[r]) == (node.branch_weight, node.branch_edge_id)

    @pytest.mark.parametrize("n", [30, 300])  # the Python and the array phases
    def test_branch_ranks_are_read_only(self, rng, n):
        g = random_tree_graph(rng, n)
        b = build_boruvka_tree(g, spanning_tree(g, range(g.m)))
        for name in ("branch_rank", "rank_w", "rank_id"):
            with pytest.raises(ValueError):
                getattr(b, name)[0] = 0


def reference_scan(g, t, oracle):
    """Edge-by-edge classical scan after charging the build's tree edges: is_violating per candidate in (w, id) order; the first violator's id, or None."""
    for i in t.edge_ids:
        charge_lookup(oracle, i)
    b = build_boruvka_tree(g, t)
    ws = g.columns[2]
    return next((i for i in sorted(range(g.m), key=lambda i: (ws[i], i)) if is_violating(g, t, b, i, oracle)), None)


class TestBatchedScan:
    @pytest.mark.parametrize("n,extra", [(5, 4), (9, 30), (40, 150)])  # 9, 41 and 202 edges
    def test_same_witness_verdict_and_queries_as_reference_loop(self, rng, n, extra):
        for _ in range(15):
            g = tied_multigraph(rng, n, extra)
            for t in (kruskal_mst(g), perturbed_mst(g, rng), random_spanning_tree(g, rng)):
                for oracle in (edge_oracle, adj_oracle):
                    reference_oracle = oracle(g)
                    expected = reference_scan(g, t, reference_oracle)
                    verdict, report = classical_verify(g, t, oracle(g))
                    assert verdict.minimal == (expected is None)
                    if expected is not None:
                        assert verdict.witness.violating_edge_id == expected
                    assert report.classical_weight_queries == reference_oracle.classical_queries


def perturbed_reference(g, rng):
    """perturbed_mst with one direct_path_max DFS per non-tree edge."""
    mst = kruskal_mst(g)
    candidates = []
    for i, (u, v, w) in enumerate(zip(*g.columns)):
        if i in mst:
            continue
        answer = direct_path_max(g, mst, u, v)
        if w > answer.max_weight:
            candidates.append((i, answer.max_edge_id))
    if not candidates:
        return mst
    in_id, out_id = candidates[int(rng.integers(len(candidates)))]
    return spanning_tree(g, sorted([i for i in mst.edge_ids if i != out_id] + [in_id]))


def test_perturbed_mst_matches_dfs_reference():
    rng = np.random.default_rng(11)
    for seed in range(40):
        n = 2 + int(rng.integers(40))
        if seed % 2:
            g = tied_multigraph(rng, n, int(rng.integers(3 * n)))
        else:
            g = random_connected_graph(n, None, rng, weight_alphabet=[1.0, 2.0, 3.0])
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert perturbed_mst(g, a).edge_ids == perturbed_reference(g, b).edge_ids
        assert a.integers(1 << 30) == b.integers(1 << 30)  # same draws consumed
