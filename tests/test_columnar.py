"""Columnar graph storage and the batched path-max against their scalar references."""

from __future__ import annotations

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
)
from mstverify import graph
from mstverify.boruvka import SameVertexError, build_boruvka_tree
from mstverify.generate import perturbed_mst
from mstverify.graph import DisconnectedError, NotInGraphError, spanning_tree

from .conftest import adj_oracle, edge_oracle
from .reference import direct_path_max, is_violating, nodes, pair_min


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

    def test_edge_built_on_demand_and_cached(self):
        g = load_graph("3 3\n0 1 1.0\n2 1 2.0\n0 2 3.0\n")
        e = g.edge(1)
        assert (e.id, e.u, e.v, e.w) == (1, 1, 2, 2.0)
        assert g.edge(1) is e is g.edges[1]
        assert pair_min(g, 2, 1) is e
        assert [x.id for x in g.edges] == [0, 1, 2]
        with pytest.raises(IndexError):
            g.edge(3)

    def test_pair_min_breaks_weight_ties_by_id(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 1.0), (1, 0, 1.0), (0, 1, 1.0), (2, 1, 1.0)])
        assert pair_min(g, 1, 0).id == 2 and pair_min(g, 1, 2).id == 1
        assert dict(g.pair_min_ids()) == {(0, 1): 2, (1, 2): 1}
        assert pair_min(g, 0, 2) is None

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
        expected = tuple(pair_min(g, int(g.u[i]), int(g.v[i])).id for i in t.edge_ids)
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
            (["pairs", "0 1", "1 x", "0 2", "3 4"], GraphError, "line 3: non-integer endpoint"),
            (["pairs", "0 1", "2", "0 7", "3 4"], GraphError, "line 3: expected 'u v'"),
        ],
    )
    def test_tree_error_names_first_bad_line(self, body, error, message):
        g = load_graph("5 4\n0 1 1\n1 2 1\n2 3 1\n3 4 1\n")
        with pytest.raises(error, match=message):
            load_tree("\n".join(body) + "\n", g)


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
            if u.size > graph.SMALL_GRAPH_EDGES and u.size >= n - 1 and k > 1:
                checked += 1
                with pytest.raises(DisconnectedError, match=f"graph has {k} components"):
                    Graph(n, edges)
        assert checked >= 20


class TestPathMaxBatch:
    def test_agrees_with_scalar_and_direct(self, rng):
        for n in [2, 3, 4, 5, 8, 17, 64, 200] + [int(x) for x in rng.integers(2, 201, size=12)]:
            g = random_tree_graph(rng, n)
            t = spanning_tree(g, range(g.m))
            b = build_boruvka_tree(g, t, edge_oracle(g))
            us, vs = np.triu_indices(n, 1) if n <= 64 else rng.choice(n, (2, 3000))
            keep = us != vs
            us, vs = us[keep], vs[keep]
            max_w, max_id = b.path_max_batch(us, vs)
            for k, (a, c) in enumerate(zip(us.tolist(), vs.tolist())):
                fast = b.path_max(a, c)
                assert (fast.max_weight, fast.max_edge_id) == (max_w[k], max_id[k])
                if k % 17 == 0:
                    slow = direct_path_max(g, t, a, c)
                    assert (slow.max_weight, slow.max_edge_id) == (max_w[k], max_id[k])

    def test_pairs_meet_at_every_level(self, rng):
        g = random_tree_graph(rng, 150)
        b = build_boruvka_tree(g, spanning_tree(g, range(g.m)), edge_oracle(g))
        us, vs = np.triu_indices(g.n, 1)
        lca_level = np.zeros(us.size, dtype=np.int64)
        a, c = us.copy(), vs.copy()
        for level in range(1, b.height + 1):
            a, c = b.parent[a], b.parent[c]
            lca_level[(a == c) & (lca_level == 0)] = level
        assert set(lca_level.tolist()) == set(range(1, b.height + 1))
        max_w, max_id = b.path_max_batch(us, vs)
        for level in range(1, b.height + 1):
            k = int(np.flatnonzero(lca_level == level)[0])
            fast = b.path_max(int(us[k]), int(vs[k]))
            assert (fast.max_weight, fast.max_edge_id) == (max_w[k], max_id[k])

    def test_empty_batch_and_same_vertex(self, rng):
        g = random_tree_graph(rng, 9)
        b = build_boruvka_tree(g, spanning_tree(g, range(g.m)), edge_oracle(g))
        max_w, max_id = b.path_max_batch([], [])
        assert max_w.size == max_id.size == 0
        with pytest.raises(SameVertexError):
            b.path_max_batch([0, 3], [1, 3])

    def test_vertex_outside_tree_rejected(self, rng):
        g = random_tree_graph(rng, 9)
        b = build_boruvka_tree(g, spanning_tree(g, range(g.m)), edge_oracle(g))
        assert len(b.parent) > g.n  # ids n.. are internal nodes, not vertices
        for bad in (9, len(b.parent) - 1, -1):
            with pytest.raises(IndexError, match=f"vertex {bad} out of range"):
                b.path_max(0, bad)
            with pytest.raises(IndexError, match=f"vertex {bad} out of range"):
                b.path_max(bad, 0)
            with pytest.raises(IndexError, match=f"vertex {bad} out of range"):
                b.path_max_batch([0, 1, bad], [1, 2, 3])
            with pytest.raises(IndexError, match=f"vertex {bad} out of range"):
                b.path_max_batch([0, 1, 3], [1, 2, bad])

    def test_tree_arrays_read_only_and_match_nodes(self, rng):
        g = random_tree_graph(rng, 30)
        b = build_boruvka_tree(g, spanning_tree(g, range(g.m)), edge_oracle(g))
        with pytest.raises(ValueError):
            b.parent[0] = 1
        for node in nodes(b):
            assert b.parent[node.id] == (-1 if node.parent is None else node.parent)
            if node.parent is not None:
                assert (b.branch_w[node.id], b.branch_id[node.id]) == (node.branch_weight, node.branch_edge_id)


def reference_scan(g, t, oracle):
    """Edge-by-edge classical scan: is_violating per candidate in (w, id) order."""
    b = build_boruvka_tree(g, t, oracle)
    return next((e for e in sorted(g.edges, key=lambda e: e.key) if is_violating(g, t, b, e, oracle)), None)


class TestBatchedScan:
    @pytest.mark.parametrize("n,extra", [(5, 4), (9, 30), (40, 150)])  # scalar and batched scans
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
                        assert verdict.witness.violating_edge_id == expected.id
                    assert report.classical_weight_queries == reference_oracle.classical_queries

    @pytest.mark.parametrize("n,extra", [(5, 6), (60, 400)])
    def test_builds_at_most_n_edges(self, rng, monkeypatch, n, extra):
        built = []
        init = graph.Edge.__init__

        def counting(self, *args):
            built.append(args[0])
            init(self, *args)

        monkeypatch.setattr(graph.Edge, "__init__", counting)
        for _ in range(6):
            g = tied_multigraph(rng, n, extra)
            for t in (kruskal_mst(g), random_spanning_tree(g, rng)):
                built.clear()
                verdict, _ = classical_verify(g, t, edge_oracle(g))
                allowed = set(t.edge_ids) | ({verdict.witness.violating_edge_id} if verdict.witness else set())
                assert len(built) <= g.n and set(built) <= allowed

    def test_parametrized_sizes_cover_both_scans(self):
        # tied_multigraph(5, 4) has 9 edges, (9, 30) has 41 and (40, 150) has 202
        assert 9 <= graph.SMALL_GRAPH_EDGES < 41


def perturbed_reference(g, rng):
    """perturbed_mst with one direct_path_max DFS per non-tree edge."""
    mst = kruskal_mst(g)
    candidates = []
    for e in g.edges:
        if e.id in mst:
            continue
        answer = direct_path_max(g, mst, e.u, e.v)
        if e.w > answer.max_weight:
            candidates.append((e.id, answer.max_edge_id))
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
