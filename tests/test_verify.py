"""Verification verdicts, witnesses, and query accounting."""

from __future__ import annotations

import math

import pytest

from mstverify import (
    Graph,
    classical_verify,
    kruskal_mst,
    quantum_verify,
    random_connected_graph,
    random_spanning_tree,
    tree_weight,
)
from mstverify import verify
from mstverify.boruvka import build_boruvka_tree
from mstverify.generate import perturbed_mst
from mstverify.graph import spanning_tree
from mstverify.grover import SearchSpace, bbht_cutoff
from mstverify.verify import InvalidWitnessError, Witness, improve

from .conftest import adj_oracle, edge_oracle, path_graph, triangle, whole_tree
from .reference import is_violating, pair_min

RESTARTS = math.ceil(math.log2(1 / 0.01))  # default delta


class TestIsViolating:
    def test_lighter_chord_violates(self):
        g = triangle()
        t = spanning_tree(g, (0, 2))  # weight 4 tree
        b = build_boruvka_tree(g, t, edge_oracle(g))
        assert is_violating(g, t, b, g.edges[1], edge_oracle(g))

    def test_heavier_chord_does_not_violate(self):
        g = triangle()
        t = spanning_tree(g, (0, 1))  # the MST
        b = build_boruvka_tree(g, t, edge_oracle(g))
        assert not is_violating(g, t, b, g.edges[2], edge_oracle(g))

    def test_tree_edge_never_violates(self):
        g = triangle()
        t = spanning_tree(g, (0, 1))
        b = build_boruvka_tree(g, t, edge_oracle(g))
        o = edge_oracle(g)
        assert not is_violating(g, t, b, g.edges[0], o)
        assert o.classical_queries == 0  # rejected before any weight lookup

    def test_equal_weight_does_not_violate(self):
        # C4 with all weights equal: any tree is minimal, chords tie
        g = Graph(4, [(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0), (0, 3, 2.0)])
        t = spanning_tree(g, (0, 1, 2))
        b = build_boruvka_tree(g, t, edge_oracle(g))
        assert not is_violating(g, t, b, g.edges[3], edge_oracle(g))

    def test_costs_one_weight_query(self):
        g = triangle()
        t = spanning_tree(g, (0, 2))
        b = build_boruvka_tree(g, t, edge_oracle(g))
        o = edge_oracle(g)
        is_violating(g, t, b, g.edges[1], o)
        assert o.classical_queries == 1


class TestClassicalVerify:
    def test_minimal_triangle(self):
        g = triangle()
        verdict, report = classical_verify(g, spanning_tree(g, (0, 1)), edge_oracle(g))
        assert verdict.minimal
        assert report.classical_weight_queries == 3  # (n-1) + |E-T|
        assert report.mode == "classical"

    def test_non_minimal_triangle(self):
        g = triangle()
        verdict, report = classical_verify(g, spanning_tree(g, (0, 2)), edge_oracle(g))
        assert not verdict.minimal
        assert verdict.witness == Witness(violating_edge_id=1, replaced_edge_id=2)
        assert verdict.improved_tree.edge_ids == (0, 1)
        assert verdict.weight_delta == -1.0
        assert tree_weight(g, verdict.improved_tree) == 3.0

    def test_two_vertex_graph(self):
        g = path_graph([4.0])
        verdict, report = classical_verify(g, whole_tree(g), edge_oracle(g))
        assert verdict.minimal
        assert report.classical_weight_queries == 1

    def test_witness_is_first_in_weight_id_order(self, rng):
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(4, 30)), None, rng)
            t = random_spanning_tree(g, rng)
            verdict, _ = classical_verify(g, t, edge_oracle(g))
            if verdict.minimal:
                continue
            b = build_boruvka_tree(g, t, edge_oracle(g))
            violators = [
                e.id
                for e in g.edges
                if e.id not in t and e.w < b.path_max(e.u, e.v).max_weight
            ]
            expected = min(violators, key=lambda i: g.edges[i].key)
            assert verdict.witness.violating_edge_id == expected


class TestKruskal:
    def test_triangle(self):
        g = triangle()
        mst = kruskal_mst(g)
        assert mst.edge_ids == (0, 1)
        assert tree_weight(g, mst) == 3.0

    def test_tree_graph_is_its_own_mst(self):
        g = path_graph([5.0, 1.0, 7.0])
        assert kruskal_mst(g).edge_ids == (0, 1, 2)

    def test_verdict_equivalence_sample(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 40))
            g = random_connected_graph(n, None, rng, weight_alphabet=[i / 8 for i in range(1, 17)])
            t = random_spanning_tree(g, rng)
            verdict, _ = classical_verify(g, t, edge_oracle(g))
            assert verdict.minimal == (tree_weight(g, t) == tree_weight(g, kruskal_mst(g)))


class TestImprove:
    def test_triangle_swap(self):
        g = triangle()
        t = spanning_tree(g, (0, 2))
        improved = improve(g, t, Witness(1, 2))
        assert improved.edge_ids == (0, 1)
        assert tree_weight(g, improved) == 3.0 < tree_weight(g, t)

    def test_rejects_incoming_edge_already_in_tree(self):
        g = triangle()
        with pytest.raises(InvalidWitnessError):
            improve(g, spanning_tree(g, (0, 2)), Witness(0, 2))

    def test_rejects_outgoing_edge_not_in_tree(self):
        g = triangle()
        with pytest.raises(InvalidWitnessError):
            improve(g, spanning_tree(g, (0, 2)), Witness(1, 1))

    def test_rejects_edge_off_the_cycle_path(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 9.0), (0, 2, 5.0)])
        t = spanning_tree(g, (0, 1, 2))
        # edge 3 = (0,2) closes the cycle 0-1-2; edge 2 = (2,3) is off it
        with pytest.raises(InvalidWitnessError):
            improve(g, t, Witness(3, 2))

    def test_rejects_non_decreasing_swap(self):
        g = triangle()
        t = spanning_tree(g, (0, 1))
        with pytest.raises(InvalidWitnessError):
            improve(g, t, Witness(2, 1))  # 3.0 >= 2.0

    def test_random_witness_swaps_stay_spanning(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 40))
            g = random_connected_graph(n, None, rng)
            t = random_spanning_tree(g, rng)
            verdict, _ = classical_verify(g, t, edge_oracle(g))
            if verdict.minimal:
                continue
            improved = verdict.improved_tree
            assert len(improved) == n - 1
            assert tree_weight(g, improved) < tree_weight(g, t)

    def test_weight_delta_identity(self, rng):
        # dyadic weights make both sums exact, so the identity is an equality
        for _ in range(30):
            g = random_connected_graph(12, 30, rng, weight_alphabet=[k / 64 for k in range(1, 129)])
            t = random_spanning_tree(g, rng)
            verdict, _ = classical_verify(g, t, edge_oracle(g))
            if verdict.minimal:
                continue
            assert tree_weight(g, verdict.improved_tree) == tree_weight(g, t) + verdict.weight_delta

    def test_improvement_chain_reaches_mst_weight(self, rng):
        g = random_connected_graph(24, 60, rng)
        t = random_spanning_tree(g, rng)
        target = tree_weight(g, kruskal_mst(g))
        for _ in range(10_000):
            verdict, _ = classical_verify(g, t, edge_oracle(g))
            if verdict.minimal:
                break
            assert verdict.weight_delta < 0
            t = verdict.improved_tree
        assert tree_weight(g, t) == pytest.approx(target, rel=1e-12)


class TestQuantumVerify:
    def test_triangle_matches_classical_any_seed(self):
        g = triangle()
        t = spanning_tree(g, (0, 2))
        expected, _ = classical_verify(g, t, edge_oracle(g))
        for seed in (0, 1, 7, 123):
            verdict, report = quantum_verify(g, t, edge_oracle(g), "edgelist", seed)
            assert not verdict.minimal
            assert verdict.witness == expected.witness
            assert report.mode == "edgelist"

    def test_minimal_tree_is_certain(self, rng):
        g = random_connected_graph(20, 50, rng)
        t = kruskal_mst(g)
        verdict, report = quantum_verify(g, t, edge_oracle(g), "edgelist", 9)
        assert verdict.minimal
        # k = 0: nothing can ever certify, every schedule runs to its cutoff
        domain = SearchSpace(g.m, lambda i: False).domain_size
        assert report.grover_iterations == RESTARTS * bbht_cutoff(domain)

    def test_adjacency_mode_agrees(self, rng):
        for seed in range(6):
            g = random_connected_graph(12, 30, rng)
            t = perturbed_mst(g, rng)
            expected, _ = classical_verify(g, t, edge_oracle(g))
            verdict, report = quantum_verify(g, t, adj_oracle(g), "adjacency", seed)
            assert verdict.minimal == expected.minimal
            assert report.mode == "adjacency"
            if not verdict.minimal:
                assert tree_weight(g, verdict.improved_tree) < tree_weight(g, t)

    def test_edgelist_budget(self, rng):
        for seed in range(8):
            n = int(rng.integers(5, 40))
            g = random_connected_graph(n, None, rng)
            t = random_spanning_tree(g, rng)
            o = edge_oracle(g)
            verdict, report = quantum_verify(g, t, o, "edgelist", seed)
            domain = SearchSpace(g.m, lambda i: False).domain_size
            assert report.classical_weight_queries == n - 1
            assert report.grover_iterations <= RESTARTS * bbht_cutoff(domain)
            assert report.quantum_oracle_applications == o.quantum_queries

    def test_adjacency_budget_linear_in_n(self, rng):
        g = random_connected_graph(32, 120, rng)
        t = kruskal_mst(g)  # worst case: full budget burned
        verdict, report = quantum_verify(g, t, adj_oracle(g), "adjacency", 4)
        assert verdict.minimal
        pairs = g.n * (g.n - 1) // 2
        domain = SearchSpace(pairs, lambda i: False).domain_size
        budget = RESTARTS * bbht_cutoff(domain)
        assert report.grover_iterations <= budget
        # O(n): domain <= n^2 so the budget is <= 9 * restarts * n plus slack
        assert budget <= 9 * RESTARTS * (g.n + 1)

    def test_analytic_mode_same_verdict_and_flag(self, rng):
        g = random_connected_graph(16, 40, rng)
        t = perturbed_mst(g, rng)
        classical, cr = classical_verify(g, t, edge_oracle(g))
        assert not cr.analytic_mode and not classical.minimal
        for mode, oracle in (("edgelist", edge_oracle), ("adjacency", adj_oracle)):
            verdict, report = quantum_verify(g, t, oracle(g), mode, 2)
            assert report.analytic_mode
            assert verdict.minimal == classical.minimal
            e_in = g.edges[verdict.witness.violating_edge_id]
            assert e_in.id not in t

    def test_mode_oracle_mismatch_rejected(self):
        g = triangle()
        with pytest.raises(ValueError):
            quantum_verify(g, spanning_tree(g, (0, 1)), edge_oracle(g), "adjacency", 0)

    def test_delta_validated(self):
        g = triangle()
        with pytest.raises(ValueError):
            quantum_verify(g, spanning_tree(g, (0, 1)), edge_oracle(g), "edgelist", 0, delta=0.7)

    def test_single_vertex_graph(self):
        g = Graph(1, [])
        verdict, report = quantum_verify(g, spanning_tree(g, ()), edge_oracle(g), "edgelist", 0)
        assert verdict.minimal
        assert report.quantum_oracle_applications == 0


def multigraph(rng, n: int) -> Graph:
    """Random connected graph with parallel edges and weights tied in {1, 2, 3}."""
    edges = [(int(rng.integers(i)), i, float(rng.integers(1, 4))) for i in range(1, n)]
    for _ in range(int(rng.integers(n, 3 * n))):
        a, c = rng.choice(n, 2, replace=False)
        edges.append((int(a), int(c), float(rng.integers(1, 4))))
    for _ in range(n // 2):  # a heavier, lighter or equal twin of an existing edge
        a, c, _ = edges[int(rng.integers(len(edges)))]
        edges.append((c, a, float(rng.integers(1, 4))))
    return Graph(n, [edges[i] for i in rng.permutation(len(edges))])


def all_pairs_marked(g: Graph, t, b) -> dict:
    """Reference adjacency marked set: every vertex pair in (a, b) order, a < b."""
    marked, p = {}, 0
    for a in range(g.n):
        for c in range(a + 1, g.n):
            e = pair_min(g, a, c)
            if e is not None and is_violating(g, t, b, e):
                marked[p] = e
            p += 1
    return marked


class TestSearchDomain:
    def test_adjacency_marks_exactly_the_all_pairs_set(self, rng):
        marked_total = parallel_graphs = 0
        for _ in range(40):
            g = multigraph(rng, 2 + int(rng.integers(15)))
            parallel_graphs += len({(e.u, e.v) for e in g.edges}) < g.m
            for t in (kruskal_mst(g), perturbed_mst(g, rng), random_spanning_tree(g, rng)):
                b = build_boruvka_tree(g, t, edge_oracle(g))
                space, edge_of = verify._search_space(g, t, b, "adjacency")
                expected = all_pairs_marked(g, t, b)
                assert space.logical_size == g.n * (g.n - 1) // 2
                assert space.marked_indices().tolist() == sorted(expected)
                assert all(edge_of(p) is e for p, e in expected.items())
                marked_total += len(expected)
        assert marked_total > 0 and parallel_graphs > 0

    @pytest.mark.parametrize("mode", ["edgelist", "adjacency"])
    def test_predicate_evaluated_at_most_m_times(self, rng, monkeypatch, mode):
        calls = []
        total = 0

        def counting_space(logical_size, marker, *args, **kwargs):
            # the search's only view of the predicate is the marker its SearchSpace receives
            def counting(i):
                calls.append(i)
                return marker(i)

            return SearchSpace(logical_size, counting, *args, **kwargs)

        monkeypatch.setattr(verify, "SearchSpace", counting_space)
        for i in range(12):
            g = multigraph(rng, 3 + int(rng.integers(20)))
            t = kruskal_mst(g) if i % 2 else perturbed_mst(g, rng)  # minimal runs every check
            oracle = edge_oracle(g) if mode == "edgelist" else adj_oracle(g)
            calls.clear()
            quantum_verify(g, t, oracle, mode, i)
            assert len(calls) <= g.m
            assert len(set(calls)) == len(calls)
            total += len(calls)
        assert total > 0
