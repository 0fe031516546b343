"""Verification verdicts, witnesses, and query accounting."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import numpy as np
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
from mstverify import grover, verify
from mstverify.boruvka import build_boruvka_tree
from mstverify.generate import perturbed_mst
from mstverify.graph import NotSpanningError, pair_index, spanning_tree
from mstverify.grover import SearchSpace, bbht_cutoff
from mstverify.oracle import InstrumentedOracle
from mstverify.verify import InvalidWitnessError, Witness, improve

from .conftest import adj_oracle, edge_oracle, path_graph, triangle, whole_tree
from .reference import chunked_bbht_search, direct_path_max, is_violating, loop_marked_indices, pair_min, path_max

DELTA = verify.DEFAULT_DELTA


class TestIsViolating:
    def test_lighter_chord_violates(self):
        g = triangle()
        t = spanning_tree(g, (0, 2))  # weight 4 tree
        b = build_boruvka_tree(g, t)
        assert is_violating(g, t, b, 1, edge_oracle(g))

    def test_heavier_chord_does_not_violate(self):
        g = triangle()
        t = spanning_tree(g, (0, 1))  # the MST
        b = build_boruvka_tree(g, t)
        assert not is_violating(g, t, b, 2, edge_oracle(g))

    def test_tree_edge_never_violates(self):
        g = triangle()
        t = spanning_tree(g, (0, 1))
        b = build_boruvka_tree(g, t)
        o = edge_oracle(g)
        assert not is_violating(g, t, b, 0, o)
        assert o.classical_queries == 0  # rejected before any weight lookup

    def test_equal_weight_does_not_violate(self):
        # C4 with all weights equal: any tree is minimal, chords tie
        g = Graph(4, [(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0), (0, 3, 2.0)])
        t = spanning_tree(g, (0, 1, 2))
        b = build_boruvka_tree(g, t)
        assert not is_violating(g, t, b, 3, edge_oracle(g))

    def test_costs_one_weight_query(self):
        g = triangle()
        t = spanning_tree(g, (0, 2))
        b = build_boruvka_tree(g, t)
        o = edge_oracle(g)
        is_violating(g, t, b, 1, o)
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
            b = build_boruvka_tree(g, t)
            us, vs, ws = g.columns
            violators = [i for i in range(g.m) if i not in t and ws[i] < path_max(b, us[i], vs[i]).max_weight]
            expected = min(violators, key=lambda i: (ws[i], i))
            assert verdict.witness.violating_edge_id == expected


class TestTreeOfAnotherGraph:
    """A tree is checked against the graph's size before any charge: it would read the other graph's ids."""

    @pytest.mark.parametrize(
        "other",
        [
            Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]),  # three ids, one too many, the triangle's m
            Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (0, 1, 2.0), (1, 2, 2.0)]),  # a mask of 5 edges
        ],
    )
    @pytest.mark.parametrize("mode", ["classical", "edgelist", "adjacency"])
    def test_rejected_before_any_charge(self, other, mode):
        g = triangle()
        t = spanning_tree(other, range(other.n - 1))
        oracle = adj_oracle(g) if mode == "adjacency" else edge_oracle(g)
        with pytest.raises(NotSpanningError, match="is not one of Graph\\(n=3, m=3\\)"):
            classical_verify(g, t, oracle) if mode == "classical" else quantum_verify(g, t, oracle)
        assert oracle.classical_queries == oracle.quantum_queries == 0


class TestOracleOfAnotherGraph:
    """An oracle is checked against the verify's graph before any charge: it would answer for the other graph's edges."""

    @pytest.mark.parametrize(
        "other",
        [
            Graph(3, [(0, 1, 1.0), (1, 2, 2.0)]),  # two edges: the triangle's edge 2 is past its ids
            Graph(3, [(0, 1, 5.0), (1, 2, 2.0), (0, 2, 3.0)]),  # the triangle's m, but another graph's weights
        ],
    )
    @pytest.mark.parametrize("model", ["edgelist", "adjacency"])
    @pytest.mark.parametrize("search", [False, True], ids=["classical", "quantum"])
    def test_rejected_before_any_charge(self, other, model, search):
        g = triangle()
        t = spanning_tree(g, (1, 2))
        oracle = InstrumentedOracle(other, model)
        with pytest.raises(ValueError, match="oracle is built over another graph than Graph\\(n=3, m=3\\)") as raised:
            quantum_verify(g, t, oracle) if search else classical_verify(g, t, oracle)
        assert raised.type is ValueError
        assert oracle.classical_queries == oracle.quantum_queries == 0


class TestSharedOracle:
    @pytest.mark.parametrize("model", ["edgelist", "adjacency"])
    @pytest.mark.parametrize("search", [False, True], ids=["classical", "quantum"])
    def test_report_counts_only_its_own_charges(self, rng, model, search):
        """Another caller's lookups on the verify's oracle leave its report as on a fresh oracle.

        The other caller is stood in for by a wrapper of the model's query
        that charges one extra lookup per call, as a thread sharing the
        oracle would between the verify's own lookups.
        """
        verdicts = set()
        for i in range(12):
            g = multigraph(rng, 2 + int(rng.integers(14)))
            t = (kruskal_mst(g), perturbed_mst(g, rng), random_spanning_tree(g, rng))[i % 3]

            def run(oracle):
                return quantum_verify(g, t, oracle, model, i) if search else classical_verify(g, t, oracle)

            expected = run(InstrumentedOracle(g, model))
            shared = InstrumentedOracle(g, model)
            query = shared.edge if model == "edgelist" else shared.weight

            def charged_twice(*args):
                query(*args)  # the other caller's lookup
                return query(*args)

            setattr(shared, query.__name__, charged_twice)
            assert run(shared) == expected
            assert shared.classical_queries == 2 * expected[1].classical_weight_queries >= 2 * (g.n - 1)
            verdicts.add(expected[0].minimal)
        assert verdicts == {True, False}


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
        # k = 0: nothing can ever certify, the schedule runs to its cutoff
        domain = SearchSpace(g.m, lambda: np.empty(0, np.int64)).domain_size
        assert report.grover_iterations == bbht_cutoff(domain, DELTA)

    @pytest.mark.parametrize("mode", ["edgelist", "adjacency"])
    def test_minimal_verdict_reports_the_first_schedules_of_its_stream(self, rng, mode):
        """At the default delta a minimal verdict reports the BbhtStats of the first schedule on default_rng(seed)."""
        g = random_connected_graph(12, 30, rng)
        t = kruskal_mst(g)
        logical = g.m if mode == "edgelist" else g.n * (g.n - 1) // 2
        unmarked = SearchSpace(logical, lambda: np.empty(0, np.int64))
        for seed in (0, 1, 7, 2**63):
            oracle = edge_oracle(g) if mode == "edgelist" else adj_oracle(g)
            verdict, report = quantum_verify(g, t, oracle, mode, seed)
            _, schedule = chunked_bbht_search(unmarked, seed, bbht_cutoff(unmarked.domain_size, DELTA))
            assert verdict.minimal
            assert report.grover_iterations == schedule.grover_iterations == bbht_cutoff(unmarked.domain_size, DELTA)
            assert report.quantum_oracle_applications == schedule.oracle_applications

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
            domain = SearchSpace(g.m, lambda: np.empty(0, np.int64)).domain_size
            assert report.classical_weight_queries == n - 1
            assert report.grover_iterations <= bbht_cutoff(domain, DELTA)
            assert report.quantum_oracle_applications == o.quantum_queries

    def test_adjacency_budget_linear_in_n(self, rng):
        g = random_connected_graph(32, 120, rng)
        t = kruskal_mst(g)  # worst case: full budget burned
        verdict, report = quantum_verify(g, t, adj_oracle(g), "adjacency", 4)
        assert verdict.minimal
        pairs = g.n * (g.n - 1) // 2
        domain = SearchSpace(pairs, lambda: np.empty(0, np.int64)).domain_size
        budget = bbht_cutoff(domain, DELTA)
        assert report.grover_iterations == budget
        # O(n): domain < n^2, so c = ceil(sqrt N) <= n, and the cutoff is below
        # 6c for the rounds before the cap plus 11(c - 1) for the capped ones
        assert budget <= 17 * g.n

    def test_analytic_mode_same_verdict_and_flag(self, rng):
        g = random_connected_graph(16, 40, rng)
        t = perturbed_mst(g, rng)
        classical, cr = classical_verify(g, t, edge_oracle(g))
        assert not cr.analytic_mode and not classical.minimal
        for mode, oracle in (("edgelist", edge_oracle), ("adjacency", adj_oracle)):
            verdict, report = quantum_verify(g, t, oracle(g), mode, 2)
            assert report.analytic_mode
            assert verdict.minimal == classical.minimal
            assert verdict.witness.violating_edge_id not in t

    def test_mode_oracle_mismatch_rejected(self):
        g = triangle()
        with pytest.raises(ValueError):
            quantum_verify(g, spanning_tree(g, (0, 1)), edge_oracle(g), "adjacency", 0)

    def test_delta_validated(self):
        g = triangle()
        with pytest.raises(ValueError):
            quantum_verify(g, spanning_tree(g, (0, 1)), edge_oracle(g), "edgelist", 0, delta=0.7)

    @pytest.mark.parametrize("delta", [np.float64(0.01), np.array(0.01), Fraction(1, 100), Decimal("0.01")])
    def test_delta_of_another_real_type_reports_as_its_float(self, rng, delta):
        # the cutoff is cached per (N, delta), so a delta that cannot be hashed is read as its float
        g = random_connected_graph(12, 30, rng)
        t = kruskal_mst(g)
        _, expected = quantum_verify(g, t, edge_oracle(g), "edgelist", 3)
        _, report = quantum_verify(g, t, edge_oracle(g), "edgelist", 3, delta=delta)
        assert report == expected

    @pytest.mark.parametrize(
        "delta",
        ["0.01", b"0.01", None, 0.01j, np.array([0.01]), np.array("0.01"), Decimal("sNaN"), 10**400],
        ids=["str", "bytes", "None", "complex", "1-d array", "str array", "sNaN", "10**400"],
    )
    def test_delta_that_is_no_real_with_a_float_value_rejected(self, delta):
        g = triangle()
        with pytest.raises(ValueError, match="delta must be a real number with a float value, got "):
            quantum_verify(g, spanning_tree(g, (0, 1)), edge_oracle(g), "edgelist", 0, delta=delta)

    def test_single_vertex_graph(self):
        g = Graph(1, [])
        verdict, report = quantum_verify(g, spanning_tree(g, ()), edge_oracle(g), "edgelist", 0)
        assert verdict.minimal
        assert report.quantum_oracle_applications == 0

    @pytest.mark.parametrize("seed,error", [(-1, ValueError), ("x", TypeError), (1.5, TypeError)])
    @pytest.mark.parametrize("n", [1, 3])  # one vertex runs no search
    def test_bad_seed_rejected_before_any_charge(self, seed, error, n):
        g = triangle() if n == 3 else Graph(1, [])
        oracle = edge_oracle(g)
        with pytest.raises(error):
            quantum_verify(g, spanning_tree(g, range(n - 1)), oracle, "edgelist", seed)
        assert (oracle.classical_queries, oracle.quantum_queries) == (0, 0)


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


def witness_edge(g: Graph, t, i: int) -> int:
    """The tree edge violating edge i replaces: the brute-force maximum of its T-path."""
    return direct_path_max(g, t, int(g.u[i]), int(g.v[i])).max_edge_id


def all_pairs_marked(g: Graph, t, b) -> dict:
    """Reference adjacency marked set: every vertex pair in (a, b) order, a < b."""
    marked, p = {}, 0
    for a in range(g.n):
        for c in range(a + 1, g.n):
            i = pair_min(g, a, c)
            if i is not None and is_violating(g, t, b, i):
                marked[p] = i
            p += 1
    return marked


def full_sort_charges(g: Graph, t, b) -> list[int]:
    """The ids a scan charges, from a stable argsort of every edge: the non-tree edges up to the first violation."""
    order = np.argsort(g.w, kind="stable")
    candidates = order[~t.in_tree[order]].tolist()
    first = next((k for k, i in enumerate(candidates) if is_violating(g, t, b, i)), len(candidates) - 1)
    return candidates[: first + 1]


def scan_cases(rng):
    """(g, t) pairs for the charge-order tests: 30 graphs, each with its MST, a perturbed MST and a random tree.

    Weights are tied in {1, 2, 3} with parallel edges, or few distinct
    weights on a simple graph; every third graph has 3 to 8 vertices, most
    of them at most 32 edges.
    """
    for case in range(30):
        n = 3 + int(rng.integers(6)) if case % 3 == 2 else 20 + int(rng.integers(40))
        m = min(3 * n, n * (n - 1) // 2)
        g = multigraph(rng, n) if case % 2 else random_connected_graph(n, m, rng, weight_alphabet=[0.0, 0.5, 1.0])
        for t in (kruskal_mst(g), perturbed_mst(g, rng), random_spanning_tree(g, rng)):
            yield g, t


def spy_charges(monkeypatch) -> list:
    """Every classical charge, in the order made: edge(i) recorded as i, weight(a, b) as (a, b)."""
    charged = []
    edge, weight = InstrumentedOracle.edge, InstrumentedOracle.weight
    monkeypatch.setattr(InstrumentedOracle, "edge", lambda self, i: charged.append(i) or edge(self, i))
    monkeypatch.setattr(InstrumentedOracle, "weight", lambda self, a, b: charged.append((a, b)) or weight(self, a, b))
    return charged


def as_charges(g: Graph, ids, model: str) -> list:
    """What spy_charges records for lookups of ids in the model: the ids, or each edge's (u, v) pair."""
    ids = list(ids)
    return ids if model == "edgelist" else list(zip(g.u[ids].tolist(), g.v[ids].tolist()))


class TestScanChargeOrder:
    """The charged sequence in both models: the tree edges in t.edge_ids order, then the scan's prefix."""

    @staticmethod
    def check_scan(rng, monkeypatch, model: str):
        charged = spy_charges(monkeypatch)
        verdicts = set()
        tiny = 0
        for g, t in scan_cases(rng):
            tiny += g.m <= 32
            b = build_boruvka_tree(g, t)
            replaced = verify._violations(g, t, b)
            charged.clear()
            found, scanned = verify._scan(g, t, replaced, InstrumentedOracle(g, model))
            expected = full_sort_charges(g, t, b)
            assert charged == as_charges(g, expected, model) and scanned == len(expected)
            assert (found is None) == (not is_violating(g, t, b, expected[-1]))
            assert found is None or (found, replaced[found]) == (expected[-1], witness_edge(g, t, expected[-1]))
            verdicts.add(found is None)
        assert verdicts == {True, False} and tiny >= 3 * 5  # three trees per graph

    def test_charged_ids_are_the_full_sort_prefix(self, rng, monkeypatch):
        self.check_scan(rng, monkeypatch, "edgelist")

    def test_adjacency_charged_pairs_are_the_full_sort_prefix(self, rng, monkeypatch):
        self.check_scan(rng, monkeypatch, "adjacency")

    @pytest.mark.parametrize("model", ["edgelist", "adjacency"])
    def test_classical_verify_charges_the_tree_then_the_scan_prefix(self, rng, monkeypatch, model):
        charged = spy_charges(monkeypatch)
        for g, t in scan_cases(rng):
            expected = [*t.edge_ids, *full_sort_charges(g, t, build_boruvka_tree(g, t))]
            oracle = InstrumentedOracle(g, model)
            charged.clear()
            _, report = classical_verify(g, t, oracle)
            assert charged == as_charges(g, expected, model)
            assert oracle.classical_queries == report.classical_weight_queries == len(expected)
            assert oracle.quantum_queries == 0

    @pytest.mark.parametrize("model", ["edgelist", "adjacency"])
    def test_quantum_verify_charges_exactly_the_tree_edges(self, rng, monkeypatch, model):
        charged = spy_charges(monkeypatch)
        schedules = []
        search = verify.bbht_search
        monkeypatch.setattr(verify, "bbht_search", lambda *a: schedules.append(search(*a)) or schedules[-1])
        for seed, (g, t) in enumerate(scan_cases(rng)):
            oracle = InstrumentedOracle(g, model)
            charged.clear()
            schedules.clear()
            _, report = quantum_verify(g, t, oracle, model, seed)
            assert charged == as_charges(g, t.edge_ids, model)
            assert oracle.classical_queries == report.classical_weight_queries == g.n - 1
            [(_, stats)] = schedules
            assert oracle.quantum_queries == report.quantum_oracle_applications == stats.grover_iterations + stats.rounds


class TestSearchDomain:
    def test_adjacency_marks_exactly_the_all_pairs_set(self, rng):
        marked_total = parallel_graphs = 0
        for _ in range(40):
            g = multigraph(rng, 2 + int(rng.integers(15)))
            parallel_graphs += len(set(zip(g.u.tolist(), g.v.tolist()))) < g.m
            for t in (kruskal_mst(g), perturbed_mst(g, rng), random_spanning_tree(g, rng)):
                b = build_boruvka_tree(g, t)
                replaced = verify._violations(g, t, b)
                space, edge_of = verify._search_space(g, replaced, "adjacency")
                expected = all_pairs_marked(g, t, b)
                assert space.logical_size == g.n * (g.n - 1) // 2
                assert space.marked_indices().tolist() == sorted(expected)
                assert all((edge_of(p), replaced[edge_of(p)]) == (i, witness_edge(g, t, i)) for p, i in expected.items())
                marked_total += len(expected)
        assert marked_total > 0 and parallel_graphs > 0

    @pytest.mark.parametrize("mode", ["edgelist", "adjacency"])
    def test_marked_indices_equal_the_per_position_reference(self, rng, mode):
        """The vectorized marker marks what the scalar marker marked, one call per position, in the same order."""
        marked_total = 0
        for _ in range(40):
            g = multigraph(rng, 2 + int(rng.integers(15)))
            for t in (kruskal_mst(g), perturbed_mst(g, rng), random_spanning_tree(g, rng)):
                replaced = verify._violations(g, t, build_boruvka_tree(g, t))
                space, _ = verify._search_space(g, replaced, mode)
                if mode == "edgelist":
                    expected = loop_marked_indices(range(g.m), lambda i: replaced[i] >= 0)
                else:
                    at = {pair_index(g.n, a, b): pair_min(g, a, b) for a, b in zip(g.u.tolist(), g.v.tolist())}
                    expected = loop_marked_indices(sorted(at), lambda i: replaced[at[i]] >= 0)
                marked = space.marked_indices()
                assert marked.dtype == np.int64 and marked.tolist() == expected.tolist()
                marked_total += marked.size
        assert marked_total > 0

    @pytest.mark.parametrize("mode", ["edgelist", "adjacency"])
    def test_predicate_evaluated_at_most_m_times(self, rng, monkeypatch, mode):
        """A verify calls its space's marker once, and it returns distinct sorted int64 edge ids or pair-map keys."""
        calls = []
        total = 0

        def counting_space(logical_size, marker):
            # the search's only view of the predicate is the marker its SearchSpace receives
            def counting():
                calls.append(marker())
                return calls[-1]

            return SearchSpace(logical_size, counting)

        monkeypatch.setattr(verify, "SearchSpace", counting_space)
        for i in range(12):
            g = multigraph(rng, 3 + int(rng.integers(20)))
            t = kruskal_mst(g) if i % 2 else perturbed_mst(g, rng)  # minimal runs every check
            oracle = edge_oracle(g) if mode == "edgelist" else adj_oracle(g)
            calls.clear()
            quantum_verify(g, t, oracle, mode, i)
            [marked] = calls  # one marker call per verify
            assert marked.dtype == np.int64 and marked.ndim == 1 and marked.size <= g.m
            assert (np.diff(marked) > 0).all()  # sorted, hence distinct
            pairs = set(pair_index(g.n, g.u, g.v).tolist())
            assert set(marked.tolist()) <= (set(range(g.m)) if mode == "edgelist" else pairs)
            total += marked.size
        assert total > 0


class TestRoundsSeenByATracer:
    @pytest.mark.parametrize("mode", ["edgelist", "adjacency"])
    def test_every_round_goes_through_the_module_global(self, rng, monkeypatch, mode):
        """A wrapper at grover._closed_form_round, installed as perfbench/spans.py does, sees every round.

        The rounds are the report's quantum applications less its Grover
        iterations (one check per round), their second arguments sum to its
        Grover iterations, and a missed round reads no marked indices. A hit
        reads them once, to draw its index, and a verify's first round may
        read them once more, to count them.
        """
        rounds = []  # (iterations, found, marked_indices calls during the round)
        mask_calls = []
        closed_form_round = grover._closed_form_round
        marked_indices = SearchSpace.marked_indices

        def counting_round(space, iterations, uniform, rng):
            before = len(mask_calls)
            found = closed_form_round(space, iterations, uniform, rng)
            rounds.append((iterations, found, len(mask_calls) - before))
            return found

        def counting_indices(self):
            mask_calls.append(1)
            return marked_indices(self)

        monkeypatch.setattr(grover, "_closed_form_round", counting_round)
        monkeypatch.setattr(SearchSpace, "marked_indices", counting_indices)
        verdicts = set()
        for i in range(8):
            g = random_connected_graph(int(rng.integers(5, 24)), None, rng)
            t = kruskal_mst(g) if i % 2 else perturbed_mst(g, rng)
            oracle = edge_oracle(g) if mode == "edgelist" else adj_oracle(g)
            rounds.clear()
            verdict, report = quantum_verify(g, t, oracle, mode, i)
            verdicts.add(verdict.minimal)
            assert len(rounds) == report.quantum_oracle_applications - report.grover_iterations > 0
            assert sum(iterations for iterations, _, _ in rounds) == report.grover_iterations
            allowed = [(j == 0) + (found is not None) for j, (_, found, _) in enumerate(rounds)]
            assert all(calls <= most for (_, _, calls), most in zip(rounds, allowed)), [r[1:] for r in rounds]
        assert verdicts == {True, False}
