"""Acceptance suite: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test asserts its stated tolerances and prints a summary only
after everything in it has been checked.
"""

from __future__ import annotations

import json
import math
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from mstverify import (
    Graph,
    InstrumentedOracle,
    OracleModel,
    classical_verify,
    kruskal_mst,
    quantum_verify,
    random_connected_graph,
    random_spanning_tree,
    tree_weight,
)
from mstverify.boruvka import build_boruvka_tree
from mstverify.generate import perturbed_mst
from mstverify.graph import UnionFind, spanning_tree
from mstverify.grover import SearchSpace, bbht_cutoff, success_probability

from .reference import StateVector, direct_path_max, marked_mask, nodes, optimal_iterations, validate_structure

DELTA = 0.01
RESTARTS = math.ceil(math.log2(1 / DELTA))
DYADIC = [k / 256 for k in range(1, 513)]  # exact float sums
REPORT_PATH = Path(__file__).resolve().parent.parent / "build" / "scaling_report.json"

# builds structurally validated by suites 1-2, reported by criterion 3
STATE = {"builds_validated": 0, "instances_checked": 0}


def edge_oracle(g: Graph) -> InstrumentedOracle:
    return InstrumentedOracle(g, OracleModel.EDGE_LIST)


def check_instance(g: Graph, t) -> bool:
    """One equivalence check; validates the Boruvka structure as a side effect.

    Returns the classical verdict so callers can tally outcomes.
    """
    verdict, report = classical_verify(g, t, edge_oracle(g))
    minimal_by_weight = tree_weight(g, t) == tree_weight(g, kruskal_mst(g))
    assert verdict.minimal == minimal_by_weight, (
        f"verdict {verdict.status} disagrees with weight oracle on n={g.n} m={g.m}"
    )
    assert report.classical_weight_queries >= g.n - 1
    if not verdict.minimal:
        assert verdict.weight_delta < 0
        assert tree_weight(g, verdict.improved_tree) < tree_weight(g, t)
    b = build_boruvka_tree(g, t, edge_oracle(g))
    validate_structure(b, g.n)
    STATE["builds_validated"] += 1
    STATE["instances_checked"] += 1
    return verdict.minimal


def connected_edge_sets(n: int):
    """Every labeled connected graph on n vertices, as edge-pair lists."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1, 1 << len(pairs)):
        if bin(mask).count("1") < n - 1:
            continue
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        uf = UnionFind(n)
        for a, b in chosen:
            uf.union(a, b)
        if uf.components == 1:
            yield chosen


def all_spanning_trees(g: Graph):
    for ids in combinations(range(g.m), g.n - 1):
        uf = UnionFind(g.n)
        if all(uf.union(g.edges[i].u, g.edges[i].v) for i in ids):
            yield spanning_tree(g, ids)


def test_criterion_1_oracle_equivalence():
    """classical_verify(T) is Minimal iff weight(T) equals the Kruskal weight."""
    checked = minimal_seen = nonminimal_seen = 0

    # exhaustive structures for n <= 6; exhaustive {1,2,3} weightings and
    # all spanning trees up to n = 4, seeded weightings and sampled trees
    # above that (the full product is far beyond the runtime budget)
    for n in range(2, 5):
        for pairs in connected_edge_sets(n):
            for weights in product((1.0, 2.0, 3.0), repeat=len(pairs)):
                g = Graph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])
                for t in all_spanning_trees(g):
                    minimal = check_instance(g, t)
                    checked += 1
                    minimal_seen += minimal
                    nonminimal_seen += not minimal

    rng = np.random.default_rng(101)
    for n in (5, 6):
        weightings = 2 if n == 5 else 1
        for pairs in connected_edge_sets(n):
            for _ in range(weightings):
                weights = rng.integers(1, 4, size=len(pairs)).astype(float)
                g = Graph(n, [(u, v, float(w)) for (u, v), w in zip(pairs, weights)])
                trees = [kruskal_mst(g), perturbed_mst(g, rng),
                         random_spanning_tree(g, rng), random_spanning_tree(g, rng)]
                for t in trees:
                    minimal = check_instance(g, t)
                    checked += 1
                    minimal_seen += minimal
                    nonminimal_seen += not minimal

    # 10^4 seeded random instances up to n = 200, dyadic weights for exact sums
    rng = np.random.default_rng(202)
    for i in range(10_000):
        u = rng.random()
        n = 2 + int(198 * u * u)
        g = random_connected_graph(n, None, rng, weight_alphabet=DYADIC)
        if i % 3 == 0:
            t = kruskal_mst(g)
        elif i % 3 == 1:
            t = perturbed_mst(g, rng)
        else:
            t = random_spanning_tree(g, rng)
        minimal = check_instance(g, t)
        checked += 1
        minimal_seen += minimal
        nonminimal_seen += not minimal

    assert minimal_seen > 0 and nonminimal_seen > 0
    print(
        f"ACCEPTANCE 1 oracle-equivalence: PASS "
        f"({checked} instances, {minimal_seen} minimal / {nonminimal_seen} not, 0 mismatches)"
    )


def test_criterion_2_path_max_differential():
    """path_max agrees with the brute-force path maximum on every pair."""

    def brute_all_pairs(g: Graph, t):
        adjacency = [[] for _ in range(g.n)]
        for i in t.edge_ids:
            e = g.edges[i]
            adjacency[e.u].append(e)
            adjacency[e.v].append(e)
        table = []
        for root in range(g.n):
            best: list[tuple[float, int] | None] = [None] * g.n
            stack = [(root, -math.inf, -1)]
            seen = [False] * g.n
            seen[root] = True
            while stack:
                x, bw, bid = stack.pop()
                for e in adjacency[x]:
                    y = e.v if x == e.u else e.u
                    if seen[y]:
                        continue
                    seen[y] = True
                    key = max((bw, bid), (e.w, e.id))
                    best[y] = key
                    stack.append((y, key[0], key[1]))
            table.append(best)
        return table

    rng = np.random.default_rng(303)
    trees = []
    # boundary shapes at the size cap, then random trees with tie-heavy
    # and tie-free weights alternating
    trees.append(Graph(256, [(i, i + 1, float(DYADIC[int(rng.integers(512))])) for i in range(255)]))
    trees.append(Graph(256, [(0, i, float(rng.integers(1, 4))) for i in range(1, 256)]))
    while len(trees) < 500:
        n = 2 + int(rng.integers(255))
        alphabet = [1.0, 2.0, 3.0] if len(trees) % 2 else DYADIC
        trees.append(random_connected_graph(n, n - 1, rng, weight_alphabet=alphabet))

    pairs_checked = 0
    for g in trees:
        t = spanning_tree(g, range(g.m))
        b = build_boruvka_tree(g, t, edge_oracle(g))
        validate_structure(b, g.n)
        STATE["builds_validated"] += 1
        table = brute_all_pairs(g, t)
        for u in range(g.n):
            row = table[u]
            for v in range(u + 1, g.n):
                fast = b.path_max(u, v)
                assert (fast.max_weight, fast.max_edge_id) == row[v], (
                    f"mismatch at n={g.n}, pair ({u}, {v})"
                )
                pairs_checked += 1
        # tie the spec-level reference operation in on sampled pairs
        for _ in range(min(8, g.n - 1)):
            u, v = rng.integers(g.n), rng.integers(g.n)
            if u == v:
                continue
            fast = b.path_max(int(u), int(v))
            slow = direct_path_max(g, t, int(u), int(v))
            assert (fast.max_weight, fast.max_edge_id) == (slow.max_weight, slow.max_edge_id)

    print(f"ACCEPTANCE 2 path-max-differential: PASS (500 trees, {pairs_checked} pairs, 0 mismatches)")


def test_criterion_3_structural_bounds():
    """Full-branching bounds: n leaves, <= 2n nodes, fan-out >= 2, equal depth."""
    rng = np.random.default_rng(404)
    validated = 0
    for _ in range(300):
        n = 2 + int(rng.integers(200))
        g = random_connected_graph(n, None, rng)
        t = random_spanning_tree(g, rng)
        b = build_boruvka_tree(g, t, edge_oracle(g))
        validate_structure(b, n)  # raises on any violated bound
        assert b.height <= math.ceil(math.log2(n))
        assert len(nodes(b)) <= 2 * n
        validated += 1
    print(
        f"ACCEPTANCE 3 boruvka-structure: PASS ({validated} fresh builds, "
        f"{STATE['builds_validated']} builds validated across suites 1-2, 0 violations)"
    )


def test_criterion_4_build_query_budget():
    """Building the Boruvka tree costs exactly n-1 weight queries."""
    rng = np.random.default_rng(505)
    for model in (OracleModel.EDGE_LIST, OracleModel.ADJACENCY):
        for _ in range(100):
            n = 1 + int(rng.integers(180))
            g = random_connected_graph(n, None, rng)
            t = random_spanning_tree(g, rng)
            o = InstrumentedOracle(g, model)
            build_boruvka_tree(g, t, o)
            assert o.classical_queries == n - 1
            assert o.quantum_queries == 0
    print("ACCEPTANCE 4 build-query-budget: PASS (200 builds, classical queries = n-1 exactly)")


def test_criterion_5_grover_fidelity():
    """Dense simulation matches the closed form to 1e-9; norm holds to 1e-12."""
    rng = np.random.default_rng(606)
    points = 0
    for exp in range(1, 11):
        n = 1 << exp
        for k in range(0, min(n, 8) + 1):
            marked = set(int(i) for i in rng.choice(n, size=k, replace=False))
            space = SearchSpace(n, lambda i, s=marked: i in s)
            mask = marked_mask(space)
            state = StateVector(space.domain_size)
            r_max = 2 * optimal_iterations(n, k) if k else 8
            for r in range(r_max + 1):
                expected = success_probability(n, k, r)
                assert abs(state.marked_probability(mask) - expected) <= 1e-9, (
                    f"probability drift at N={n} k={k} r={r}"
                )
                points += 1
                state.grover_iteration(mask)
                assert abs(state.norm() - 1.0) <= 1e-12, f"norm drift at N={n} k={k} r={r}"
    print(f"ACCEPTANCE 5 grover-fidelity: PASS ({points} grid points within 1e-9, norm within 1e-12)")


def test_criterion_6_quantum_agreement():
    """Quantum edge-list verification agrees with the classical scan >= 99%."""
    rng = np.random.default_rng(707)
    agree = 0
    runs = 0
    witnesses = 0
    for i in range(1000):
        n = 4 + int(rng.integers(61))
        max_m = min(512, n * (n - 1) // 2)
        m = n + int(rng.integers(max_m - n + 1))
        g = random_connected_graph(n, m, rng)
        t = kruskal_mst(g) if i % 2 == 0 else perturbed_mst(g, rng)
        expected, _ = classical_verify(g, t, edge_oracle(g))

        o = edge_oracle(g)
        verdict, report = quantum_verify(g, t, o, "edgelist", int(rng.integers(2**63)), delta=DELTA)
        runs += 1
        agree += verdict.minimal == expected.minimal

        domain = SearchSpace(g.m, lambda _: False).domain_size
        assert report.classical_weight_queries == n - 1
        assert report.grover_iterations <= RESTARTS * bbht_cutoff(domain)
        assert report.quantum_oracle_applications == o.quantum_queries
        assert report.quantum_oracle_applications >= report.grover_iterations

        if not verdict.minimal:
            witnesses += 1
            e_in = g.edges[verdict.witness.violating_edge_id]
            assert e_in.id not in t
            certified = direct_path_max(g, t, e_in.u, e_in.v)
            assert e_in.w < certified.max_weight
            assert verdict.witness.replaced_edge_id == certified.max_edge_id
            assert tree_weight(g, verdict.improved_tree) < tree_weight(g, t)

    assert agree / runs >= 0.99, f"agreement {agree}/{runs}"
    print(
        f"ACCEPTANCE 6 quantum-agreement: PASS ({agree}/{runs} agree, "
        f"{witnesses} certified witnesses, budgets held on every run)"
    )


def test_criterion_7_improvement_chain():
    """Iterating improve from any tree terminates at the MST weight."""
    rng = np.random.default_rng(808)
    total_steps = 0
    for _ in range(100):
        n = 5 + int(rng.integers(36))
        g = random_connected_graph(n, None, rng, weight_alphabet=DYADIC)
        t = random_spanning_tree(g, rng)
        target = tree_weight(g, kruskal_mst(g))
        for _ in range(20_000):
            verdict, _ = classical_verify(g, t, edge_oracle(g))
            if verdict.minimal:
                break
            assert tree_weight(g, verdict.improved_tree) < tree_weight(g, t)
            t = verdict.improved_tree
            total_steps += 1
        else:
            pytest.fail("improvement chain did not terminate")
        assert tree_weight(g, t) == target
    print(f"ACCEPTANCE 7 improvement-chain: PASS (100 chains, {total_steps} swaps, all reach MST weight)")


def test_criterion_8_scaling_report():
    """Emit measured query/work scaling with fitted curves (no thresholds)."""
    rng = np.random.default_rng(909)
    rows = []
    for n in (16, 24, 32, 48, 64, 96, 128, 192, 256):
        for density in (1.5, 4.0):
            m = min(int(density * n), n * (n - 1) // 2)
            g = random_connected_graph(n, m, rng)
            t = kruskal_mst(g)  # minimal: the search burns its full budget
            o = edge_oracle(g)
            verdict, report = quantum_verify(g, t, o, "edgelist", int(rng.integers(2**63)))
            assert verdict.minimal
            rows.append(
                {
                    "n": n,
                    "m": g.m,
                    "classical_queries": report.classical_weight_queries,
                    "quantum_applications": report.quantum_oracle_applications,
                    "total_queries": report.classical_weight_queries
                    + report.quantum_oracle_applications,
                    "work_ops": report.work_ops,
                }
            )

    def fit(features: np.ndarray, y: np.ndarray) -> dict:
        design = np.column_stack([features, np.ones(len(y))])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        pred = design @ coef
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        return {
            "coefficients": [float(c) for c in coef[:-1]],
            "intercept": float(coef[-1]),
            "r2": 1.0 - ss_res / ss_tot if ss_tot else 1.0,
        }

    ns = np.array([r["n"] for r in rows], float)
    ms = np.array([r["m"] for r in rows], float)
    totals = np.array([r["total_queries"] for r in rows], float)
    works = np.array([r["work_ops"] for r in rows], float)
    query_fit = fit(np.column_stack([ns, np.sqrt(ms)]), totals)
    query_fit["model"] = "total_queries ~ a*n + b*sqrt(m) + c"
    work_fit = fit(np.column_stack([ns, np.sqrt(ms) * np.log2(ns)]), works)
    work_fit["model"] = "work_ops ~ a*n + b*sqrt(m)*log2(n) + c"

    report_doc = {"corpus": rows, "fits": {"total_queries": query_fit, "work_ops": work_fit}}
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report_doc, indent=2) + "\n", encoding="utf-8")

    assert REPORT_PATH.exists()
    assert query_fit["r2"] > 0.9 and work_fit["r2"] > 0.9  # the model should explain the data
    print(
        f"ACCEPTANCE 8 scaling-report: PASS ({len(rows)} instances -> {REPORT_PATH}, "
        f"queries r2={query_fit['r2']:.4f}, work r2={work_fit['r2']:.4f})"
    )
