"""Random instance generation: validity, determinism, tree kinds."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from mstverify import (
    GenError,
    classical_verify,
    kruskal_mst,
    load_graph,
    load_tree,
    random_connected_graph,
    random_spanning_tree,
    serialize_graph,
    serialize_tree,
    tree_of_kind,
    tree_weight,
)
from mstverify.generate import perturbed_mst

from .conftest import edge_oracle, triangle


def reference_connected_graph(n: int, m: int, rng: np.random.Generator) -> list[tuple[int, int, float]]:
    """The edges random_connected_graph drew with its original pair loops, for fixed n and m."""
    max_m = n * (n - 1) // 2
    pairs: list[tuple[int, int]] = []
    used: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        pairs.append((u, v))
        used.add((u, v))
    extra = m - (n - 1)
    if extra > 0:
        if max_m <= 4 * m or max_m < 100_000:
            free = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in used]
            take = rng.choice(len(free), size=extra, replace=False)
            pairs.extend(free[i] for i in sorted(int(i) for i in take))
        else:
            while extra > 0:
                a, b = int(rng.integers(n)), int(rng.integers(n))
                if a == b:
                    continue
                if a > b:
                    a, b = b, a
                if (a, b) in used:
                    continue
                used.add((a, b))
                pairs.append((a, b))
                extra -= 1
    weights = [float(w) for w in rng.uniform(0.0, 1.0, size=m)]
    return [(u, v, w) for (u, v), w in zip(pairs, weights)]


class TestRandomGraph:
    def test_deterministic_per_seed(self):
        a = random_connected_graph(20, 45, np.random.default_rng(3))
        b = random_connected_graph(20, 45, np.random.default_rng(3))
        assert serialize_graph(a) == serialize_graph(b)

    @pytest.mark.parametrize(
        "n, m",
        # free-pair list: small graphs, a complete one, and max_m >= 100k with max_m <= 4m;
        # rejection sampling: max_m >= 100k with max_m > 4m
        [(2, 1), (3, 3), (5, 7), (12, 30), (40, 200), (60, 1770), (450, 26_000), (450, 500), (1000, 1500)],
    )
    def test_edges_equal_the_pair_loop_reference(self, n, m):
        for seed in range(3):
            g = random_connected_graph(n, m, np.random.default_rng(seed))
            assert list(zip(*g.columns)) == reference_connected_graph(n, m, np.random.default_rng(seed))

    def test_output_passes_loader_validation(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 50))
            g = random_connected_graph(n, None, rng)
            reloaded = load_graph(serialize_graph(g))
            assert (reloaded.n, reloaded.m) == (g.n, g.m)

    def test_simple_graph_no_parallel_edges(self, rng):
        g = random_connected_graph(12, 60, rng)
        pairs = [(e.u, e.v) for e in g.edges]
        assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("n,m", [(5, 3), (5, 11), (0, 0)])
    def test_infeasible_rejected(self, n, m):
        with pytest.raises(GenError):
            random_connected_graph(n, m, np.random.default_rng(0))

    def test_weight_alphabet(self, rng):
        g = random_connected_graph(10, 20, rng, weight_alphabet=[1.0, 2.0])
        assert {e.w for e in g.edges} <= {1.0, 2.0}


class TestTreeKinds:
    def test_mst_kind_verifies_minimal(self, rng):
        g = random_connected_graph(15, 40, rng)
        t = tree_of_kind(g, "mst", rng)
        verdict, _ = classical_verify(g, t, edge_oracle(g))
        assert verdict.minimal

    def test_perturbed_kind_verifies_not_minimal(self, rng):
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(4, 30)), None, rng)
            if g.m == g.n - 1:
                continue
            t = tree_of_kind(g, "perturbed", rng)
            verdict, _ = classical_verify(g, t, edge_oracle(g))
            assert not verdict.minimal
            assert tree_weight(g, t) > tree_weight(g, kruskal_mst(g))

    def test_random_kind_is_valid(self, rng):
        g = random_connected_graph(15, 40, rng)
        t = tree_of_kind(g, "random", rng)
        assert len(t) == 14
        assert load_tree(serialize_tree(g, t), g).edge_ids == t.edge_ids

    def test_tree_shaped_graph_all_kinds_agree(self, rng):
        g = random_connected_graph(12, 11, rng)
        trees = {kind: tree_of_kind(g, kind, rng).edge_ids for kind in ("mst", "perturbed", "random")}
        assert trees["mst"] == trees["perturbed"] == trees["random"] == tuple(range(11))
        verdict, _ = classical_verify(g, kruskal_mst(g), edge_oracle(g))
        assert verdict.minimal

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(GenError):
            tree_of_kind(triangle(), "best", rng)


class TestWilson:
    def test_every_triangle_tree_reachable(self):
        rng = np.random.default_rng(0)
        g = triangle()
        seen = Counter(random_spanning_tree(g, rng).edge_ids for _ in range(300))
        assert set(seen) == {(0, 1), (0, 2), (1, 2)}
        # uniform: each of the 3 trees should get roughly a third
        assert min(seen.values()) > 60

    def test_perturbed_falls_back_on_tree_graph(self, rng):
        g = random_connected_graph(8, 7, rng)
        assert perturbed_mst(g, rng).edge_ids == kruskal_mst(g).edge_ids
