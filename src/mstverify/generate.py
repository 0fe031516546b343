"""Seeded random test instances: connected graphs and candidate trees."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .boruvka import build_boruvka_tree
from .graph import Graph, SpanningTree, non_tree_mask, spanning_tree
from .oracle import InstrumentedOracle, OracleModel
from .verify import Witness, improve, kruskal_mst

TREE_KINDS = ("mst", "perturbed", "random")

# The most edges random_connected_graph will generate, checked before any
# allocation. As m >= n-1 it bounds n too, and the free-pair arrays are only
# built while max_m <= 4m (or max_m < 100,000). At m = 10^6 a `gen` run
# takes 6 s (n=2000, free pairs) to 17 s (n=100000, rejection) and peaks at
# 480-520 MB (Intel Xeon, Python 3.11, numpy 2.4).
MAX_GEN_EDGES = 1_000_000


class GenError(ValueError):
    """Infeasible generation parameters."""


def random_connected_graph(
    n: int,
    m: int | None,
    rng: np.random.Generator,
    weight_low: float = 0.0,
    weight_high: float = 1.0,
    weight_alphabet: Sequence[float] | None = None,
) -> Graph:
    """Random connected simple graph: spanning-tree backbone plus extra edges.

    Weights are uniform in [weight_low, weight_high), or drawn from
    weight_alphabet when one is given. m=None draws a feasible edge count
    at random. Deterministic for a given rng state.
    """
    max_m = n * (n - 1) // 2
    if m is None:
        m = int(rng.integers(n - 1, min(max_m, 3 * n) + 1)) if n > 1 else 0
    if n < 1 or m < n - 1 or m > max_m:
        raise GenError(f"need n-1 <= m <= n(n-1)/2, got n={n} m={m}")
    if m > MAX_GEN_EDGES:
        raise GenError(f"need m <= {MAX_GEN_EDGES}, got m={m}")
    pairs = [(int(rng.integers(v)), v) for v in range(1, n)]
    extra = m - (n - 1)
    if extra > 0:
        if max_m <= 4 * m or max_m < 100_000:
            # the unused pairs in (a, b) order; pair (a, b) is entry a*(2n-a-1)/2 + b-a-1 of triu_indices
            a_s, b_s = np.triu_indices(n, 1)
            free = np.ones(max_m, dtype=bool)
            free[[a * (2 * n - a - 1) // 2 + b - a - 1 for a, b in pairs]] = False
            free = np.flatnonzero(free)
            take = free[np.sort(rng.choice(free.size, size=extra, replace=False))]
            pairs.extend(zip(a_s[take].tolist(), b_s[take].tolist()))
        else:
            used = set(pairs)
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
    if weight_alphabet is not None:
        weights = [float(weight_alphabet[int(i)]) for i in rng.integers(len(weight_alphabet), size=m)]
    else:
        weights = [float(w) for w in rng.uniform(weight_low, weight_high, size=m)]
    return Graph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])


def random_spanning_tree(g: Graph, rng: np.random.Generator) -> SpanningTree:
    """Uniform random spanning tree via Wilson's loop-erased random walk."""
    n = g.n
    if n == 1:
        return spanning_tree(g, ())
    us, vs, _ = g.columns
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(zip(us, vs)):
        incident[a].append(i)
        incident[b].append(i)
    root = int(rng.integers(n))
    in_tree = [False] * n
    in_tree[root] = True
    via = [-1] * n  # vertex -> edge id it leaves through, per the latest walk
    for start in range(n):
        v = start
        while not in_tree[v]:
            ids = incident[v]
            eid = ids[int(rng.integers(len(ids)))]
            via[v] = eid
            v = us[eid] + vs[eid] - v  # the edge's other endpoint
        v = start
        while not in_tree[v]:
            in_tree[v] = True
            v = us[via[v]] + vs[via[v]] - v
    return spanning_tree(g, sorted(via[v] for v in range(n) if v != root))


def perturbed_mst(g: Graph, rng: np.random.Generator) -> SpanningTree:
    """The MST after one weight-increasing swap, when the graph admits one.

    Swapping a non-tree edge for the lighter maximum of its tree path
    strictly increases the weight, so the result verifies as NotMinimal.
    Falls back to the MST itself when no strictly increasing swap exists
    (for example when the graph is a tree).
    """
    mst = kruskal_mst(g)
    # one batched path-max over the non-tree edges, in id order; the build's
    # n-1 weight lookups go to a throwaway oracle
    outside = np.flatnonzero(non_tree_mask(g, mst))
    b = build_boruvka_tree(g, mst, InstrumentedOracle(g, OracleModel.EDGE_LIST))
    max_w, max_id = b.path_max_batch(g.u[outside], g.v[outside])
    increasing = g.w[outside] > max_w
    candidates = list(zip(outside[increasing].tolist(), max_id[increasing].tolist()))
    if not candidates:
        return mst
    in_id, out_id = candidates[int(rng.integers(len(candidates)))]
    # improve() certifies the reverse direction: out is the heavier edge here
    heavier = spanning_tree(g, sorted([i for i in mst.edge_ids if i != out_id] + [in_id]))
    # sanity: undoing the swap must be a certified improvement
    improve(g, heavier, Witness(out_id, in_id))
    return heavier


def tree_of_kind(g: Graph, kind: str, rng: np.random.Generator) -> SpanningTree:
    """Dispatch on the CLI tree-kind names."""
    if kind == "mst":
        return kruskal_mst(g)
    if kind == "perturbed":
        return perturbed_mst(g, rng)
    if kind == "random":
        return random_spanning_tree(g, rng)
    raise GenError(f"unknown tree kind {kind!r}")
