"""Spanning-tree minimality verification.

A spanning tree T is minimal iff no edge outside T is strictly lighter
than the heaviest edge on its T-path (the cycle property). The Boruvka
tree makes each such check one weight query plus O(log n) work, and the
candidates can be scanned classically or searched with the simulated
Grover schedule. Witnesses are always certified against the brute-force
path maximum before they are reported, so a NotMinimal verdict carries a
strictly lighter spanning tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boruvka import BoruvkaTree, build_boruvka_tree, direct_path_max, tree_path_edges
from .graph import Edge, Graph, SpanningTree, UnionFind, spanning_tree
from .grover import DEFAULT_STATEVECTOR_CAP, MAX_STATEVECTOR_CAP, BbhtStats, SearchSpace, bbht_search
from .oracle import InstrumentedOracle, OracleModel

DEFAULT_DELTA = 0.01


class InvalidWitnessError(ValueError):
    """A claimed improvement swap failed certification."""


@dataclass(frozen=True)
class Witness:
    """An improvement swap: violating edge in, path-max tree edge out."""

    violating_edge_id: int
    replaced_edge_id: int


@dataclass(frozen=True)
class Verdict:
    minimal: bool
    witness: Witness | None = None
    improved_tree: SpanningTree | None = None
    weight_delta: float = 0.0

    @property
    def status(self) -> str:
        return "minimal" if self.minimal else "not_minimal"


@dataclass
class QueryReport:
    """Exact per-run accounting of oracle traffic and coarse work."""

    classical_weight_queries: int
    quantum_oracle_applications: int
    grover_iterations: int
    mode: str
    analytic_mode: bool
    work_ops: int


def validate_search_settings(delta: float, statevector_cap: int) -> None:
    """Raise ValueError unless delta is in (0, 0.5) and the cap is a power of two in [2, 2^22]."""
    if not (0.0 < delta < 0.5):
        raise ValueError(f"delta must be in (0, 0.5), got {delta}")
    if statevector_cap < 2 or statevector_cap & (statevector_cap - 1):
        raise ValueError(f"statevector cap must be a power of two >= 2, got {statevector_cap}")
    if statevector_cap > MAX_STATEVECTOR_CAP:
        raise ValueError(f"statevector cap must be at most 2^22 = {MAX_STATEVECTOR_CAP}, got {statevector_cap}")


def is_violating(
    g: Graph,
    t: SpanningTree,
    b: BoruvkaTree,
    e: Edge,
    oracle: InstrumentedOracle | None = None,
) -> bool:
    """True iff e is outside T and strictly lighter than its T-path maximum.

    With an oracle, w(e) costs one weight-oracle call; without one (inside
    a search marker, whose applications the search engine charges) the
    stored weight is used. The path maximum never costs a call. Equal
    weight does not violate: an equally heavy alternative never refutes
    minimality.
    """
    if e.id in t:
        return False
    w = e.w if oracle is None else oracle.edge_weight(e)
    return w < b.path_max(e.u, e.v).max_weight


def kruskal_mst(g: Graph) -> SpanningTree:
    """Ground-truth minimum spanning tree: (w, id)-sorted edges + union-find."""
    uf = UnionFind(g.n)
    ids = []
    for e in sorted(g.edges, key=lambda e: e.key):
        if uf.union(e.u, e.v):
            ids.append(e.id)
            if len(ids) == g.n - 1:
                break
    return spanning_tree(g, sorted(ids))


def improve(g: Graph, t: SpanningTree, witness: Witness) -> SpanningTree:
    """Apply a certified swap, producing a strictly lighter spanning tree.

    Certification re-checks, from stored data: the incoming edge is not in
    T, the outgoing edge is, the outgoing edge lies on the T-path between
    the incoming edge's endpoints, and the swap strictly decreases weight.
    Raises InvalidWitnessError otherwise.
    """
    in_id, out_id = witness.violating_edge_id, witness.replaced_edge_id
    if not (0 <= in_id < g.m and 0 <= out_id < g.m):
        raise InvalidWitnessError(f"witness edge ids ({in_id}, {out_id}) out of range")
    if in_id in t:
        raise InvalidWitnessError(f"incoming edge {in_id} is already in the tree")
    if out_id not in t:
        raise InvalidWitnessError(f"outgoing edge {out_id} is not in the tree")
    e_in = g.edges[in_id]
    if all(p.id != out_id for p in tree_path_edges(g, t, e_in.u, e_in.v)):
        raise InvalidWitnessError(f"edge {out_id} is not on the tree path of edge {in_id}")
    if not e_in.w < g.edges[out_id].w:
        raise InvalidWitnessError(f"swap does not decrease weight ({e_in.w} >= {g.edges[out_id].w})")
    ids = sorted([i for i in t.edge_ids if i != out_id] + [in_id])
    return spanning_tree(g, ids)


def _not_minimal(g: Graph, t: SpanningTree, in_edge: Edge) -> Verdict:
    """Build the certified NotMinimal verdict for a violating edge."""
    replaced = direct_path_max(g, t, in_edge.u, in_edge.v)
    witness = Witness(in_edge.id, replaced.max_edge_id)
    improved = improve(g, t, witness)
    return Verdict(
        minimal=False,
        witness=witness,
        improved_tree=improved,
        weight_delta=in_edge.w - replaced.max_weight,
    )


def _search_space(g: Graph, t: SpanningTree, b: BoruvkaTree, mode: str) -> tuple[SearchSpace, Callable]:
    """The search domain of a quantum mode and its index -> candidate edge map.

    "edgelist" searches edge indices. "adjacency" searches the n(n-1)/2
    unordered vertex pairs, pair (a, b) with a < b at index
    a*(2n-a-1)/2 + b-a-1. Only a pair's minimum-(w, id) edge can be
    marked: a non-edge pair has no candidate, and a heavier parallel edge
    never violates where the pair minimum does not. So the predicate runs
    only at the pair-minimum edges' indices, at most m times.
    """
    if mode == OracleModel.EDGE_LIST.value:
        size, positions, edge_of = g.m, None, g.edges.__getitem__
    else:
        n = g.n
        at = {e.u * (2 * n - e.u - 1) // 2 + e.v - e.u - 1: e for e in g.edges if g.pair_min(e.u, e.v) is e}
        size, positions, edge_of = n * (n - 1) // 2, sorted(at), at.__getitem__
    return SearchSpace(size, lambda i: is_violating(g, t, b, edge_of(i)), positions), edge_of


def _verify(
    g: Graph,
    t: SpanningTree,
    oracle: InstrumentedOracle,
    mode: str,
    rng_seed=0,
    delta: float = DEFAULT_DELTA,
    statevector_cap: int = DEFAULT_STATEVECTOR_CAP,
) -> tuple[Verdict, QueryReport]:
    """Build the Boruvka tree, find a violating edge, certify it, report the cost.

    Mode "classical" scans the candidates in (w, id) order, charging one
    weight query each; a quantum mode runs up to ceil(log2(1/delta)) BBHT
    schedules over its search space.
    """
    c0 = oracle.classical_queries
    b = build_boruvka_tree(g, t, oracle)
    c_build = oracle.classical_queries
    found: Edge | None = None
    stats = BbhtStats()
    if mode == "classical":
        candidates = sorted(g.edges, key=lambda e: e.key)
        found = next((e for e in candidates if is_violating(g, t, b, e, oracle)), None)
    else:
        space, edge_of = _search_space(g, t, b, mode)
        if space.logical_size > 0:
            rng = np.random.default_rng(rng_seed)
            for _ in range(math.ceil(math.log2(1.0 / delta))):
                index, run = bbht_search(space, rng, oracle, statevector_cap=statevector_cap)
                stats.merge(run)
                if index is not None:
                    found = edge_of(index)
                    break
    verdict = Verdict(minimal=True) if found is None else _not_minimal(g, t, found)
    # every predicate evaluation is one oracle query, classical in the scan and
    # quantum in the search, and costs one ascent plus one compare
    evaluations = oracle.classical_queries - c_build + stats.oracle_applications
    report = QueryReport(
        classical_weight_queries=oracle.classical_queries - c0,
        quantum_oracle_applications=stats.oracle_applications,
        grover_iterations=stats.grover_iterations,
        mode=mode,
        analytic_mode=stats.analytic,
        work_ops=b.build_work + evaluations * (2 * b.height + 1),
    )
    return verdict, report


def classical_verify(g: Graph, t: SpanningTree, oracle: InstrumentedOracle) -> tuple[Verdict, QueryReport]:
    """Scan every non-tree edge against the Boruvka path maximum.

    Exactly n-1 weight queries build the tree, then one query per scanned
    candidate. Candidates are scanned in (w, id) order and the first
    violating edge becomes the witness, so the verdict is deterministic.
    """
    return _verify(g, t, oracle, "classical")


def quantum_verify(
    g: Graph,
    t: SpanningTree,
    oracle: InstrumentedOracle,
    mode: str | None = None,
    rng_seed=0,
    *,
    delta: float = DEFAULT_DELTA,
    statevector_cap: int = DEFAULT_STATEVECTOR_CAP,
) -> tuple[Verdict, QueryReport]:
    """Verify with a simulated Grover search over the candidate domain.

    The Boruvka tree is built classically (n-1 weight queries); the
    violation predicate then needs no further classical queries, so the
    search runs the unknown-count schedule with ceil(log2(1/delta))
    restarts. A found index is certified before it is reported, making
    false NotMinimal verdicts impossible; a Minimal verdict is wrong with
    probability at most delta.

    mode selects the search domain: "edgelist" (over edge indices,
    O(sqrt(m)) applications) or "adjacency" (over vertex pairs, O(n)
    applications). It defaults to the oracle's own model and must match it.
    """
    validate_search_settings(delta, statevector_cap)
    if mode is None:
        mode = oracle.model.value
    if mode != oracle.model.value:
        raise ValueError(f"mode {mode!r} does not match the oracle model {oracle.model.value!r}")
    return _verify(g, t, oracle, mode, rng_seed, delta, statevector_cap)
