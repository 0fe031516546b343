"""Spanning-tree minimality verification.

A spanning tree T is minimal iff no edge outside T is strictly lighter
than the heaviest edge on its T-path (the cycle property). The Boruvka
tree makes each such check one weight query plus O(log n) work, and the
candidates can be scanned classically or searched with the simulated
Grover schedule. The same batched path maximum names the tree edge a
violating edge replaces, and a witness is certified before it is
reported by checking that the swap leaves a strictly lighter spanning
tree, so a NotMinimal verdict carries one. Only this module charges the
oracle: the build, the predicate and the search read stored data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boruvka import BoruvkaTree, build_boruvka_tree
from .graph import Graph, NotSpanningError, SpanningTree, UnionFind, _check_tree_of, _is_real, spanning_tree
from .grover import BbhtStats, SearchSpace, bbht_cutoff, bbht_search
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
    """Exact per-run accounting of oracle traffic and coarse work: a verify's own charges, whoever shares its oracle."""

    classical_weight_queries: int
    quantum_oracle_applications: int
    grover_iterations: int
    mode: str
    work_ops: int

    @property
    def analytic_mode(self) -> bool:
        """A quantum mode's rounds sample the closed-form law: true unless classical."""
        return self.mode != "classical"


def validate_search_settings(delta) -> float:
    """delta's float value; ValueError unless that is in (0, 0.5) and its reciprocal a finite float.

    delta may be any real number, a Decimal or a 0-d numeric array
    included. Anything else, and a real with no float value (10**400,
    Decimal("sNaN")), raises ValueError naming it. A search runs one
    schedule, cut off at bbht_cutoff(N, delta) Grover iterations, which
    leaves room for j capped rounds, j growing with log(1/delta): 11 at
    the default 0.01, 2 near 0.5 and 1,616 at the smallest accepted
    delta. Below about 5.6e-309 (subnormal deltas) 1/delta overflows to
    inf, and such a delta is rejected.
    """
    value = delta.item() if isinstance(delta, np.ndarray) and delta.ndim == 0 else delta
    try:
        value = float(value) if _is_real(value) else None
    except (OverflowError, ValueError):  # 10**400 overflows a float, Decimal("sNaN") signals
        value = None
    if value is None:
        raise ValueError(f"delta must be a real number with a float value, got {delta!r}")
    if not (0.0 < value < 0.5):
        raise ValueError(f"delta must be in (0, 0.5), got {delta}")
    if math.isinf(1.0 / value):
        raise ValueError(f"delta {delta} is too small: 1/delta overflows a float")
    return value


def _violations(g: Graph, t: SpanningTree, b: BoruvkaTree) -> np.ndarray:
    """The violation predicate of every edge, from stored weights: the id of the tree edge it would replace, or -1.

    An edge violates iff it is outside T and strictly lighter than its
    T-path maximum, which one batched path-max gives for all non-tree edges
    at once; a violating edge would replace that maximum-(w, id) tree edge.
    Tree edges never violate. Equal weight does not violate: an equally
    heavy alternative never refutes minimality. The non-tree edges are
    those t.in_tree leaves False. No oracle calls: callers charge the
    lookups their query model requires. A Graph's endpoint columns are
    int64 vertices with u < v on every row, which is the climb's
    precondition.
    """
    outside = np.flatnonzero(~t.in_tree)
    replaced = np.full(g.m, -1, dtype=np.int64)
    max_w, max_id = b._climb(g.u[outside], g.v[outside])
    replaced[outside] = np.where(g.w[outside] < max_w, max_id, -1)
    return replaced


def kruskal_mst(g: Graph) -> SpanningTree:
    """Ground-truth minimum spanning tree: (w, id)-sorted edges + union-find."""
    uf = UnionFind(g.n)
    ids = []
    for i, a, b in zip(g.order.tolist(), g.u[g.order].tolist(), g.v[g.order].tolist()):
        if uf.union(a, b):
            ids.append(i)
            if len(ids) == g.n - 1:
                break
    return spanning_tree(g, sorted(ids))


def improve(g: Graph, t: SpanningTree, witness: Witness) -> SpanningTree:
    """Apply a certified swap, producing a strictly lighter spanning tree.

    Certification re-checks, from stored data: the incoming edge is not in
    T, the outgoing edge is, the swap leaves a spanning tree (for a
    spanning tree T, exactly when the outgoing edge lies on the T-path
    between the incoming edge's endpoints), and the swap strictly
    decreases weight. Raises InvalidWitnessError otherwise.
    """
    in_id, out_id = witness.violating_edge_id, witness.replaced_edge_id
    if not (0 <= in_id < g.m and 0 <= out_id < g.m):
        raise InvalidWitnessError(f"witness edge ids ({in_id}, {out_id}) out of range")
    if in_id in t:
        raise InvalidWitnessError(f"incoming edge {in_id} is already in the tree")
    if out_id not in t:
        raise InvalidWitnessError(f"outgoing edge {out_id} is not in the tree")
    try:
        improved = spanning_tree(g, sorted([i for i in t.edge_ids if i != out_id] + [in_id]))
    except NotSpanningError as exc:
        raise InvalidWitnessError(f"edge {out_id} is not on the tree path of edge {in_id}") from exc
    ws = g.columns[2]
    if not ws[in_id] < ws[out_id]:
        raise InvalidWitnessError(f"swap does not decrease weight ({ws[in_id]} >= {ws[out_id]})")
    return improved


def _charge(oracle: InstrumentedOracle, ids) -> None:
    """One classical weight lookup per edge id, in the order given: every classical charge of a verify.

    Each id is one call of the model's own query, picked once per batch:
    oracle.edge(i) in the edge-list model, oracle.weight(u[i], v[i]) in
    the adjacency model, its endpoints read from the memoryviews of the
    oracle's graph. The ids must be valid edge ids (t.edge_ids or the
    scan's candidates): a memoryview wraps a negative one.
    """
    if oracle.model is OracleModel.EDGE_LIST:
        edge = oracle.edge
        for i in ids:
            edge(i)
    else:
        weight = oracle.weight
        us, vs, _ = oracle.graph.columns
        for i in ids:
            weight(us[i], vs[i])


def _scan(g: Graph, t: SpanningTree, replaced: np.ndarray, oracle: InstrumentedOracle) -> tuple[int | None, int]:
    """The id of the first violating non-tree edge in (w, id) order, or None, and the number of candidates charged.

    Each candidate up to and including the first violation is charged one
    weight lookup, in scan order, exactly as an edge-by-edge scan charges
    it: replaced is every edge's predicate, batched by _violations, the
    non-tree edges are taken in (w, id) order from g.order, and the first
    violator's position in that scan ends the charged prefix.
    """
    scan = g.order[~t.in_tree[g.order]]
    hits = np.flatnonzero(replaced[scan] >= 0)
    stop = int(hits[0]) + 1 if hits.size else scan.size
    _charge(oracle, scan[:stop].tolist())
    return (int(scan[stop - 1]) if hits.size else None), stop


def _search_space(g: Graph, replaced: np.ndarray, mode: str) -> tuple[SearchSpace, Callable[[int], int]]:
    """The search domain of a quantum mode and its index -> violating edge id map.

    "edgelist" searches edge indices. "adjacency" searches the n(n-1)/2
    unordered vertex pairs, pair (a, b) with a < b at index
    graph.pair_index(n, a, b). Only a pair's minimum-(w, id) edge can be
    marked: a non-edge pair has no candidate, and a heavier parallel edge
    never violates where the pair minimum does not. So the marked indices
    are the keys of g.pair_columns() whose edge ids replaced, the batched
    predicate, marks. Either marker returns sorted int64 indices below the
    logical size, never padding; a key maps back to the edge id beside it.
    """
    if mode == OracleModel.EDGE_LIST.value:
        return SearchSpace(g.m, lambda: np.flatnonzero(replaced >= 0)), int
    keys, ids = g.pair_columns()
    return SearchSpace(g.n * (g.n - 1) // 2, lambda: keys[replaced[ids] >= 0]), lambda k: int(ids[keys.searchsorted(k)])


def _verify(
    g: Graph,
    t: SpanningTree,
    oracle: InstrumentedOracle,
    mode: str,
    rng: np.random.Generator | None = None,
    delta: float = DEFAULT_DELTA,
) -> tuple[Verdict, QueryReport]:
    """Build the Boruvka tree, find a violating edge, certify it, report the cost.

    The n-1 tree edges are charged in t.edge_ids order just before the
    build. Mode "classical" scans the candidates in (w, id) order, charging
    one weight query each; a quantum mode runs one BBHT schedule with rng
    over its search space, cut off at bbht_cutoff(N, delta) Grover
    iterations, so that it misses a marked index with probability at most
    delta, and charges its stats' oracle applications. Both read the
    violation predicate that one batch evaluated before, which also names
    the tree edge the found edge replaces. A tree sized for another graph
    raises NotSpanningError, and an oracle built over another graph
    ValueError, before any charge.
    """
    _check_tree_of(g, t)
    if oracle.graph is not g:
        raise ValueError(f"the oracle is built over another graph than {g!r}")
    _charge(oracle, t.edge_ids)
    b = build_boruvka_tree(g, t)
    replaced = _violations(g, t, b)
    found, scanned, stats = None, 0, BbhtStats()
    if mode == "classical":
        found, scanned = _scan(g, t, replaced, oracle)
    else:
        space, edge_of = _search_space(g, replaced, mode)
        if space.logical_size > 0:
            index, stats = bbht_search(space, rng, bbht_cutoff(space.domain_size, delta))
            oracle.count_quantum_applications(stats.oracle_applications)  # r iterations + 1 check per round
            if index is not None:
                found = edge_of(index)
    verdict = Verdict(minimal=True)
    if found is not None:
        witness = Witness(found, int(replaced[found]))
        ws = g.columns[2]
        verdict = Verdict(False, witness, improve(g, t, witness), weight_delta=ws[found] - ws[witness.replaced_edge_id])
    # every predicate evaluation is one oracle query, classical in the scan and
    # quantum in the search, and costs one ascent plus one compare
    evaluations = scanned + stats.oracle_applications
    report = QueryReport(
        classical_weight_queries=len(t.edge_ids) + scanned,
        quantum_oracle_applications=stats.oracle_applications,
        grover_iterations=stats.grover_iterations,
        mode=mode,
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
) -> tuple[Verdict, QueryReport]:
    """Verify with a simulated Grover search over the candidate domain.

    The Boruvka tree is built classically (n-1 weight queries); the
    violation predicate then needs no further classical queries, so the
    search runs one unknown-count schedule, cut off at
    grover.bbht_cutoff(N, delta) Grover iterations over a domain of N
    indices, which misses with probability at most delta (proved there),
    so a Minimal verdict is wrong with probability at most delta. The
    schedule of a Minimal verdict ran to its cutoff, so it costs exactly
    bbht_cutoff(N, delta) Grover iterations: 10.5 to 16.6 ceil(sqrt N)
    at the default delta, for N from 16 to 2^17. A found index is
    certified before it is reported, making false NotMinimal verdicts
    impossible.

    mode selects the search domain: "edgelist" (over edge indices,
    O(sqrt(m)) applications) or "adjacency" (over vertex pairs, O(n)
    applications). It defaults to the oracle's own model and must match it.
    A bad rng_seed raises numpy's ValueError or TypeError before any charge.
    """
    delta = validate_search_settings(delta)
    rng = np.random.default_rng(rng_seed)
    if mode is None:
        mode = oracle.model.value
    if mode != oracle.model.value:
        raise ValueError(f"mode {mode!r} does not match the oracle model {oracle.model.value!r}")
    return _verify(g, t, oracle, mode, rng, delta)
