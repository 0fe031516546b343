"""Brute-force and debug references the package is tested against.

- Boruvka trees: validate_structure checks a tree's structural bounds.
  path_max is the scalar ascent, one vertex pair at a time over Python
  lists, and direct_path_max the brute-force T-path maximum: the batched
  climb BoruvkaTree._climb must equal both. Both raise ValueError on
  u == v. nodes and dump read a tree's arrays as one BNode per node.
- Tree paths: dfs_tree_path_edges, the path's edge ids by a depth-first
  search over Python adjacency lists. walk_improve certifies a swap by walking the incoming
  edge's T-path, as the package did before it checked the swapped tree
  instead; improve must give the same tree or the same error.
- Trees: walk_spanning_tree checks tree ids one by one, as spanning_tree
  did up to 32 ids before it checked all ids at once at every size; it
  must give the same ids or the same error.
- Verification: is_violating, the cycle-property test for one edge id, as
  an edge-by-edge scan would call it; charge_lookup charges one edge by id
  in an oracle's model, as InstrumentedOracle.lookup_weight did.
- Graphs: pair_min, the id of the minimum-(w, id) edge of a vertex pair.
- Search domains: loop_marked_indices calls a scalar marker once per
  position, as SearchSpace.marked_indices did before its marker returned
  the marked indices themselves.
- Grover: the known-count optimal_iterations, and a dense state-vector
  simulation. The package samples every search round from the closed-form
  law sin^2((2r+1)θ); StateVector iterates the full real amplitude vector
  instead, at O(N) per iteration, so tests can compare the two.
- BBHT schedule: rejection_round measures an index on every round, hit or
  miss, and loop_bbht_search draws each round with its own Generator
  calls, as the package did before it drew rounds in chunks; the chunked
  schedule must match the loop in distribution. chunked_bbht_search is
  the chunked schedule as it ran with a generator of rounds and
  dataclass counters; bbht_search, given the same Generator, must make
  the same calls on it in the same order and report the same. These
  references take a seed or a Generator, as default_rng does. bbht_stop_law is the exact law of
  a schedule's stop round and of its failure, a dynamic program over
  (round, cumulative iterations).
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from mstverify.boruvka import BoruvkaTree
from mstverify.graph import Graph, NotInGraphError, NotSpanningError, SpanningTree, UnionFind, spanning_tree
from mstverify.grover import BBHT_GROWTH, ROUND_CHUNK, BbhtStats, SearchSpace, success_probability
from mstverify.oracle import InstrumentedOracle, OracleModel
from mstverify.verify import InvalidWitnessError, Witness


class BNode(NamedTuple):
    """One aggregate in the Boruvka tree, as read from the tree's arrays.

    branch_edge_id / branch_weight describe the tree edge this node
    selected when it merged into its parent; both are None for the root.
    """

    id: int
    level: int
    parent: int | None = None
    branch_edge_id: int | None = None
    branch_weight: float | None = None
    children: tuple[int, ...] = ()


def nodes(b: BoruvkaTree) -> tuple[BNode, ...]:
    """The tree as one BNode per node id, derived from the arrays."""
    up, bw, bid = b.parent.tolist(), b.rank_w[b.branch_rank].tolist(), b.rank_id[b.branch_rank].tolist()
    children: list[list[int]] = [[] for _ in up]
    level = [0] * len(up)
    for i, p in enumerate(up[:-1]):  # children come before their parent
        children[p].append(i)
        level[p] = level[i] + 1
    out = list(map(BNode, range(len(up)), level, up, bid, bw, map(tuple, children)))
    out[b.root] = BNode(b.root, level[b.root], children=tuple(children[b.root]))
    return tuple(out)


def dump(b: BoruvkaTree) -> str:
    """Debug outline, one node per line: id level parent branch_weight branch_edge_id."""
    lines = []
    for node in nodes(b):
        parent = "-" if node.parent is None else str(node.parent)
        bw = "-" if node.branch_weight is None else repr(node.branch_weight)
        be = "-" if node.branch_edge_id is None else str(node.branch_edge_id)
        lines.append(f"{node.id} {node.level} {parent} {bw} {be}")
    return "\n".join(lines) + "\n"


def validate_structure(b: BoruvkaTree, n: int) -> None:
    """Raise ValueError unless b is a full branching tree within the size bounds."""
    all_nodes = nodes(b)
    leaves = [node for node in all_nodes if not node.children]
    if len(leaves) != n or any(node.level != 0 for node in leaves):
        raise ValueError("leaves must be exactly the n vertices at level 0")
    if len(all_nodes) > 2 * n:
        raise ValueError(f"node count {len(all_nodes)} exceeds 2n = {2 * n}")
    for node in all_nodes:
        if node.children and len(node.children) < 2:
            raise ValueError(f"internal node {node.id} has fan-out {len(node.children)}")
        if node.id != b.root and node.parent is None:
            raise ValueError(f"non-root node {node.id} has no parent")
    # equal leaf depth: every leaf must reach the root in exactly `height` hops
    for leaf in leaves:
        depth = 0
        node = leaf
        while node.parent is not None:
            node = all_nodes[node.parent]
            depth += 1
        if node.id != b.root or depth != b.height:
            raise ValueError(f"leaf {leaf.id} at depth {depth}, expected height {b.height}")
    if n > 1 and b.height > math.ceil(math.log2(n)):
        raise ValueError(f"height {b.height} exceeds ceil(log2 {n})")
    if n == 1 and b.height != 0:
        raise ValueError("single-vertex tree must have height 0")


@dataclass(frozen=True)
class PathMaxAnswer:
    """Heaviest-(w, id) edge on the tree path between two queried vertices."""

    max_weight: float
    max_edge_id: int
    ascent_steps: int


_tree_lists: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _lists(b: BoruvkaTree) -> tuple[list, list, list]:
    """b's parents, and each node's branch weight and id, as lists made once per tree: lists index faster."""
    if b not in _tree_lists:
        _tree_lists[b] = (b.parent.tolist(), b.rank_w[b.branch_rank].tolist(), b.rank_id[b.branch_rank].tolist())
    return _tree_lists[b]


def path_max(b: BoruvkaTree, u: int, v: int) -> PathMaxAnswer:
    """Maximum branch on the two synchronized ascents from u and v to their LCA, one step at a time.

    Equals the maximum-(w, id) edge of the T-path between u and v.
    O(height) work, no oracle queries.
    """
    if u == v:
        raise ValueError(f"path query needs distinct vertices, got {u} twice")
    for x in (u, v):
        if not (0 <= x < b.n):
            raise IndexError(f"vertex {x} out of range [0, {b.n - 1}]")
    up, bw, bid = _lists(b)
    x, y = u, v
    best_w = -math.inf
    best_id = -1
    steps = 0
    while x != y:
        for z in (x, y):
            if (bw[z], bid[z]) > (best_w, best_id):
                best_w, best_id = bw[z], bid[z]
        x = up[x]
        y = up[y]
        steps += 2
    return PathMaxAnswer(best_w, best_id, steps)


def direct_path_max(g: Graph, t: SpanningTree, u: int, v: int) -> PathMaxAnswer:
    """Brute-force reference for path_max: walk the T-path, take the (w, id) max."""
    path = dfs_tree_path_edges(g, t, u, v)
    ws = g.columns[2]
    best = max(path, key=lambda i: (ws[i], i))
    return PathMaxAnswer(ws[best], best, ascent_steps=len(path))


def dfs_tree_path_edges(g: Graph, t: SpanningTree, u: int, v: int) -> list[int]:
    """The edge ids of the unique T-path between u and v in u -> v order, by a depth-first search over adjacency lists."""
    if u == v:
        raise ValueError(f"path query needs distinct vertices, got {u} twice")
    us, vs, _ = g.columns
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]  # vertex -> (neighbor, edge id)
    for i in t.edge_ids:
        adjacency[us[i]].append((vs[i], i))
        adjacency[vs[i]].append((us[i], i))
    via: list[tuple[int, int] | None] = [None] * g.n  # vertex -> (previous vertex, edge id)
    stack = [u]
    seen = [False] * g.n
    seen[u] = True
    while stack:
        x = stack.pop()
        if x == v:
            break
        for y, i in adjacency[x]:
            if not seen[y]:
                seen[y] = True
                via[y] = (x, i)
                stack.append(y)
    path: list[int] = []
    x = v
    while x != u:
        x, i = via[x]
        path.append(i)
    path.reverse()
    return path


def walk_improve(g: Graph, t: SpanningTree, witness: Witness) -> SpanningTree:
    """Reference for improve: the same checks in the same order, the on-path one by walking the T-path."""
    in_id, out_id = witness.violating_edge_id, witness.replaced_edge_id
    if not (0 <= in_id < g.m and 0 <= out_id < g.m):
        raise InvalidWitnessError(f"witness edge ids ({in_id}, {out_id}) out of range")
    if in_id in t:
        raise InvalidWitnessError(f"incoming edge {in_id} is already in the tree")
    if out_id not in t:
        raise InvalidWitnessError(f"outgoing edge {out_id} is not in the tree")
    us, vs, ws = g.columns
    if out_id not in dfs_tree_path_edges(g, t, us[in_id], vs[in_id]):
        raise InvalidWitnessError(f"edge {out_id} is not on the tree path of edge {in_id}")
    if not ws[in_id] < ws[out_id]:
        raise InvalidWitnessError(f"swap does not decrease weight ({ws[in_id]} >= {ws[out_id]})")
    ids = sorted([i for i in t.edge_ids if i != out_id] + [in_id])
    return spanning_tree(g, ids)


def walk_spanning_tree(g: Graph, edge_ids) -> tuple[int, ...]:
    """Reference for spanning_tree: the ids, or the first error, found by walking the ids one by one."""
    ids = tuple(map(operator.index, edge_ids))
    for i in ids:
        if not (0 <= i < g.m):
            raise NotInGraphError(f"edge index {i} out of range [0, {g.m - 1}]")
    if len(ids) != g.n - 1:
        raise NotSpanningError(f"expected {g.n - 1} edges, got {len(ids)}")
    uf = UnionFind(g.n)
    us, vs, _ = g.columns
    for i in ids:
        if not uf.union(us[i], vs[i]):
            raise NotSpanningError(f"edge {i} ({us[i]}, {vs[i]}) closes a cycle")
    # n-1 acyclic edges on n vertices are necessarily spanning
    return ids


def is_violating(
    g: Graph,
    t: SpanningTree,
    b: BoruvkaTree,
    i: int,
    oracle: InstrumentedOracle | None = None,
) -> bool:
    """True iff edge i is outside T and strictly lighter than its T-path maximum.

    With an oracle, w(i) is charged one weight-oracle call (charge_lookup);
    the stored weight is compared. Equal weight does not violate.
    """
    if i in t:
        return False
    if oracle is not None:
        charge_lookup(oracle, i)
    us, vs, ws = g.columns
    return ws[i] < path_max(b, us[i], vs[i]).max_weight


def charge_lookup(oracle: InstrumentedOracle, i: int) -> None:
    """Charge edge i as one call of the oracle's own query: edge(i), or weight() of edge i's endpoints."""
    if oracle.model is OracleModel.EDGE_LIST:
        oracle.edge(i)
    else:
        us, vs, _ = oracle.graph.columns
        oracle.weight(us[i], vs[i])


def pair_min(g: Graph, a: int, b: int) -> int | None:
    """Id of the minimum-(w, id) edge between a and b, or None for a non-edge pair: a scan of every edge."""
    ends = (min(a, b), max(a, b))
    joining = [(w, i) for i, (u, v, w) in enumerate(zip(*g.columns)) if (u, v) == ends]
    return min(joining)[1] if joining else None


class KZeroError(ValueError):
    """An operation needs at least one marked element."""


def optimal_iterations(domain_size: int, marked: int) -> int:
    """floor((pi/4) * sqrt(N/k)), the standard known-count iteration choice."""
    if marked == 0:
        raise KZeroError("optimal iteration count undefined for zero marked elements")
    if not (1 <= marked <= domain_size):
        raise ValueError(f"need 1 <= k <= N, got k={marked} N={domain_size}")
    return int(math.pi / 4 * math.sqrt(domain_size / marked))


def loop_marked_indices(positions, marker) -> np.ndarray:
    """The positions a scalar marker marks, in order, calling it once per position: an int64 array."""
    return np.asarray([i for i in positions if marker(i)], dtype=np.int64)


def marked_mask(space: SearchSpace) -> np.ndarray:
    """Boolean mask over the whole domain, padding included, of the marked indices."""
    mask = np.zeros(space.domain_size, dtype=bool)
    mask[space.marked_indices()] = True
    return mask


class StateVector:
    """Dense real amplitudes of a Grover register."""

    __slots__ = ("amplitudes",)

    def __init__(self, domain_size: int):
        self.amplitudes = np.full(domain_size, domain_size**-0.5)

    def grover_iteration(self, marked_mask: np.ndarray) -> None:
        """Phase-flip the marked amplitudes, then invert about the mean."""
        a = self.amplitudes
        # in place, bit-identical to a[mask] *= -1 and a.mean(): the same float operations and pairwise sum
        np.negative(a, out=a, where=marked_mask)
        np.subtract(2.0 * (np.add.reduce(a) / a.size), a, out=a)

    def norm(self) -> float:
        a = self.amplitudes
        return float(math.sqrt(a @ a))

    def marked_probability(self, marked_mask: np.ndarray) -> float:
        a = self.amplitudes[marked_mask]
        return float(a @ a)

    def sample(self, rng: np.random.Generator) -> int:
        """Measure: one index drawn from the squared amplitudes."""
        a = self.amplitudes
        cum = a * a
        np.cumsum(cum, out=cum)
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return min(idx, a.size - 1)


@dataclass(frozen=True)
class GroverRunStats:
    """Outcome of one fixed-iteration-count Grover run."""

    iterations: int
    oracle_applications: int
    measured_index: int
    success: bool


def dense_round(space: SearchSpace, iterations: int, rng: np.random.Generator) -> int:
    """One measured outcome of a dense Grover round from the uniform start."""
    state = StateVector(space.domain_size)
    mask = marked_mask(space)
    for _ in range(iterations):
        state.grover_iteration(mask)
    return state.sample(rng)


def grover_search(space: SearchSpace, iterations: int, rng_seed) -> GroverRunStats:
    """Run one exact Grover search with a fixed iteration count.

    Starts from the uniform superposition, applies `iterations` rounds of
    phase flip + inversion about the mean, then measures once. One oracle
    application per iteration. Deterministic for a given rng_seed.
    """
    if iterations < 0:
        raise ValueError("iteration count must be >= 0")
    rng = np.random.default_rng(rng_seed)
    measured = dense_round(space, iterations, rng)
    return GroverRunStats(
        iterations=iterations,
        oracle_applications=iterations,
        measured_index=measured,
        success=bool(marked_mask(space)[measured]),
    )


def rejection_round(space: SearchSpace, iterations: int, rng: np.random.Generator) -> int:
    """One round's measured index from the closed form: marked with the closed-form probability, else unmarked.

    Amplitudes stay uniform within the marked class and within the
    unmarked class, so a hit is uniform over the marked indices and a miss
    uniform over the rest, padding included: a miss is drawn by rejection,
    and by np.setdiff1d after 64 rejections in a row.
    """
    n, k = space.domain_size, space.marked_count
    mask = marked_mask(space)
    if k == n or rng.random() < success_probability(n, k, iterations):
        marked = space.marked_indices()
        return int(marked[rng.integers(marked.size)])
    for _ in range(64):  # rejection is cheap unless nearly everything is marked
        idx = int(rng.integers(n))
        if not mask[idx]:
            return idx
    unmarked = np.setdiff1d(np.arange(n, dtype=np.int64), space.marked_indices())
    return int(unmarked[rng.integers(unmarked.size)])


def loop_bbht_search(space: SearchSpace, rng_seed, cutoff: int) -> tuple[int | None, BbhtStats]:
    """The BBHT schedule one round at a time: an iteration count, a measured index and its check per round."""
    rng = np.random.default_rng(rng_seed)
    n = space.domain_size
    mask = marked_mask(space)
    stats = BbhtStats()
    bound = 1.0
    while stats.grover_iterations < cutoff:
        r = int(rng.integers(0, math.ceil(bound)))
        r = min(r, cutoff - stats.grover_iterations)
        measured = rejection_round(space, r, rng)
        stats.grover_iterations += r
        stats.rounds += 1
        if mask[measured]:
            return measured, stats
        bound = min(bound * BBHT_GROWTH, math.sqrt(n))
    return None, stats


def _chunked_rounds(domain_size: int, rng: np.random.Generator) -> Iterator[tuple[int, float]]:
    """(iteration count, success uniform) pairs: per chunk, rng.random(2 * ROUND_CHUNK), counts floor(u * ceiling) from its first half.

    Round i draws below ceil(bound_i), where bound_0 = 1 and each bound is
    6/5 of the last, capped at sqrt(N); the row of capped rounds repeats.
    """
    cap = math.sqrt(domain_size)
    bound = 1.0
    ceilings = []
    while bound < cap or len(ceilings) % ROUND_CHUNK:
        ceilings.append(math.ceil(bound))
        bound = min(bound * BBHT_GROWTH, cap)
    ceilings += [math.ceil(cap)] * ROUND_CHUNK
    rows = np.array(ceilings, dtype=np.int64).reshape(-1, ROUND_CHUNK)
    for c in itertools.count():
        highs = rows[min(c, len(rows) - 1)].tolist()
        draws = rng.random(2 * ROUND_CHUNK).tolist()
        yield from zip([math.floor(u * h) for u, h in zip(draws, highs)], draws[ROUND_CHUNK:])


def _chunked_round(space: SearchSpace, iterations: int, uniform: float, rng: np.random.Generator) -> int | None:
    """A marked index drawn with rng.integers(k) when uniform falls below the closed form, else None."""
    n, k = space.domain_size, int(space.marked_indices().size)
    if k == n or uniform < success_probability(n, k, iterations):
        marked = space.marked_indices()
        return int(marked[rng.integers(marked.size)])
    return None


def chunked_bbht_search(space: SearchSpace, rng_seed, cutoff: int) -> tuple[int | None, BbhtStats]:
    """The chunked BBHT schedule with a generator of rounds and counters on BbhtStats, round by round."""
    rng = np.random.default_rng(rng_seed)
    stats = BbhtStats()
    found = None
    for r, uniform in _chunked_rounds(space.domain_size, rng):
        r = min(r, cutoff - stats.grover_iterations)
        found = _chunked_round(space, r, uniform, rng)
        stats.grover_iterations += r
        stats.rounds += 1
        if found is not None or stats.grover_iterations >= cutoff:
            break
    return found, stats


def bbht_stop_law(domain_size: int, marked, cutoff: int, tail: float = 1e-15) -> tuple:
    """Exact failure probability of one BBHT schedule and the law of its stop round, for one marked count or many.

    Round i draws r uniform below ceil(bound_i), clamped at the iterations
    the cutoff leaves, and hits with probability sin^2((2r+1)θ); the
    schedule stops at a hit or when its iterations reach the cutoff. The
    draws never depend on outcomes, so the mass of running schedules per
    cumulative iteration count, round by round, gives the law exactly.
    Rounds are followed until less than `tail` of the mass still runs;
    that remainder is counted as failure, so P_fail is an upper bound
    tight to `tail`. Returns (P_fail, stop) with stop[j] the probability
    that the schedule stops after exactly j rounds (stop[0] = 0). Given an
    array of marked counts, every count's law is followed at once, and
    P_fail and stop gain a leading axis, one row per count.
    """
    ks = np.atleast_1d(np.asarray(marked, dtype=np.float64))
    cap = math.sqrt(domain_size)
    theta = np.arcsin(np.sqrt(ks / domain_size))[:, None]
    # miss[:, r]: a round running r iterations misses
    miss = 1.0 - np.sin((2 * np.arange(math.ceil(cap)) + 1) * theta) ** 2
    running = np.zeros((ks.size, cutoff))  # mass per count and iterations used so far, before the next round
    running[:, 0] = 1.0
    stop = [np.zeros(ks.size)]
    fail = np.zeros(ks.size)
    bound = 1.0
    while running.sum(axis=1).max() >= tail:
        high = math.ceil(bound)
        share = running / high
        after = np.zeros_like(running)
        for r in range(high):  # a draw of r after s < cutoff - r iterations runs all r of them, and on a miss runs on
            after[:, r:] += share[:, : cutoff - r] * miss[:, r : r + 1]
        # after s >= cutoff - r iterations a draw of r runs t = cutoff - s of them, and a miss ends at the cutoff:
        # each t in 1..high-1 is run by the high - t draws r >= t
        t = np.arange(1, high)
        fail += (share[:, cutoff - t] * (high - t) * miss[:, t]).sum(axis=1)
        stop.append(running.sum(axis=1) - after.sum(axis=1))
        running = after
        bound = min(bound * BBHT_GROWTH, cap)
    p_fail, stop = fail + running.sum(axis=1), np.stack(stop, axis=1)
    return (p_fail, stop) if np.ndim(marked) else (float(p_fail[0]), stop[0])
