"""Brute-force and debug references the package is tested against.

- Boruvka trees: validate_structure checks a tree's structural bounds, and
  direct_path_max is the brute-force path maximum that path_max must equal.
  nodes and dump read a tree's arrays as one BNode per node.
- Tree paths: dfs_tree_path_edges, a depth-first search over Python
  adjacency lists, which tree_path_edges must equal edge for edge.
- Verification: is_violating, the cycle-property test for one Edge, as an
  edge-by-edge scan would call it.
- Graphs: pair_min, the minimum-(w, id) edge of a vertex pair as an Edge.
- Grover: the known-count optimal_iterations, and a dense state-vector
  simulation. The package samples every search round from the closed-form
  law sin^2((2r+1)θ); StateVector iterates the full real amplitude vector
  instead, at O(N) per iteration, so tests can compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from mstverify.boruvka import BoruvkaTree, PathMaxAnswer, SameVertexError
from mstverify.graph import Edge, Graph, SpanningTree
from mstverify.grover import SearchSpace
from mstverify.oracle import InstrumentedOracle


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
    up, bw, bid = b.parent.tolist(), b.branch_w.tolist(), b.branch_id.tolist()
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


def direct_path_max(g: Graph, t: SpanningTree, u: int, v: int) -> PathMaxAnswer:
    """Brute-force reference for path_max: walk the T-path, take the (w, id) max."""
    path = dfs_tree_path_edges(g, t, u, v)
    best = max(path, key=lambda e: e.key)
    return PathMaxAnswer(best.w, best.id, ascent_steps=len(path))


def dfs_tree_path_edges(g: Graph, t: SpanningTree, u: int, v: int) -> list[Edge]:
    """The unique T-path between u and v in u -> v order, by a depth-first search over adjacency lists."""
    if u == v:
        raise SameVertexError(f"path query needs distinct vertices, got {u} twice")
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
    path: list[Edge] = []
    x = v
    while x != u:
        x, i = via[x]
        path.append(g.edge(i))
    path.reverse()
    return path


def is_violating(
    g: Graph,
    t: SpanningTree,
    b: BoruvkaTree,
    e: Edge,
    oracle: InstrumentedOracle | None = None,
) -> bool:
    """True iff e is outside T and strictly lighter than its T-path maximum.

    With an oracle, w(e) costs one weight-oracle call; without one the
    stored weight is used. Equal weight does not violate.
    """
    if e.id in t:
        return False
    w = e.w if oracle is None else oracle.lookup_weight(e.id)
    return w < b.path_max(e.u, e.v).max_weight


def pair_min(g: Graph, a: int, b: int) -> Edge | None:
    """Minimum-(w, id) edge between a and b, or None for a non-edge pair."""
    i = g.pair_min_ids().get((a, b) if a < b else (b, a))
    return None if i is None else g.edge(i)


class KZeroError(ValueError):
    """An operation needs at least one marked element."""


def optimal_iterations(domain_size: int, marked: int) -> int:
    """floor((pi/4) * sqrt(N/k)), the standard known-count iteration choice."""
    if marked == 0:
        raise KZeroError("optimal iteration count undefined for zero marked elements")
    if not (1 <= marked <= domain_size):
        raise ValueError(f"need 1 <= k <= N, got k={marked} N={domain_size}")
    return int(math.pi / 4 * math.sqrt(domain_size / marked))


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
        success=space.marker(measured),
    )
