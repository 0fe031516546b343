"""Instrumented weight oracles for the two query models.

The adjacency-matrix model answers weight(a, b) for any vertex pair and
returns +inf for non-edges; the edge-list model answers edge(i) with the
endpoints and weight of the i-th edge. Both keep exact monotone counters:
classical_queries counts direct lookups, quantum_queries counts whole
oracle applications (one per Grover iteration and one per classical check
of a measured index, regardless of superposition width).

Every classical charge is one call of edge() or weight(), each taking the
counter lock once, so a caller (or a tracer wrapping those methods) sees
one call per query; lookup_weight charges one edge by id that way.
"""

from __future__ import annotations

import threading
from enum import Enum

from .graph import INFINITE_WEIGHT, Graph


class OracleModel(Enum):
    ADJACENCY = "adjacency"
    EDGE_LIST = "edgelist"


class InstrumentedOracle:
    """Counting front end over a graph's weight data.

    Counter increments are lock-protected and safe under concurrent
    callers; the counters never decrease except through reset().
    """

    def __init__(self, graph: Graph, model: OracleModel):
        self.graph = graph
        self.model = model
        self._adjacency = model is OracleModel.ADJACENCY  # else the edge-list model
        # read once, so every lookup indexes them directly
        self._columns = graph.columns
        self._pair_min = graph.pair_min_ids() if self._adjacency else {}
        self._lock = threading.Lock()
        self._classical = 0
        self._quantum = 0

    @property
    def classical_queries(self) -> int:
        return self._classical

    @property
    def quantum_queries(self) -> int:
        return self._quantum

    def reset(self) -> None:
        """Zero both counters (the only way they ever decrease)."""
        with self._lock:
            self._classical = 0
            self._quantum = 0

    def count_quantum_applications(self, k: int = 1) -> None:
        """Record k whole oracle applications issued by a quantum engine."""
        if k < 0:
            raise ValueError("application count must be >= 0")
        with self._lock:
            self._quantum += k

    def weight(self, a: int, b: int) -> float:
        """Adjacency-model lookup: w(a, b), or +inf when (a, b) is not an edge.

        Total on the vertex-pair domain; symmetric in a and b. Parallel
        edges are served as the minimum weight for the pair.
        """
        if not self._adjacency:
            raise ValueError("weight(a, b) requires an adjacency-model oracle")
        n = self.graph.n
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"vertex pair ({a}, {b}) outside [0, {n - 1}]^2")
        with self._lock:
            self._classical += 1
        if a == b:
            return INFINITE_WEIGHT
        i = self._pair_min.get((a, b) if a < b else (b, a))
        return INFINITE_WEIGHT if i is None else self._columns[2][i]

    def edge(self, i: int) -> tuple[int, int, float]:
        """Edge-list-model lookup: endpoints and weight of edge i."""
        if self._adjacency:
            raise ValueError("edge(i) requires an edge-list-model oracle")
        us, vs, ws = self._columns
        if not (0 <= i < len(ws)):
            raise IndexError(f"edge index {i} outside [0, {self.graph.m - 1}]")
        with self._lock:
            self._classical += 1
        return (us[i], vs[i], ws[i])

    def lookup_weight(self, i: int) -> float:
        """Weight of edge i, charged as one classical lookup in this oracle's model.

        The lookup is a call of self.edge or self.weight, whichever the model
        answers, so every charge passes through the method that counts it.
        Edge i's own weight is returned: the adjacency model serves a pair by
        its minimum edge, which is not edge i when it is a heavier parallel edge.
        An i outside the edges raises IndexError in both models, uncharged.
        """
        if self._adjacency:
            us, vs, ws = self._columns
            if not (0 <= i < len(ws)):
                raise IndexError(f"edge index {i} outside [0, {self.graph.m - 1}]")
            self.weight(us[i], vs[i])
            return ws[i]
        return self.edge(i)[2]
