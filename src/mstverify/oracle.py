"""Instrumented weight oracles for the two query models.

The adjacency-matrix model answers weight(a, b) for any vertex pair and
returns +inf for non-edges; the edge-list model answers edge(i) with the
endpoints and weight of the i-th edge. Both keep exact monotone counters:
classical_queries counts direct lookups, quantum_queries counts whole
oracle applications (one per Grover iteration and one per classical check
of a measured index, regardless of superposition width).

Every classical charge is one call of edge() or weight(), each taking the
counter lock once, so a caller (or a tracer wrapping those methods) sees
one call per query. Only verify.py charges: each tree edge and each
scanned candidate by a direct call of edge() or weight(), the model's own
query, and each search by count_quantum_applications().

Those two per-query methods take the lock with an explicit acquire() and
a try/finally release() rather than a `with` block: the context-manager
protocol was about a third of a charge's cost. Each runs every check that
can reject the call (model, integer index, range) before it charges, and
reads its answer from memoryviews of the graph's numpy columns, weight()
by a graph.key_position binary search of the sorted pair keys.
count_quantum_applications() runs once per schedule and keeps `with`.
"""

from __future__ import annotations

import operator
import threading
from enum import Enum

from .graph import INFINITE_WEIGHT, Graph, key_position, pair_index


class OracleModel(Enum):
    ADJACENCY = "adjacency"
    EDGE_LIST = "edgelist"


class InstrumentedOracle:
    """Counting front end over a graph's weight data.

    Counter increments are lock-protected and safe under concurrent
    callers; the counters never decrease. A lookup is charged only once
    its arguments are accepted: a wrong model, a non-integer index or one
    out of range raises uncharged.
    """

    def __init__(self, graph: Graph, model: OracleModel | str):
        """model is an OracleModel or its value ("adjacency" or "edgelist"); anything else raises ValueError."""
        self.model = model = OracleModel(model)
        self.graph = graph
        self._adjacency = model is OracleModel.ADJACENCY  # else the edge-list model
        # made once: a lookup reads its cells of the columns as exact Python numbers, with no copy
        self._us, self._vs, self._ws = graph.columns
        self._m = graph.m
        self._keys, self._ids = map(memoryview, graph.pair_columns()) if self._adjacency else ((), ())
        self._lock = threading.Lock()
        self._classical = 0
        self._quantum = 0

    @property
    def classical_queries(self) -> int:
        return self._classical

    @property
    def quantum_queries(self) -> int:
        return self._quantum

    def count_quantum_applications(self, k: int = 1) -> None:
        """Record k whole oracle applications issued by a quantum engine; k must be an integer."""
        k = operator.index(k)
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
        a, b = operator.index(a), operator.index(b)
        n = self.graph.n
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"vertex pair ({a}, {b}) outside [0, {n - 1}]^2")
        lock = self._lock
        lock.acquire()
        try:
            self._classical += 1
        finally:
            lock.release()
        if a == b:  # before pair_index, for which (a, a) would alias another pair
            return INFINITE_WEIGHT
        at = key_position(self._keys, pair_index(n, a, b) if a < b else pair_index(n, b, a))
        return INFINITE_WEIGHT if at < 0 else self._ws[self._ids[at]]

    def edge(self, i: int) -> tuple[int, int, float]:
        """The edge-list model's lookup: endpoints and weight of edge i."""
        if self._adjacency:
            raise ValueError("edge(i) requires an edge-list-model oracle")
        if not (0 <= i < self._m):
            raise IndexError(f"edge index {i} outside [0, {self._m - 1}]")
        row = (self._us[i], self._vs[i], self._ws[i])  # a non-integer i raises TypeError here, uncharged
        lock = self._lock
        lock.acquire()
        try:
            self._classical += 1
        finally:
            lock.release()
        return row
