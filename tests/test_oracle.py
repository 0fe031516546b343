"""Instrumented oracle behavior and counter exactness."""

from __future__ import annotations

import math
import re
import threading

import numpy as np
import pytest

from mstverify import (
    InstrumentedOracle,
    OracleModel,
    classical_verify,
    kruskal_mst,
    load_graph,
    quantum_verify,
    random_connected_graph,
    random_spanning_tree,
)
from mstverify.generate import perturbed_mst
from mstverify.graph import spanning_tree

from .conftest import adj_oracle, edge_oracle, path_graph, triangle


class TestAdjacencyModel:
    def test_edge_lookup_counts(self):
        o = adj_oracle(triangle())
        assert o.weight(0, 1) == 1.0
        assert o.classical_queries == 1

    def test_symmetry(self):
        o = adj_oracle(triangle())
        assert o.weight(1, 0) == o.weight(0, 1) == 1.0

    def test_non_edge_is_infinite(self):
        o = adj_oracle(path_graph([1.0, 1.0, 1.0]))
        assert o.weight(0, 3) == math.inf

    def test_same_vertex_pair_is_infinite(self):
        o = adj_oracle(triangle())
        assert o.weight(2, 2) == math.inf

    def test_out_of_range_rejected(self):
        o = adj_oracle(triangle())
        with pytest.raises(IndexError):
            o.weight(0, 3)

    def test_parallel_edges_served_as_minimum(self):
        g = load_graph("2 2\n0 1 2.0\n0 1 1.0\n")
        o = InstrumentedOracle(g, OracleModel.ADJACENCY)
        assert o.weight(0, 1) == 1.0

    def test_edge_weight_of_heavier_parallel_edge_is_its_own(self):
        g = load_graph("2 2\n0 1 2.0\n0 1 1.0\n")
        o = InstrumentedOracle(g, OracleModel.ADJACENCY)
        assert o.edge_weight(g.edges[0]) == 2.0
        assert o.classical_queries == 1

    def test_wrong_model_call_rejected(self):
        o = adj_oracle(triangle())
        with pytest.raises(ValueError):
            o.edge(0)


class TestEdgeListModel:
    def test_lookup(self):
        o = edge_oracle(triangle())
        assert o.edge(2) == (0, 2, 3.0)
        assert o.edge(0) == (0, 1, 1.0)
        assert o.classical_queries == 2

    def test_index_out_of_range(self):
        o = edge_oracle(triangle())
        with pytest.raises(IndexError):
            o.edge(3)

    def test_wrong_model_call_rejected(self):
        o = edge_oracle(triangle())
        with pytest.raises(ValueError):
            o.weight(0, 1)


class TestCounters:
    def test_quantum_context_flag(self):
        o = adj_oracle(triangle())
        o.weight(0, 1, quantum=True)
        o.weight(0, 1)
        assert (o.classical_queries, o.quantum_queries) == (1, 1)

    def test_quantum_application_counting(self):
        o = edge_oracle(triangle())
        o.count_quantum_applications(5)
        o.count_quantum_applications()
        assert o.quantum_queries == 6

    def test_reset(self):
        o = edge_oracle(triangle())
        o.edge(0)
        o.count_quantum_applications(2)
        o.reset()
        assert (o.classical_queries, o.quantum_queries) == (0, 0)

    def test_exactness_against_shadow_counter(self, rng):
        g = triangle()
        o = adj_oracle(g)
        shadow_classical = shadow_quantum = 0
        for _ in range(500):
            op = int(rng.integers(3))
            if op == 0:
                o.weight(int(rng.integers(3)), int(rng.integers(3)))
                shadow_classical += 1
            elif op == 1:
                o.weight(int(rng.integers(3)), int(rng.integers(3)), quantum=True)
                shadow_quantum += 1
            else:
                k = int(rng.integers(4))
                o.count_quantum_applications(k)
                shadow_quantum += k
        assert (o.classical_queries, o.quantum_queries) == (shadow_classical, shadow_quantum)

    def test_monotone_under_concurrent_increments(self):
        o = edge_oracle(triangle())
        per_thread = 2000

        def worker():
            for i in range(per_thread):
                o.edge(i % 3)
                o.count_quantum_applications()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert o.classical_queries == 8 * per_thread
        assert o.quantum_queries == 8 * per_thread


class TestCallContract:
    """Every classical charge is one call of InstrumentedOracle.edge or .weight, the methods a tracer wraps."""

    @pytest.mark.parametrize("n,m", [(6, 12), (40, 120), (150, 450)])  # edge-by-edge and batched scans, both tree builds
    @pytest.mark.parametrize("model", [OracleModel.EDGE_LIST, OracleModel.ADJACENCY])
    def test_spied_calls_equal_classical_queries(self, monkeypatch, n, m, model):
        calls = []
        for name in ("edge", "weight"):
            method = getattr(InstrumentedOracle, name)

            def spy(self, *args, _method=method, **kwargs):
                calls.append(kwargs.get("quantum", False))
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(InstrumentedOracle, name, spy)
        rng = np.random.default_rng([n, m])
        g = random_connected_graph(n, m, rng)
        for t in (kruskal_mst(g), perturbed_mst(g, rng), random_spanning_tree(g, rng)):
            for run in (classical_verify, quantum_verify):
                calls.clear()
                oracle = InstrumentedOracle(g, model)
                _, report = run(g, t, oracle)
                assert calls == [False] * oracle.classical_queries
                assert report.classical_weight_queries == oracle.classical_queries >= n - 1

    def test_error_texts(self):
        edge_list, adjacency = edge_oracle(triangle()), adj_oracle(triangle())
        with pytest.raises(ValueError, match=re.escape("weight(a, b) requires an adjacency-model oracle")):
            edge_list.weight(0, 1)
        with pytest.raises(ValueError, match=re.escape("edge(i) requires an edge-list-model oracle")):
            adjacency.edge(0)
        with pytest.raises(IndexError, match=re.escape("edge index 3 outside [0, 2]")):
            edge_list.edge(3)
        with pytest.raises(IndexError, match=re.escape("edge index -1 outside [0, 2]")):
            edge_list.edge(-1)
        with pytest.raises(IndexError, match=re.escape("vertex pair (0, 3) outside [0, 2]^2")):
            adjacency.weight(0, 3)
        g = triangle()
        with pytest.raises(ValueError, match="mode 'edgelist' does not match the oracle model 'adjacency'"):
            quantum_verify(g, spanning_tree(g, (0, 1)), adjacency, "edgelist")
        assert edge_list.classical_queries == adjacency.classical_queries == 0
