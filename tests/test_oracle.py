"""Instrumented oracle behavior and counter exactness."""

from __future__ import annotations

import math
import re
import sys
import threading
import tracemalloc

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
    tree_weight,
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


class TestModelArgument:
    @pytest.mark.parametrize("model", list(OracleModel))
    def test_model_given_by_value(self, model):
        g = path_graph([2.0, 1.0, 3.0])
        o = InstrumentedOracle(g, model.value)
        assert o.model is model
        if model is OracleModel.ADJACENCY:
            assert o.weight(1, 2) == 1.0
        else:
            assert o.edge(1) == (1, 2, 1.0)
        assert o.classical_queries == 1
        verdict, report = quantum_verify(g, spanning_tree(g, range(g.m)), InstrumentedOracle(g, model.value))
        assert verdict.minimal and report.mode == model.value

    @pytest.mark.parametrize("model", ["bogus", "ADJACENCY", "edge_list", None, 0])
    def test_unknown_model_rejected(self, model):
        with pytest.raises(ValueError, match="is not a valid OracleModel"):
            InstrumentedOracle(triangle(), model)


class TestCounters:
    def test_quantum_application_counting(self):
        o = edge_oracle(triangle())
        o.count_quantum_applications(5)
        o.count_quantum_applications()
        assert o.quantum_queries == 6

    def test_non_integer_application_count_rejected_uncounted(self):
        o = edge_oracle(triangle())
        for k in (2.5, 2.0, np.float64(1.0)):
            with pytest.raises(TypeError):
                o.count_quantum_applications(k)
        o.count_quantum_applications(np.int64(2))
        o.count_quantum_applications(True)
        assert o.quantum_queries == 3
        assert type(o.quantum_queries) is int

    def test_negative_application_count_rejected_uncounted(self):
        o = edge_oracle(triangle())
        with pytest.raises(ValueError, match="application count must be >= 0"):
            o.count_quantum_applications(-1)
        assert o.quantum_queries == 0

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
                o.count_quantum_applications(1)
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

    @pytest.mark.parametrize(
        "model,charge",
        [
            (OracleModel.ADJACENCY, lambda o, i: o.weight(i % 3, (i + 1) % 3)),
            (OracleModel.EDGE_LIST, lambda o, i: o.edge(i % 3)),
        ],
        ids=["adjacency-weight", "edgelist-edge"],
    )
    def test_every_per_query_method_counts_exactly_under_concurrent_callers(self, model, charge):
        o = InstrumentedOracle(triangle(), model)
        per_thread = 2000

        def worker():
            for i in range(per_thread):
                charge(o, i)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert o.classical_queries == 8 * per_thread
        assert not o._lock.locked()

    @pytest.mark.parametrize(
        "model,charge",
        [
            (OracleModel.EDGE_LIST, lambda o: o.edge(0)),
            (OracleModel.ADJACENCY, lambda o: o.weight(0, 1)),
        ],
        ids=["edgelist-edge", "adjacency-weight"],
    )
    def test_a_charge_waits_for_the_counter_lock(self, model, charge):
        # the interpreter rarely switches threads inside `+=`, so an exact count alone would not show a missing lock
        o = InstrumentedOracle(triangle(), model)
        th = threading.Thread(target=charge, args=(o,))
        with o._lock:
            th.start()
            th.join(timeout=0.2)
            assert th.is_alive()
            assert o.classical_queries == 0
        th.join(timeout=60)
        assert not th.is_alive()
        assert o.classical_queries == 1


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

    @pytest.mark.parametrize("model", [OracleModel.EDGE_LIST, OracleModel.ADJACENCY])
    def test_a_rejected_call_is_uncharged_and_leaves_the_lock_free(self, model):
        o = InstrumentedOracle(triangle(), model)
        if model is OracleModel.ADJACENCY:
            rejected = [
                (IndexError, o.weight, (0, 3)),
                (IndexError, o.weight, (-1, 0)),
                (TypeError, o.weight, (0.5, 1)),
                (TypeError, o.weight, (0.0, 1.0)),
                (TypeError, o.weight, (np.float64(1.0), 0)),
                (TypeError, o.weight, (0, "1")),
                (ValueError, o.edge, (0,)),
                (ValueError, o.edge, (1.0,)),
            ]
        else:
            rejected = [
                (IndexError, o.edge, (3,)),
                (IndexError, o.edge, (-1,)),
                (TypeError, o.edge, (1.0,)),
                (TypeError, o.edge, (np.float64(1.0),)),
                (ValueError, o.weight, (0, 1)),
                (ValueError, o.weight, (0.5, 1)),
            ]
        for exc, method, args in rejected:
            with pytest.raises(exc):
                method(*args)
            assert o.classical_queries == 0, (method.__name__, args)
            assert not o._lock.locked(), (method.__name__, args)

    def test_numpy_integers_and_bools_are_accepted_as_indices(self):
        edge_list, adjacency = edge_oracle(triangle()), adj_oracle(triangle())
        assert edge_list.edge(np.int64(2)) == edge_list.edge(2) == (0, 2, 3.0)
        assert edge_list.edge(True) == edge_list.edge(1) == (1, 2, 2.0)
        assert edge_list.edge(np.int32(1)) == (1, 2, 2.0)
        assert adjacency.weight(np.int64(0), True) == adjacency.weight(0, 1) == 1.0
        assert adjacency.weight(np.uint8(2), np.int16(0)) == 3.0
        assert adjacency.weight(np.int64(0), np.int32(2)) == 3.0
        assert edge_list.classical_queries == 5
        assert adjacency.classical_queries == 4

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


class TestAnswersAreExactPythonNumbers:
    def test_every_model_answers_int_and_float(self, rng):
        for g in (triangle(), random_connected_graph(60, 150, rng)):
            edge_list, adjacency = edge_oracle(g), adj_oracle(g)
            for i in range(g.m):
                u, v, w = edge_list.edge(i)
                assert (type(u), type(v), type(w)) == (int, int, float)
                assert type(adjacency.weight(u, v)) is type(adjacency.weight(v, v)) is float
            mst = kruskal_mst(g)
            assert type(tree_weight(g, mst)) is float
            t = perturbed_mst(g, rng)
            verdicts = [classical_verify(g, t, edge_list)[0], classical_verify(g, t, adjacency)[0]]
            verdicts += [quantum_verify(g, t, o, o.model.value)[0] for o in (edge_oracle(g), adj_oracle(g))]
            for verdict in verdicts:
                assert not verdict.minimal and type(verdict.weight_delta) is float

    def test_an_edge_list_oracle_copies_no_edge(self):
        g = random_connected_graph(5000, 20000, np.random.default_rng(7))
        tracemalloc.start()
        try:
            edge_oracle(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
