"""The package's public surface: what the CLI, README and benchmark call, and nothing only tests use."""

from __future__ import annotations

import inspect

import pytest

import mstverify
from mstverify import boruvka, graph, grover, verify

PUBLIC = [
    "BoruvkaTree",
    "Edge",
    "GenError",
    "Graph",
    "GraphError",
    "InstrumentedOracle",
    "OracleModel",
    "SpanningTree",
    "classical_verify",
    "kruskal_mst",
    "load_graph",
    "load_tree",
    "quantum_verify",
    "random_connected_graph",
    "random_spanning_tree",
    "serialize_graph",
    "serialize_tree",
    "tree_of_kind",
    "tree_weight",
]


def test_all_is_exactly_the_public_names():
    assert sorted(mstverify.__all__) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves(name):
    assert getattr(mstverify, name) is not None


@pytest.mark.parametrize(
    "owner, name",
    [
        (boruvka, "validate_structure"),
        (boruvka, "direct_path_max"),
        (boruvka, "BNode"),
        (grover, "optimal_iterations"),
        (grover, "KZeroError"),
        (graph.Graph, "pair_min"),
        (graph.Edge, "other"),
        (boruvka.BoruvkaTree, "nodes"),
        (boruvka.BoruvkaTree, "dump"),
        (verify, "is_violating"),
        (boruvka.BoruvkaTree, "path_max"),
        (boruvka, "PathMaxAnswer"),
        (boruvka, "tree_path_edges"),
        (boruvka, "_tour_parents"),
        (boruvka, "_search_parents"),
        (boruvka, "edge_order"),
    ],
)
def test_test_only_references_are_not_in_the_package(owner, name):
    assert not hasattr(owner, name)


def test_improve_takes_no_path():
    assert "path" not in inspect.signature(verify.improve).parameters
