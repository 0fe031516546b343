"""Minimum spanning tree verification with Boruvka path-max trees and Grover search.

The package exports what the CLI, README and benchmark call; every other
name is importable from its submodule (for example mstverify.graph.spanning_tree
or mstverify.grover.SearchSpace).
"""

from .boruvka import BoruvkaTree
from .generate import GenError, random_connected_graph, random_spanning_tree, tree_of_kind
from .graph import (
    Edge,
    Graph,
    GraphError,
    SpanningTree,
    load_graph,
    load_tree,
    serialize_graph,
    serialize_tree,
    tree_weight,
)
from .oracle import InstrumentedOracle, OracleModel
from .verify import classical_verify, kruskal_mst, quantum_verify

__all__ = [
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
