"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from mstverify import Graph, InstrumentedOracle, OracleModel
from mstverify.graph import spanning_tree

TRIANGLE_TEXT = "3 3\n0 1 1.0\n1 2 2.0\n0 2 3.0\n"


def triangle() -> Graph:
    """Edges: 0=(0,1,1.0), 1=(1,2,2.0), 2=(0,2,3.0)."""
    return Graph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])


def path_graph(weights) -> Graph:
    """Path 0-1-...-k with the given edge weights."""
    return Graph(len(weights) + 1, [(i, i + 1, w) for i, w in enumerate(weights)])


def star_graph(weights) -> Graph:
    """Star centered at 0; spoke i+1 has weight weights[i]."""
    return Graph(len(weights) + 1, [(0, i + 1, w) for i, w in enumerate(weights)])


def edge_oracle(g: Graph) -> InstrumentedOracle:
    return InstrumentedOracle(g, OracleModel.EDGE_LIST)


def adj_oracle(g: Graph) -> InstrumentedOracle:
    return InstrumentedOracle(g, OracleModel.ADJACENCY)


def whole_tree(g: Graph):
    """The spanning tree of a graph that is itself a tree."""
    return spanning_tree(g, range(g.m))


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
