"""The package's public surface: what the CLI, README and benchmark call, and nothing only tests use."""

from __future__ import annotations

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import mstverify
from mstverify import boruvka, graph, grover, oracle, verify

PUBLIC = [
    "BoruvkaTree",
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
        (graph.Graph, "pair_min_ids"),
        (graph, "Edge"),
        (graph.Graph, "edge"),
        (graph.Graph, "edges"),
        (graph, "non_tree_mask"),
        (boruvka.BoruvkaTree, "nodes"),
        (boruvka.BoruvkaTree, "dump"),
        (verify, "is_violating"),
        (oracle.InstrumentedOracle, "lookup_weight"),
        (oracle.InstrumentedOracle, "reset"),
        (boruvka.BoruvkaTree, "path_max"),
        (boruvka.BoruvkaTree, "path_max_batch"),
        (boruvka, "SameVertexError"),
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


def test_search_space_takes_a_size_and_a_marker_of_its_indices():
    assert list(inspect.signature(grover.SearchSpace).parameters) == ["logical_size", "marker"]


def test_bbht_search_takes_the_verify_generator():
    assert list(inspect.signature(grover.bbht_search).parameters) == ["space", "rng", "cutoff"]


class _WeightSorts(ast.NodeVisitor):
    """The enclosing function of every argsort, lexsort, and sorted() or .sort() given a key, in one module."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keyed = name in ("sorted", "sort") and any(k.arg == "key" for k in node.keywords)
        if name in ("argsort", "lexsort") or keyed:
            self.found.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def test_weights_are_sorted_only_in_weight_order():
    """Every (w, id) order is read from Graph.order, which graph._weight_order alone computes."""
    found = set()
    for path in sorted(Path(mstverify.__file__).parent.glob("*.py")):
        visitor = _WeightSorts()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update((path.name, scope) for scope in visitor.found)
    assert found == {("graph.py", "_weight_order")}


def test_only_verify_charges_the_oracle():
    """Only verify.py charges: the build, the predicate and the search read stored data and take no oracle.

    A charging method read anywhere else is stray, inside oracle.py too.
    """
    stray, charges = [], set()
    for path in sorted(Path(mstverify.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "oracle":
                if path.name not in ("verify.py", "cli.py", "__init__.py"):
                    stray.append(f"{path.name}:{node.lineno} imports .oracle")
            if isinstance(node, ast.Attribute) and node.attr in ("edge", "weight", "lookup_weight", "count_quantum_applications"):
                if path.name == "verify.py":
                    charges.add(node.attr)
                else:
                    stray.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert stray == []
    # verify.py charges by each model's own query and by the search's count
    assert charges == {"edge", "weight", "count_quantum_applications"}


# The benchmark tracer's targets that the package no longer has. A target it
# cannot find is skipped with one stderr line and its metrics read 0, so a
# stage renamed or deleted here would otherwise only show as a zeroed metric.
TRACER_MISSES = {
    "trace: mstverify.verify  direct_path_max not found, skipped",
    "trace: mstverify.boruvka BoruvkaTree path_max not found, skipped",
    "trace: mstverify.oracle InstrumentedOracle edge_weight not found, skipped",
    "trace: mstverify.grover StateVector grover_iteration not found, skipped",
    "trace: mstverify.grover StateVector sample not found, skipped",
}


def test_the_benchmark_tracer_finds_every_stage_it_found_before(capsys):
    """perfbench/spans.py wraps the package's stages by name; no name it finds may go missing."""
    import mstverify.cli  # noqa: F401  loads every module the tracer patches, as a traced run does

    spec = importlib.util.spec_from_file_location("perfbench_spans", Path(__file__).parent.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.install(spans.Tracer()):
        pass
    assert set(capsys.readouterr().err.splitlines()) <= TRACER_MISSES
