"""tools/ab.py at toy sizes: three copies of this tree in one process, checked, then timed in rotation."""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOY = {  # the benchmark smoke test's toy sizes
    "scan-large": {"n": 60, "m": 240},
    "quantum-search": {"adj_n": 12, "adj_m": 40, "el_n": 40, "el_m": 160},
    "tiny-batch": {"per_class": 4, "max_n": 8},
}


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [name for name in sys.modules if name.startswith("ab_test_")]:
        del sys.modules[name]


@pytest.fixture(scope="module")
def packages(ab):
    return {v: ab.load(ROOT, f"ab_test_{v}") for v in ab.VARIANTS}


def test_each_variant_is_its_own_copy_of_the_tree(packages):
    graphs = [p.graph for p in packages.values()]
    assert len({id(g) for g in graphs}) == len({id(g.Graph) for g in graphs}) == 3
    assert [p.cli.__name__ for p in packages.values()] == ["ab_test_base.cli", "ab_test_change.cli", "ab_test_aa.cli"]


@pytest.mark.parametrize("workload", TOY)
def test_compare_checks_every_output_and_gives_paired_intervals(ab, packages, capsys, workload):
    reps = 3
    result = ab.compare(packages, workload, 3, reps, **TOY[workload])
    assert result["failed"] == {"base": 0, "change": 0, "aa": 0}
    assert result["differing"] == 0 and result["instances"] > 0 and result["reps"] == reps
    assert list(result["metrics"]) == ["pass", "p50"]
    for row in result["metrics"].values():
        for median, low, high in (row["change"], row["aa"]):
            assert all(math.isfinite(x) and x > 0 for x in (median, low, high))
            assert low <= median <= high
        assert 0 <= row["lower"] <= reps
    ab.print_result(workload, 3, result)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# {workload} seed=3: {result['instances']} instances, {reps} reps"
    assert [line.split()[0] for line in lines[3:]] == ["pass", "p50"]


def test_a_tree_that_imports_the_package_by_name_is_refused(ab, tmp_path):
    package = tmp_path / "src" / "mstverify"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .graph import Graph\n", encoding="utf-8")
    source = "import numpy\nfrom mstverify.oracle import X\nimport mstverify.cli as cli\n"
    (package / "graph.py").write_text(source, encoding="utf-8")
    assert ab.absolute_imports(package) == ["graph.py:2", "graph.py:3"]
    with pytest.raises(SystemExit, match="imports mstverify by name"):
        ab.load(tmp_path, "ab_test_refused")
    assert "ab_test_refused" not in sys.modules
    assert ab.absolute_imports(ROOT / "src" / "mstverify") == []
