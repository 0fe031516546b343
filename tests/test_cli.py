"""CLI exit codes, report schema, and determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mstverify
from mstverify.cli import main

from .conftest import TRIANGLE_TEXT

MST_TREE = "indices\n0\n1\n"
BAD_TREE = "indices\n0\n2\n"


@pytest.fixture
def triangle_files(tmp_path):
    graph = tmp_path / "t.graph"
    graph.write_text(TRIANGLE_TEXT)
    good = tmp_path / "good.tree"
    good.write_text(MST_TREE)
    bad = tmp_path / "bad.tree"
    bad.write_text(BAD_TREE)
    return graph, good, bad


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerifyCommand:
    def test_minimal_exits_zero(self, capsys, triangle_files):
        graph, good, _ = triangle_files
        code, out, _ = run(capsys, "verify", "--graph", str(graph), "--tree", str(good), "--mode", "classical")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "minimal"
        assert doc["witness"] is None
        assert doc["queries"]["classical"] == 3
        assert (doc["n"], doc["m"]) == (3, 3)

    def test_not_minimal_exits_three_with_witness(self, capsys, triangle_files):
        graph, _, bad = triangle_files
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph), "--tree", str(bad),
            "--mode", "edgelist", "--seed", "7",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["status"] == "not_minimal"
        assert doc["witness"]["in_edge"] == 1
        assert doc["witness"]["out_edge"] == 2
        assert doc["improved_tree_indices"] == [0, 1]
        assert doc["mode"] == "edgelist"
        assert doc["seed"] == 7

    def test_missing_file_exits_one(self, capsys, triangle_files):
        graph, _, _ = triangle_files
        code, _, err = run(capsys, "verify", "--graph", str(graph), "--tree", "nope.tree")
        assert code == 1
        assert "error:" in err

    def test_malformed_graph_exits_one(self, capsys, tmp_path):
        graph = tmp_path / "bad.graph"
        graph.write_text("2 1\n0 0 1.0\n")
        tree = tmp_path / "t.tree"
        tree.write_text("indices\n0\n")
        code, _, err = run(capsys, "verify", "--graph", str(graph), "--tree", str(tree))
        assert code == 1

    def test_bad_delta_exits_one(self, capsys, triangle_files):
        graph, good, _ = triangle_files
        code, _, _ = run(capsys, "verify", "--graph", str(graph), "--tree", str(good), "--delta", "0.9")
        assert code == 1

    def test_removed_statevector_cap_is_a_usage_error(self, capsys, triangle_files):
        graph, good, _ = triangle_files
        code, out, err = run(
            capsys, "verify", "--graph", str(graph), "--tree", str(good),
            "--mode", "edgelist", "--statevector-cap", "4",
        )
        assert code == 1 and out == ""
        assert "unrecognized arguments: --statevector-cap" in err and "Traceback" not in err

    def test_analytic_reports_byte_identical_per_seed(self, capsys, tmp_path):
        prefix = str(tmp_path / "a")
        run(capsys, "gen", "--n", "64", "--m", "200", "--seed", "4", "--tree-kind", "perturbed", "--out-prefix", prefix)
        argv = ("verify", "--graph", prefix + ".graph", "--tree", prefix + ".tree", "--mode", "adjacency", "--seed", "6")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert json.loads(first)["analytic_mode"] is True  # every quantum round samples the closed form
        assert first == second

    def test_usage_error_exits_one(self, capsys, triangle_files):
        graph, good, _ = triangle_files
        code, _, _ = run(capsys, "verify", "--graph", str(graph), "--tree", str(good), "--mode", "warp")
        assert code == 1

    def test_json_reports_byte_identical_per_seed(self, capsys, triangle_files):
        graph, _, bad = triangle_files
        argv = ("verify", "--graph", str(graph), "--tree", str(bad), "--mode", "adjacency", "--seed", "11")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_heavier_parallel_tree_edge_found_in_every_mode(self, capsys, tmp_path):
        # tree edge 0 (weight 5.0) has a lighter parallel edge 1 (weight 1.0)
        graph = tmp_path / "p.graph"
        graph.write_text("3 3\n0 1 5.0\n0 1 1.0\n1 2 2.0\n")
        tree = tmp_path / "p.tree"
        tree.write_text("indices\n0\n2\n")
        for mode in ("classical", "edgelist", "adjacency"):
            for seed in range(5):
                code, out, _ = run(
                    capsys, "verify", "--graph", str(graph), "--tree", str(tree), "--mode", mode, "--seed", str(seed)
                )
                doc = json.loads(out)
                assert code == 3, (mode, seed)
                assert (doc["witness"]["in_edge"], doc["witness"]["out_edge"]) == (1, 0)
                assert doc["improved_tree_indices"] == [1, 2]
                if mode != "classical":
                    assert doc["queries"]["classical"] == 2

    def test_text_output(self, capsys, triangle_files):
        graph, good, _ = triangle_files
        code, out, _ = run(capsys, "verify", "--graph", str(graph), "--tree", str(good), "--output", "text")
        assert code == 0
        assert "status: minimal" in out


class TestGenCommand:
    def test_gen_then_verify_mst(self, capsys, tmp_path):
        prefix = str(tmp_path / "inst")
        code, out, _ = run(capsys, "gen", "--n", "9", "--m", "16", "--seed", "1", "--out-prefix", prefix)
        assert code == 0
        doc = json.loads(out)
        code, out, _ = run(capsys, "verify", "--graph", doc["graph"], "--tree", doc["tree"])
        assert code == 0

    def test_gen_perturbed_then_verify_not_minimal(self, capsys, tmp_path):
        prefix = str(tmp_path / "inst")
        code, out, _ = run(
            capsys, "gen", "--n", "9", "--m", "16", "--seed", "2",
            "--tree-kind", "perturbed", "--out-prefix", prefix,
        )
        assert code == 0
        doc = json.loads(out)
        code, _, _ = run(capsys, "verify", "--graph", doc["graph"], "--tree", doc["tree"], "--mode", "edgelist")
        assert code == 3

    def test_gen_deterministic(self, capsys, tmp_path):
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        run(capsys, "gen", "--n", "7", "--m", "12", "--seed", "5", "--out-prefix", p1)
        run(capsys, "gen", "--n", "7", "--m", "12", "--seed", "5", "--out-prefix", p2)
        assert (tmp_path / "a.graph").read_text() == (tmp_path / "b.graph").read_text()
        assert (tmp_path / "a.tree").read_text() == (tmp_path / "b.tree").read_text()

    def test_infeasible_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--n", "5", "--m", "2", "--out-prefix", str(tmp_path / "x"))
        assert code == 1

    def test_bad_weight_range_exits_one(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "gen", "--n", "5", "--m", "6", "--weights", "5:1", "--out-prefix", str(tmp_path / "x")
        )
        assert code == 1

    @pytest.mark.parametrize("weights", ["0:inf", "0:nan", "nan:1", "inf:inf", "1:1e999"])
    def test_non_finite_weight_bound_exits_one(self, capsys, tmp_path, weights):
        prefix = tmp_path / "x"
        code, out, err = run(capsys, "gen", "--n", "5", "--m", "6", "--weights", weights, "--out-prefix", str(prefix))
        assert code == 1 and out == ""
        assert err.startswith("error: --weights needs finite") and err.count("\n") == 1
        assert not prefix.with_suffix(".graph").exists()

    def test_overflowing_tree_weight_exits_one_before_writing(self, capsys, tmp_path):
        prefix = tmp_path / "x"
        argv = ["gen", "--n", "5", "--m", "4", "--weights", "1e308:1.7e308", "--out-prefix", str(prefix)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: tree weight overflows to inf: lower --weights, got '1e308:1.7e308'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "n, m",
        [
            ("100000", "4999950000"),  # the complete graph: its free-pair mask alone would take 9.3 GiB
            ("100000000", "99999999"),  # a tree: its backbone loop would run for minutes
        ],
    )
    def test_oversized_instance_exits_one_before_allocating(self, tmp_path, n, m):
        # the child caps its own address space at 2 GiB, so an allocation that
        # slipped past the edge cap would fail loudly instead of swapping
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from mstverify.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(mstverify.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        prefix = tmp_path / "x"
        argv = ["gen", "--n", n, "--m", m, "--out-prefix", str(prefix)]
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not prefix.with_suffix(".graph").exists()


class TestOracleCommand:
    def test_triangle_mst(self, capsys, triangle_files):
        graph, _, _ = triangle_files
        code, out, _ = run(capsys, "oracle", "--graph", str(graph))
        assert code == 0
        doc = json.loads(out)
        assert doc["mst_weight"] == 3.0
        assert doc["mst_indices"] == [0, 1]

    def test_tree_graph_returns_its_edges(self, capsys, tmp_path):
        graph = tmp_path / "p.graph"
        graph.write_text("4 3\n0 1 5.0\n1 2 1.0\n2 3 7.0\n")
        code, out, _ = run(capsys, "oracle", "--graph", str(graph))
        assert json.loads(out)["mst_indices"] == [0, 1, 2]

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_overflowing_mst_weight_exits_one(self, capsys, tmp_path, output):
        graph = tmp_path / "big.graph"
        graph.write_text("5 4\n0 1 1e308\n1 2 1e308\n2 3 1.7e308\n3 4 1.7e308\n")
        code, out, err = run(capsys, "oracle", "--graph", str(graph), "--output", output)
        assert code == 1 and out == ""
        assert err == "error: MST weight overflows to inf: the edge weights are too large to sum\n"
        assert [p.name for p in tmp_path.iterdir()] == ["big.graph"]

    def test_verify_agreement_with_oracle(self, capsys, tmp_path):
        prefix = str(tmp_path / "z")
        _, out, _ = run(capsys, "gen", "--n", "10", "--m", "20", "--seed", "9",
                        "--tree-kind", "random", "--out-prefix", prefix)
        doc = json.loads(out)
        code, _, _ = run(capsys, "verify", "--graph", doc["graph"], "--tree", doc["tree"])
        _, oracle_out, _ = run(capsys, "oracle", "--graph", doc["graph"])
        mst_weight = json.loads(oracle_out)["mst_weight"]
        assert (code == 0) == (doc["tree_weight"] == mst_weight)
