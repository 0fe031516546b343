"""CLI exit codes, report schema, and determinism."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mstverify
from mstverify import cli, verify
from mstverify.cli import main
from mstverify.graph import Graph, spanning_tree
from mstverify.oracle import InstrumentedOracle, OracleModel
from mstverify.verify import quantum_verify, validate_search_settings

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

    @pytest.mark.parametrize("command", ["verify", "oracle"])
    def test_out_of_memory_exits_one(self, capsys, monkeypatch, triangle_files, command):
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(cli, "load_graph", exhausted)
        graph, good, _ = triangle_files
        argv = ["--tree", str(good)] if command == "verify" else []
        code, out, err = run(capsys, command, "--graph", str(graph), *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("error:") == 1 and "Traceback" not in err

    def test_bad_delta_exits_one(self, capsys, triangle_files):
        graph, good, _ = triangle_files
        code, _, _ = run(capsys, "verify", "--graph", str(graph), "--tree", str(good), "--delta", "0.9")
        assert code == 1

    @pytest.mark.parametrize("delta", ["5e-324", "1e-310"])
    def test_delta_with_overflowing_reciprocal_exits_one(self, capsys, triangle_files, delta):
        graph, good, _ = triangle_files
        argv = ("verify", "--graph", str(graph), "--tree", str(good), "--mode", "edgelist", "--delta", delta)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and "Traceback" not in err
        with pytest.raises(ValueError, match="1/delta overflows"):
            validate_search_settings(float(delta))

    @pytest.mark.parametrize("delta,capped", [(1e-308, 1614), (2.0**-1022, 1613), (0.01, 11), (0.49, 2)])
    def test_accepted_deltas_run_one_search_to_its_cutoff(self, monkeypatch, delta, capped):
        """One schedule per verify at both ends of the accepted range; over N = 4 edge indices the cutoff is j rounds of 1."""
        searches = []
        search = verify.bbht_search
        monkeypatch.setattr(verify, "bbht_search", lambda *a: searches.append(a[2]) or search(*a))
        g = Graph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        verdict, report = quantum_verify(g, spanning_tree(g, (0, 1)), InstrumentedOracle(g, OracleModel.EDGE_LIST), delta=delta)
        assert verdict.minimal and searches == [capped] and report.grover_iterations == capped

    @pytest.mark.parametrize("mode", ["classical", "edgelist", "adjacency"])
    @pytest.mark.parametrize("seed", [-1, -(2**63), 2**64])
    def test_seed_outside_u64_exits_one_in_every_mode(self, capsys, triangle_files, mode, seed):
        graph, good, _ = triangle_files
        argv = ("verify", "--graph", str(graph), "--tree", str(good), "--mode", mode, "--seed", str(seed))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: --seed must be in [0, 2^64), got {seed}\n"

    @pytest.mark.parametrize("mode", ["classical", "edgelist", "adjacency"])
    def test_largest_u64_seed_is_accepted_and_echoed(self, capsys, triangle_files, mode):
        graph, _, bad = triangle_files
        seed = 2**64 - 1
        code, out, _ = run(capsys, "verify", "--graph", str(graph), "--tree", str(bad), "--mode", mode, "--seed", str(seed))
        assert code == 3
        assert json.loads(out)["seed"] == seed

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

    @pytest.mark.parametrize("mode", ["classical", "edgelist", "adjacency"])
    def test_not_minimal_text_carries_the_json_report(self, capsys, triangle_files, mode):
        graph, _, bad = triangle_files
        argv = ["verify", "--graph", str(graph), "--tree", str(bad), "--mode", mode, "--seed", "3"]
        code, out, _ = run(capsys, *argv)
        text_code, text, _ = run(capsys, *argv, "--output", "text")
        assert code == text_code == 3
        doc = json.loads(out)
        w, q = doc["witness"], doc["queries"]
        assert (w["in_edge"], w["out_edge"], doc["improved_tree_indices"]) == (1, 2, [0, 1])
        assert text.splitlines() == [
            "status: not_minimal",
            f"n: 3  m: 3  mode: {mode}  analytic: {mode != 'classical'}",
            f"queries: classical={q['classical']} quantum={q['quantum']} grover_iterations={q['grover_iterations']}",
            f"witness: swap in edge 1, out edge 2 (delta {w['delta']})",
            "improved tree: [0, 1]",
        ]

    def test_cached_parser_answers_as_a_fresh_one(self, capsys, triangle_files):
        graph, good, bad = triangle_files
        files = ["--graph", str(graph), "--tree", str(bad)]
        calls = [
            ["verify", *files, "--seed", "5"],
            ["verify", *files, "--mode", "adjacency", "--seed", "9"],
            ["verify", *files, "--output", "text"],
            ["verify", *files, "--mode", "warp"],
            ["verify", "--graph", str(graph), "--tree", str(good)],
        ]
        cli._build_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in calls]  # one parser, built by the first call
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [3, 3, 3, 1, 0]


README = Path(__file__).parent.parent / "README.md"


def readme_section(title: str) -> str:
    """README's `## title` section, up to the next `## ` heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


class TestReadmeExamples:
    """README's CLI and Library blocks run as printed, in process, in an empty directory."""

    def test_cli_lines_exit_zero_or_three(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lines = [line for line in readme_section("CLI").splitlines() if line.startswith("mstverify ")]
        assert len(lines) == 5
        for line in lines:
            code = main(shlex.split(line)[1:])
            assert code in (0, 3), (line, capsys.readouterr().err)

    def test_library_block_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        blocks = re.findall(r"^```python\n(.*?)^```$", readme_section("Library"), re.S | re.M)
        assert len(blocks) == 1 and blocks[0].strip()  # the section's only example, so none goes unrun
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_library"})


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_exits_one_before_writing(self, capsys, tmp_path, seed):
        prefix = tmp_path / "x"
        code, out, err = run(capsys, "gen", "--n", "5", "--m", "6", "--seed", str(seed), "--out-prefix", str(prefix))
        assert code == 1 and out == ""
        assert err == f"error: --seed must be in [0, 2^64), got {seed}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--n", "5", "--m", "6", "--weights", "abc"], "error: --weights expects LO:HI, got 'abc'\n"),
            (["--n", "2000", "--m", "1000001"], "error: need m <= 1000000, got m=1000001\n"),
        ],
    )
    def test_error_exits_one_before_writing(self, capsys, tmp_path, args, error):
        code, out, err = run(capsys, "gen", *args, "--out-prefix", str(tmp_path / "x"))
        assert (code, out, err) == (1, "", error)
        assert list(tmp_path.iterdir()) == []

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


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random takes some 15 ms to import, which every run of the CLI would pay;
    # numpy 2.4 loads it lazily, and a numpy that imports it with itself is not the package's doing
    src = str(Path(mstverify.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = (
        "import sys, numpy\n"
        "by_numpy = 'numpy.random' in sys.modules\n"
        "import mstverify.cli\n"
        "print(by_numpy, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    by_numpy, by_cli = proc.stdout.split()
    assert by_cli == by_numpy


class TestOracleCommand:
    def test_triangle_mst(self, capsys, triangle_files):
        graph, _, _ = triangle_files
        code, out, _ = run(capsys, "oracle", "--graph", str(graph))
        assert code == 0
        doc = json.loads(out)
        assert doc["mst_weight"] == 3.0
        assert doc["mst_indices"] == [0, 1]

    def test_text_output(self, capsys, triangle_files):
        graph, _, _ = triangle_files
        code, out, _ = run(capsys, "oracle", "--graph", str(graph), "--output", "text")
        assert (code, out) == (0, "mst weight: 3.0\nmst indices: [0, 1]\n")

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
