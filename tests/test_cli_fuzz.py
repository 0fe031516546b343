"""The CLI's exit-code contract holds for any input bytes and argv: 0, 1 or 3, an error line on 1, no traceback."""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mstverify
from mstverify import kruskal_mst, random_connected_graph, serialize_graph, serialize_tree
from mstverify.cli import main
from mstverify.graph import SMALL_GRAPH_EDGES

GRAPH = "4 5\n0 1 0.5\n1 2 0.25\n2 3 0.75\n0 3 0.125\n1 3 0.5\n"
TREES = ("indices\n0\n1\n2\n", "pairs\n0 1\n0 3\n1 2\n")
# a canonical graph above SMALL_GRAPH_EDGES, whose unmutated lines the loader reads with numpy
_big = random_connected_graph(40, 90, np.random.default_rng(5))
BIG_GRAPH = serialize_graph(_big)
BIG_TREES = tuple(serialize_tree(_big, kruskal_mst(_big), fmt) for fmt in ("indices", "pairs"))
assert _big.m > SMALL_GRAPH_EDGES and _big.n - 1 > SMALL_GRAPH_EDGES
TOKENS = ["0", "1", "3", "-1", "4", "99999999999999999999999", "1e400", "nan", "inf", "-0.0", "x", "1_0", "", "\x00"]


def run(capsys, graph: bytes, tree: bytes, mode: str):
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, tree_path = Path(tmp, "g"), Path(tmp, "t")
        graph_path.write_bytes(graph)
        tree_path.write_bytes(tree)
        code = main(["verify", "--graph", str(graph_path), "--tree", str(tree_path), "--mode", mode])
    out = capsys.readouterr()
    return code, out.out, out.err


# an error line: main's "error: ..." or argparse's "mstverify <command>: error: ..."
ERROR_LINE = re.compile(r"(mstverify( \w+)?: )?error: ")


def assert_contract(code, out, err):
    assert code in (0, 1, 3)
    assert "Traceback" not in out + err
    errors = [line for line in err.splitlines() if ERROR_LINE.match(line)]
    assert len(errors) == (1 if code == 1 else 0), err


def test_endpoint_beyond_int64_is_out_of_range(capsys):
    graph = b"3 3\n0 1 1.0\n1 99999999999999999999999 2.0\n0 2 3.0\n"
    code, out, err = run(capsys, graph, b"indices\n0\n2\n", "classical")
    assert code == 1
    assert err == "error: edge 1: endpoint out of range [0, 2]\n"
    assert out == ""


@st.composite
def mutated(draw, text: str) -> bytes:
    """text with a few token replacements, line drops or duplications, and byte insertions."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "drop", "dup", "bytes"]))
        if kind == "token":
            fields = lines[i].split() or [""]
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(fields)
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        else:
            lines[i] += draw(st.text(max_size=4))
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


inputs = st.one_of(
    st.tuples(st.binary(max_size=64), st.binary(max_size=32)),
    st.tuples(mutated(GRAPH), st.sampled_from(TREES).map(str.encode)),
    st.tuples(st.just(GRAPH.encode()), st.sampled_from(TREES).flatmap(mutated)),
    st.tuples(mutated(BIG_GRAPH), st.sampled_from(BIG_TREES).map(str.encode)),
    st.tuples(st.just(BIG_GRAPH.encode()), st.sampled_from(BIG_TREES).flatmap(mutated)),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs, st.sampled_from(["classical", "edgelist", "adjacency"]))
def test_any_input_keeps_the_exit_contract(capsys, files, mode):
    assert_contract(*run(capsys, *files, mode))


# Runs each argv through main() in one child process that caps its own address
# space at 2 GiB, so an allocation a header or flag slips past the checks fails
# loudly instead of swapping. It answers each JSON argv line with the exit code,
# stdout and stderr (a traceback if main raised) and the seconds taken.
CHILD = """
import contextlib, io, json, resource, sys, time, traceback
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from mstverify.cli import main
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(json.loads(line))
        except Exception:
            code = None
            traceback.print_exc()
    seconds = time.perf_counter() - start
    print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(), "seconds": seconds}), flush=True)
"""
SECONDS = 30  # per argv: generous for the small valid instances drawn here


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    """The child process, working in a directory with a small and a large instance, a junk file and a subdirectory."""
    cwd = tmp_path_factory.mktemp("argv")
    (cwd / "small.graph").write_text(GRAPH)
    (cwd / "big.graph").write_text(BIG_GRAPH)
    (cwd / "small.tree").write_text(TREES[0])
    (cwd / "big.tree").write_text(BIG_TREES[0])
    (cwd / "junk.graph").write_bytes(b"\xff\x00 1 2\n")
    (cwd / "dir").mkdir()
    src = str(Path(mstverify.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-c", CHILD], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=cwd, env=env
    ) as proc:
        yield proc
        proc.stdin.close()
        try:
            proc.wait(timeout=SECONDS)
        finally:
            proc.kill()


def run_argv(child, argv: list[str]):
    child.stdin.write(json.dumps(argv) + "\n")
    child.stdin.flush()
    ready, _, _ = select.select([child.stdout], [], [], SECONDS)
    assert ready, f"no answer within {SECONDS} s to {argv}"
    doc = json.loads(child.stdout.readline())
    assert doc["seconds"] < SECONDS, argv
    return doc["code"], doc["out"], doc["err"]


INTEGERS = st.one_of(st.integers(-3, 60), st.sampled_from([-(2**63), 2**31, 10**6 + 1, 2**63, 10**30])).map(str)
NUMBERS = st.sampled_from(["0", "1", "-1", "0.5", "1e308", "1e-320", "nan", "inf", "-inf", "", "x", "1_0", "0x1"])
WEIGHTS = st.one_of(st.sampled_from(["0:1", "0.25:8"]), st.builds("{}:{}".format, NUMBERS, NUMBERS), NUMBERS, st.text(max_size=6))
PATHS = st.sampled_from(["small.graph", "big.graph", "junk.graph", "dir", "missing", "dir/x", "small.graph/x", ""])


@st.composite
def argv_of(draw, command: str, options: dict) -> list[str]:
    """command with each option present (required ones nearly always) and drawn from its strategy."""
    argv = [command]
    for flag, (values, required) in options.items():
        if draw(st.floats(0, 1)) < (0.95 if required else 0.5):
            argv += [flag, draw(values)]
    return argv


GEN = {
    "--n": (INTEGERS, True),
    "--m": (INTEGERS, True),
    "--weights": (WEIGHTS, False),
    "--tree-kind": (st.sampled_from(["mst", "perturbed", "random", "all"]), False),
    "--seed": (INTEGERS, False),
    "--out-prefix": (st.sampled_from(["out", "dir/out", "missing/out", "dir", "small.graph/out", ""]), True),
}
ORACLE = {"--graph": (PATHS, True), "--output": (st.sampled_from(["json", "text", "xml"]), False)}
# NaN, infinities, the bounds of (0, 0.5) and negatives; then deltas about where 1/delta overflows
# (below about 5.6e-309): subnormals on both sides of it and the smallest normal
DELTAS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "0.5", "0.49", "0.01", "-0.01", "-5e-324", "1e-308"]),
    st.sampled_from(["5e-324", "1e-310", "4e-320", "5.5e-309", "1e-309", "2.2e-308", "2.2250738585072014e-308"]),
    st.floats(-1.0, 1.0).map(repr),
)
VERIFY = {
    "--mode": (st.sampled_from(["classical", "edgelist", "adjacency", "quantum", ""]), True),
    "--seed": (INTEGERS, False),
    "--delta": (DELTAS, True),
}
# the small and the large instance, and a tree of the wrong graph
INSTANCES = st.sampled_from(
    [("small.graph", "small.tree"), ("big.graph", "big.tree"), ("big.graph", "small.tree")]
).map(lambda pair: ["--graph", pair[0], "--tree", pair[1]])


@settings(max_examples=150, deadline=None)
@given(st.one_of(argv_of("gen", GEN), argv_of("oracle", ORACLE)))
def test_any_gen_or_oracle_argv_keeps_the_exit_contract(child, argv):
    assert_contract(*run_argv(child, argv))


@settings(max_examples=150, deadline=None)
@given(st.tuples(argv_of("verify", VERIFY), INSTANCES).map(lambda parts: parts[0] + parts[1]))
def test_any_verify_flags_keep_the_exit_contract(child, argv):
    assert_contract(*run_argv(child, argv))
