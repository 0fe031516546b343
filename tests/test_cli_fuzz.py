"""The CLI's exit-code contract holds for any input bytes: 0, 1 or 3, an error line on 1, no traceback."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mstverify.cli import main

GRAPH = "4 5\n0 1 0.5\n1 2 0.25\n2 3 0.75\n0 3 0.125\n1 3 0.5\n"
TREES = ("indices\n0\n1\n2\n", "pairs\n0 1\n0 3\n1 2\n")
TOKENS = ["0", "1", "3", "-1", "4", "99999999999999999999999", "1e400", "nan", "inf", "-0.0", "x", "1_0", "", "\x00"]


def run(capsys, graph: bytes, tree: bytes, mode: str):
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, tree_path = Path(tmp, "g"), Path(tmp, "t")
        graph_path.write_bytes(graph)
        tree_path.write_bytes(tree)
        code = main(["verify", "--graph", str(graph_path), "--tree", str(tree_path), "--mode", mode])
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_contract(code, out, err):
    assert code in (0, 1, 3)
    assert "Traceback" not in out + err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
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
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs, st.sampled_from(["classical", "edgelist", "adjacency"]))
def test_any_input_keeps_the_exit_contract(capsys, files, mode):
    assert_contract(*run(capsys, *files, mode))
