"""CLI reports on a fixed corpus stay byte-identical.

The fixture holds the graph and tree texts themselves plus, for every
run, the argument list, the exit code and the exact stdout. Running this
module as a script regenerates the corpus and re-records the expected
reports; do that only when a report change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from mstverify.cli import main

FIXTURE = Path(__file__).parent / "data" / "reports_golden.json"


def _load():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _argv(files, run):
    graph, tree = files[run["instance"]]
    return ["verify", "--graph", str(graph), "--tree", str(tree), *run["args"]]


def _write_instances(instances, directory: Path):
    files = []
    for i, inst in enumerate(instances):
        graph, tree = directory / f"{i}.graph", directory / f"{i}.tree"
        graph.write_text(inst["graph"], encoding="utf-8")
        tree.write_text(inst["tree"], encoding="utf-8")
        files.append((graph, tree))
    return files


def test_reports_byte_identical(tmp_path, capsys):
    golden = _load()
    files = _write_instances(golden["instances"], tmp_path)
    statuses = set()
    for run in golden["runs"]:
        code = main(_argv(files, run))
        out = capsys.readouterr().out
        assert (code, out) == (run["exit"], run["stdout"]), run
        statuses.add(code)
    assert statuses == {0, 3}


def _record():
    import tempfile

    import numpy as np

    from mstverify import random_connected_graph, serialize_graph, serialize_tree, tree_of_kind

    rng = np.random.default_rng(20261017)
    instances = []
    for i in range(24):
        kind = ("mst", "perturbed", "random")[i % 3]
        n = int(rng.integers(2, 31))
        alphabet = [k / 4 for k in range(1, 9)] if i % 4 == 0 else None
        g = random_connected_graph(n, None, rng, weight_alphabet=alphabet)
        t = tree_of_kind(g, kind, rng)
        instances.append({"kind": kind, "graph": serialize_graph(g), "tree": serialize_tree(g, t)})
    runs = [
        {"instance": i, "args": ["--mode", mode, "--seed", str(seed)]}
        for i in range(len(instances))
        for mode in ("classical", "edgelist", "adjacency")
        for seed in (0, 5)
    ]
    analytic = next(i for i, inst in enumerate(instances) if inst["kind"] == "perturbed" and inst["graph"].count("\n") > 20)
    runs.append({"instance": analytic, "args": ["--mode", "edgelist", "--seed", "3", "--statevector-cap", "2"]})
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_instances(instances, Path(tmp))
        for run in runs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                run["exit"] = main(_argv(files, run))
            run["stdout"] = buf.getvalue()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"instances": instances, "runs": runs}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()
