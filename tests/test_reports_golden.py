"""CLI reports on a fixed corpus stay byte-identical.

The fixture holds the graph and tree texts themselves plus, for every
run, the argument list, the exit code and the exact stdout. Running this
module as a script regenerates the corpus and re-records the expected
reports; do that only when a report change is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from mstverify import kruskal_mst, load_graph, load_tree
from mstverify.cli import main
from mstverify.grover import SearchSpace, bbht_cutoff
from mstverify.verify import DEFAULT_DELTA, Witness, improve

FIXTURE = Path(__file__).parent / "data" / "reports_golden.json"
# sha256 of the classical runs (instance texts, args, exit code, stdout), which
# no change to the quantum search may move; see test_reports_hold_ground_truth
CLASSICAL_RUNS_SHA256 = "ab113ce94a1bf41e3b05c7c4ab89fadef4924bb5fc53e565b8e3c2bf5c7405c6"


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


def _flag(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def test_reports_hold_ground_truth():
    """What every recorded report must satisfy, whatever seeds a re-record draws.

    Classical reports are pinned by digest. Each quantum report matches
    Kruskal's verdict, its witness certifies, the build costs n-1 classical
    queries and the iterations stay within the restarts' cutoffs.
    """
    golden = _load()
    instances = golden["instances"]
    classical = []
    for run in golden["runs"]:
        mode = _flag(run["args"], "--mode", "classical")
        if mode == "classical":
            classical.append([instances[run["instance"]], run["args"], run["exit"], run["stdout"]])
            continue
        doc = json.loads(run["stdout"])
        g = load_graph(instances[run["instance"]]["graph"])
        t = load_tree(instances[run["instance"]]["tree"], g)
        weight = lambda tree: math.fsum(g.w[list(tree.edge_ids)])  # exact, so equal sums compare equal
        minimal = weight(t) == weight(kruskal_mst(g))
        assert (doc["status"], run["exit"]) == (("minimal", 0) if minimal else ("not_minimal", 3)), run
        if not minimal:
            witness = Witness(doc["witness"]["in_edge"], doc["witness"]["out_edge"])
            assert list(improve(g, t, witness).edge_ids) == doc["improved_tree_indices"], run
        assert doc["queries"]["classical"] == g.n - 1, run
        logical = g.m if mode == "edgelist" else g.n * (g.n - 1) // 2
        restarts = math.ceil(math.log2(1 / float(_flag(run["args"], "--delta", DEFAULT_DELTA))))
        domain = SearchSpace(logical, lambda i: False).domain_size
        assert doc["queries"]["grover_iterations"] <= restarts * bbht_cutoff(domain), run
    digest = hashlib.sha256(json.dumps(classical, sort_keys=True).encode()).hexdigest()
    assert (len(classical), digest) == (48, CLASSICAL_RUNS_SHA256)


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
