"""Smoke test of the benchmark harness at toy sizes: python3 -m pytest -q perfbench"""

import json
import time

import pytest

import gen
import run
import worker

TOY = {
    "scan-large": {"n": 60, "m": 240},
    "quantum-search": {"adj_n": 12, "adj_m": 40, "el_n": 40, "el_m": 160},
    "tiny-batch": {"per_class": 4, "max_n": 8},
}


def _manifest(tmp_path, workload, seed=3):
    return json.loads(gen.build(workload, seed, tmp_path, **TOY[workload]).read_text())


@pytest.mark.parametrize("workload", TOY)
def test_generator_is_seeded_and_truthful(tmp_path, workload):
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        specs = _manifest(tmp_path / sub, workload)["instances"]
        runs.append([(s, worker.LibraryCase(s).texts() if "graph_text" in s else worker.CliCase(s).texts()) for s in specs])
    strip = lambda run: [({k: v for k, v in s.items() if k not in ("graph", "tree")}, texts) for s, texts in run]
    assert strip(runs[0]) == strip(runs[1])
    for spec, _ in runs[0]:
        assert spec["minimal"] == (spec["tree_k"] == spec["mst_k"])
        if spec["kind"] == "mst":
            assert spec["minimal"]
        if spec["kind"] == "perturbed" and spec["m"] > spec["n"] - 1 and not spec["minimal"]:
            assert spec["tree_k"] > spec["mst_k"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", TOY)
def test_worker_checks_pass_and_trace_reconciles(tmp_path, workload, trace):
    spans_path = tmp_path / "spans.json"
    result = worker.run(_manifest(tmp_path, workload), 0.2, trace, spans_path if trace else None)
    assert result["failed"] == 0, result["failures"]
    assert result["trace_errors"] == []
    assert result["attempted"] >= 2 * result["instances"]
    if trace:
        layers = result["trace"]["layers"]
        assert layers["graph.load_calls"] == 2 * result["instances"]
        assert layers["oracle.lookups"] == result["queries"]["classical"]
        assert layers["boruvka.build_work"] > 0
        if workload != "scan-large":
            assert layers["grover.bbht_calls"] > 0 and layers["grover.mask_evals"] > 0
        spans = json.loads(spans_path.read_text())
        assert {s["name"] for s in spans} >= {"graph.load", "verify", "boruvka.build"}


def test_check_rejects_wrong_reports(tmp_path):
    manifest = _manifest(tmp_path, "tiny-batch")
    case = next(worker.LibraryCase(s) for s in manifest["instances"] if not s["minimal"])
    good = case.render(case.call())
    assert worker.check(case, good) is None
    code, _, text = good.partition("\n")
    doc = json.loads(text)
    assert worker.check(case, "1\n" + text) is not None
    flipped = dict(doc, status="minimal")
    assert worker.check(case, "0\n" + json.dumps(flipped)) is not None
    short = dict(doc, improved_tree_indices=doc["improved_tree_indices"][:-1])
    assert worker.check(case, code + "\n" + json.dumps(short)) is not None
    overcharged = dict(doc, queries=dict(doc["queries"], classical=doc["queries"]["classical"] + 1))
    if case.spec["mode"] != "classical":
        assert worker.check(case, code + "\n" + json.dumps(overcharged)) is not None


def test_run_end_to_end_at_toy_size():
    deadline = time.monotonic() + 120
    result = run.run_workload("tiny-batch", 5, 0.2, True, deadline, **TOY["tiny-batch"])
    assert result["correct"] and result["failed"] == 0
    assert set(result["end_to_end"]) >= {"pass_s", "setup_s", "instance_ms.p99", "queries.classical"}
    assert result["per_layer"]["trace.overhead"][0] > 0


def test_run_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "tiny-batch", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
