"""Run one workload's instances in this single process, one at a time.

Usage: python3 worker.py MANIFEST SECONDS TRACE OUT [SPANS]

An untimed reference pass checks every output against the generator's
ground truth. Timed passes then repeat the instance set in a closed loop
for SECONDS, and each of their outputs must be byte-identical to the
reference. Times are reported at reference machine speed (speed.py), with
the raw wall times alongside. With TRACE=1 the second half of the time runs traced
passes, whose outputs must also match, and whose counters must reconcile
with the reports' query totals. The result goes to OUT as JSON; the spans
of the first traced pass go to SPANS.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import mstverify as mv  # noqa: E402
from mstverify import cli  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402

EXIT_FOR_STATUS = {"minimal": 0, "not_minimal": 3}
MAX_FAILURE_MESSAGES = 20


class CliCase:
    """An instance run through ``mstverify.cli.main(["verify", ...])`` in-process."""

    def __init__(self, spec):
        self.spec = spec
        self.argv = ["verify", "--graph", spec["graph"], "--tree", spec["tree"], "--mode", spec["mode"]]
        if spec["mode"] != "classical":
            self.argv += ["--seed", str(spec["seed"])]

    def call(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def render(self, raw) -> str:
        code, text = raw
        return f"{code}\n{text}"

    def texts(self):
        return Path(self.spec["graph"]).read_text(), Path(self.spec["tree"]).read_text()


class LibraryCase:
    """An instance run through the library calls batch users make."""

    def __init__(self, spec):
        self.spec = spec

    def call(self):
        spec = self.spec
        g = mv.load_graph(spec["graph_text"])
        t = mv.load_tree(spec["tree_text"], g)
        if spec["mode"] == "classical":
            oracle = mv.InstrumentedOracle(g, mv.OracleModel.EDGE_LIST)
            return mv.classical_verify(g, t, oracle)
        oracle = mv.InstrumentedOracle(g, mv.OracleModel(spec["mode"]))
        return mv.quantum_verify(g, t, oracle, spec["mode"], spec["seed"])

    def render(self, raw) -> str:
        verdict, report = raw
        doc = {
            "status": verdict.status,
            "witness": None,
            "improved_tree_indices": None,
            "queries": {
                "classical": report.classical_weight_queries,
                "quantum": report.quantum_oracle_applications,
                "grover_iterations": report.grover_iterations,
            },
            "mode": report.mode,
            "analytic_mode": report.analytic_mode,
        }
        if not verdict.minimal:
            doc["witness"] = {
                "in_edge": verdict.witness.violating_edge_id,
                "out_edge": verdict.witness.replaced_edge_id,
                "delta": verdict.weight_delta,
            }
            doc["improved_tree_indices"] = list(verdict.improved_tree.edge_ids)
        return f"{EXIT_FOR_STATUS[doc['status']]}\n{json.dumps(doc)}\n"

    def texts(self):
        return self.spec["graph_text"], self.spec["tree_text"]


def check(case, rendered: str) -> str | None:
    """None when the output is right, else what is wrong with it."""
    spec = case.spec
    code_line, _, text = rendered.partition("\n")
    if code_line not in ("0", "3"):
        return f"exit code {code_line}"
    try:
        doc = json.loads(text)
    except ValueError:
        return "report is not JSON"
    status = doc.get("status")
    if EXIT_FOR_STATUS.get(status) != int(code_line):
        return f"status {status!r} with exit code {code_line}"
    if status != ("minimal" if spec["minimal"] else "not_minimal"):
        return f"verdict {status}, ground truth minimal={spec['minimal']}"
    classical, n = doc["queries"]["classical"], spec["n"]
    if spec["mode"] == "classical" and classical < n - 1:
        return f"classical mode charged {classical} < n-1 = {n - 1} queries"
    if spec["mode"] != "classical" and classical != n - 1:
        return f"quantum mode charged {classical} != n-1 = {n - 1} classical queries"
    if status == "not_minimal":
        return check_improvement(case, doc)
    return None


def check_improvement(case, doc) -> str | None:
    """The improved tree spans, is strictly lighter, and swaps in a non-tree edge."""
    spec = case.spec
    graph_text, tree_text = case.texts()
    fields = graph_text.split()
    n, m = int(fields[0]), int(fields[1])
    u = [int(x) for x in fields[2::3]]
    v = [int(x) for x in fields[3::3]]
    w = [float(x) for x in fields[4::3]]
    tree = {int(x) for x in tree_text.split()[1:]}
    ids = doc["improved_tree_indices"]
    in_edge, out_edge = doc["witness"]["in_edge"], doc["witness"]["out_edge"]
    if len(ids) != n - 1 or len(set(ids)) != n - 1 or not all(0 <= i < m for i in ids):
        return "improved tree is not n-1 distinct edges of the graph"
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in ids:
        a, b = find(u[i]), find(v[i])
        if a == b:
            return f"improved tree has a cycle through edge {i}"
        parent[a] = b
    improved_k = sum(int(w[i] * 2**20) for i in ids)
    if not improved_k < spec["tree_k"]:
        return "improved tree is not strictly lighter"
    if in_edge in tree or in_edge not in ids or out_edge not in tree or out_edge in ids:
        return f"witness swap in={in_edge} out={out_edge} does not match the trees"
    return None


def run_pass(cases, tracer=None):
    """One pass over the instances.

    Returns per-instance wall times and the same at reference speed, both
    without the speed samples, the pass's wall time with them, and the outputs.
    """
    outputs, windows = [], []
    with speed.Monitor() as monitor:
        for case in cases:
            if tracer is not None:
                tracer.instance = case.spec["name"]
            t0 = perf_counter()
            try:
                raw = case.call()
            except Exception as exc:  # a crash is a failed instance, never the end of the run
                raw = exc
            windows.append((t0, perf_counter()))
            outputs.append(raw)
    times, scaled = monitor.scale(windows)
    return times, scaled, sum(t1 - t0 for t0, t1 in windows), outputs


def run(manifest: dict, seconds: float, trace: bool, spans_path: Path | None = None) -> dict:
    specs = manifest["instances"]
    cases = [CliCase(s) if "graph" in s else LibraryCase(s) for s in specs]
    failures: list[str] = []
    trace_errors: list[str] = []
    attempted = failed = 0

    def render(case, raw):
        if isinstance(raw, Exception):
            return f"error\n{type(raw).__name__}: {raw}\n"
        return case.render(raw)

    # untimed reference pass: full checks, and warm-up
    _, _, _, raws = run_pass(cases)
    reference = [render(c, r) for c, r in zip(cases, raws)]
    attempted += len(cases)
    wrong = set()  # a wrong reference output fails again in every pass that repeats it
    for i, (case, out) in enumerate(zip(cases, reference)):
        problem = check(case, out)
        if problem:
            wrong.add(i)
            failed += 1
            failures.append(f"{case.spec['name']}: {problem}")
    queries = {"classical": 0, "quantum": 0, "grover_iterations": 0}
    for out in reference:
        try:
            q = json.loads(out.partition("\n")[2])["queries"]
        except (ValueError, KeyError, TypeError):
            continue
        for key in queries:
            queries[key] += q[key]

    def timed(budget, tracers=None):
        """Passes until the next one would end after budget seconds (at least one)."""
        nonlocal attempted, failed
        passes = []
        start = perf_counter()
        lap = 0.0
        while not passes or perf_counter() - start + lap <= budget:
            lap_start = perf_counter()
            tracer = None
            if tracers is not None:
                tracer = spans.Tracer()
                tracers.append(tracer)
            with spans.install(tracer) if tracer else contextlib.nullcontext():
                times, scaled, spanned, raws = run_pass(cases, tracer)
            lap = perf_counter() - lap_start
            attempted += len(cases)
            for i, (case, raw, ref) in enumerate(zip(cases, raws, reference)):
                if render(case, raw) != ref:
                    failed += 1
                    failures.append(f"{case.spec['name']}: output differs from the reference pass")
                elif i in wrong:
                    failed += 1
            passes.append((sum(times), sum(scaled), scaled, spanned))
        return passes

    plain = timed(seconds / 2 if trace else seconds)
    result = {
        "instances": len(cases),
        "wall_pass_s": [p[0] for p in plain],
        "pass_s": [p[1] for p in plain],
        "instance_s": [list(t) for t in zip(*(p[2] for p in plain))],
        "queries": queries,
    }
    if trace:
        tracers: list[spans.Tracer] = []
        traced = timed(seconds / 2, tracers)
        edges_of = {s["name"]: s["m"] for s in specs}
        per_pass = []
        for tracer, (_, scaled_total, _, spanned) in zip(tracers, traced):
            # layer self times are wall times, speed samples included: scale them with their pass
            metrics = spans.layer_metrics(tracer, edges_of)
            per_pass.append({k: v * scaled_total / spanned if k.endswith("_s") else v for k, v in metrics.items()})
        layers = {}
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            if name.endswith("_s"):
                layers[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    trace_errors.append(f"counter {name} differs between traced passes: {values}")
                layers[name] = values[0]
        reconcile = [
            ("oracle.lookups", layers["oracle.lookups"], queries["classical"]),
            (
                "grover dense + analytic iterations",
                layers["grover.dense_iterations"] + layers["grover.analytic_iterations"],
                queries["grover_iterations"],
            ),
            ("grover iterations + rounds", queries["grover_iterations"] + layers["grover.rounds"], queries["quantum"]),
        ]
        for what, counted, reported in reconcile:
            if counted != reported:
                trace_errors.append(f"{what} = {counted} but the reports give {reported}")
        result["trace"] = {
            "wall_pass_s": [p[0] for p in traced],
            "pass_s": [p[1] for p in traced],
            "layers": layers,
        }
        if spans_path is not None:
            spans_path.write_text(json.dumps(tracers[0].dump()), encoding="utf-8")
    result["attempted"] = attempted
    result["failed"] = failed
    result["failures"] = failures[:MAX_FAILURE_MESSAGES]
    result["trace_errors"] = trace_errors
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main(argv: list[str]) -> int:
    manifest_path, seconds, trace, out = argv[:4]
    spans_path = Path(argv[4]) if len(argv) > 4 else None
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    result = run(manifest, float(seconds), trace == "1", spans_path)
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
