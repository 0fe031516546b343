"""In-process A/B of two mstverify source trees on the benchmark's workloads.

Usage, from the repository root:

    mkdir ../base && git archive HEAD~1 | tar -x -C ../base
    python3 tools/ab.py --base ../base --workload quantum-search --seed 5 --reps 60

Both trees' ``src/mstverify`` are imported into this one process under
their own package names, with a second copy of the base beside them as an
A/A control; the package uses only relative imports, which the tool checks
before it loads a tree. The inputs come from ``perfbench/gen.py`` as it
is, and every output of a first, untimed pass is checked by
``perfbench/worker.py``'s ``check``. Each rep then runs one pass of every
instance per variant, the variants' order rotated every rep, so that no
variant always runs first or last.

For each workload the tool prints, per metric, the median over reps of the
paired ratio change/base, with a bootstrap 95% interval, and the same for
the A/A copy over the base beside it:

- ``pass``: the sum of the instances' wall times in one pass;
- ``p50``: the median instance time of one pass.

An interval of change/base that lies outside the A/A interval is a
difference the A/A copy does not show. Times are raw wall times from
``time.perf_counter``, which a paired ratio within one process needs no
speed scale for.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import worker  # noqa: E402

VARIANTS = ("base", "change", "aa")
BOOTSTRAP = 2000


def absolute_imports(package: Path) -> list[str]:
    """Every import of mstverify by its absolute name in the package's modules, as 'file:line'."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "mstverify" or name.startswith("mstverify.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def load(tree: Path, name: str):
    """Import tree's src/mstverify as the package name, with its cli module; returns the package."""
    package = tree / "src" / "mstverify"
    init = package / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {tree} has no src/mstverify/__init__.py")
    absolute = absolute_imports(package)
    if absolute:
        raise SystemExit(f"error: {package} imports mstverify by name ({', '.join(absolute)}): it cannot be renamed")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def call(package, spec: dict):
    """Run one instance as the benchmark's worker does: through the CLI for file instances, else the library.

    The worker's CliCase and LibraryCase call the package imported as
    mstverify, so the same calls are made here on the given copy.
    """
    if "graph" in spec:
        argv = ["verify", "--graph", spec["graph"], "--tree", spec["tree"], "--mode", spec["mode"]]
        if spec["mode"] != "classical":
            argv += ["--seed", str(spec["seed"])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = package.cli.main(argv)
        return code, buf.getvalue()
    g = package.load_graph(spec["graph_text"])
    t = package.load_tree(spec["tree_text"], g)
    if spec["mode"] == "classical":
        return package.classical_verify(g, t, package.InstrumentedOracle(g, package.OracleModel.EDGE_LIST))
    oracle = package.InstrumentedOracle(g, package.OracleModel(spec["mode"]))
    return package.quantum_verify(g, t, oracle, spec["mode"], spec["seed"])


def run_pass(package, specs: list[dict]) -> tuple[list[float], list]:
    """Each instance's wall time in seconds, and its raw output."""
    times, outputs = [], []
    for spec in specs:
        t0 = perf_counter()
        outputs.append(call(package, spec))
        times.append(perf_counter() - t0)
    return times, outputs


def interval(ratios: list[float], rng: np.random.Generator) -> tuple[float, float, float]:
    """The median of the ratios and a bootstrap 95% interval of that median."""
    values = np.asarray(ratios)
    medians = np.median(values[rng.integers(values.size, size=(BOOTSTRAP, values.size))], axis=1)
    low, high = np.quantile(medians, [0.025, 0.975])
    return float(np.median(values)), float(low), float(high)


def compare(packages: dict, workload: str, seed: int, reps: int, **sizes) -> dict:
    """Run the workload's instances reps times per variant, order rotated every rep; the paired ratios.

    Returns, per metric, the change/base and A/A intervals and how many reps
    the change ran faster in, plus the checks of the first pass: the
    instances whose output the worker's check rejects, per variant, and
    the instances whose outputs differ between variants.
    """
    with tempfile.TemporaryDirectory(prefix=f"ab-{workload}-") as out:
        manifest = gen.build(workload, seed, Path(out), **sizes)
        specs = json.loads(manifest.read_text(encoding="utf-8"))["instances"]
        cases = [worker.CliCase(s) if "graph" in s else worker.LibraryCase(s) for s in specs]
        rendered = {v: [c.render(r) for c, r in zip(cases, run_pass(packages[v], specs)[1])] for v in VARIANTS}
        failed = {v: sum(worker.check(c, text) is not None for c, text in zip(cases, rendered[v])) for v in VARIANTS}
        differing = sum(len({rendered[v][i] for v in VARIANTS}) > 1 for i in range(len(specs)))
        samples = {v: [] for v in VARIANTS}
        for rep in range(reps):
            for v in VARIANTS[rep % 3 :] + VARIANTS[: rep % 3]:
                samples[v].append(run_pass(packages[v], specs)[0])
    rng = np.random.default_rng(0)
    metrics = {}
    for metric, of in (("pass", sum), ("p50", statistics.median)):
        base = [of(t) for t in samples["base"]]
        change = [of(t) / b for t, b in zip(samples["change"], base)]
        aa = [of(t) / b for t, b in zip(samples["aa"], base)]
        metrics[metric] = {"change": interval(change, rng), "aa": interval(aa, rng)}
        metrics[metric]["lower"] = sum(r < 1 for r in change)
    return {"instances": len(specs), "reps": reps, "failed": failed, "differing": differing, "metrics": metrics}


def print_result(workload: str, seed: int, result: dict) -> None:
    print(f"# {workload} seed={seed}: {result['instances']} instances, {result['reps']} reps")
    print(f"#   failed checks per variant {result['failed']}; outputs differing between variants {result['differing']}")
    print(f"{'metric':8s} {'change/base':>12s} {'95% interval':>18s} {'A/A':>8s} {'95% interval':>18s} {'lower':>13s}")
    for metric, row in result["metrics"].items():
        (c, c_lo, c_hi), (a, a_lo, a_hi) = row["change"], row["aa"]
        print(
            f"{metric:8s} {c:12.4f} {f'[{c_lo:.4f}, {c_hi:.4f}]':>18s} {a:8.4f} {f'[{a_lo:.4f}, {a_hi:.4f}]':>18s}"
            f" {row['lower']:>6d}/{result['reps']}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree of the parent (holds src/mstverify)")
    parser.add_argument("--change", type=Path, default=ROOT, help="source tree of the change (default: this one)")
    parser.add_argument("--workload", choices=[*gen.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=40)
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2")
    trees = {"base": args.base, "change": args.change, "aa": args.base}
    packages = {v: load(trees[v], f"ab_{v}") for v in VARIANTS}
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        result = compare(packages, workload, args.seed, args.reps)
        print_result(workload, args.seed, result)
        status |= any(result["failed"].values())
    return status


if __name__ == "__main__":
    sys.exit(main())
