"""mstverify benchmark: one workload per run, or all of them.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan-large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run times how long a fresh interpreter takes to import ``mstverify.cli``
(setup_s), generates the workload's inputs from the seed, and runs them in
one worker process (worker.py). It prints every metric by name with its
unit, writes a results record under perfbench/out/, and prints one JSON
object as the last line: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. ``--workload all`` runs
every workload both ways.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gen
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 9
RUN_LIMIT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # same string hashing, so same dict layouts, in every run
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(runs: int = SETUP_RUNS) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that only import mstverify.cli, raw and at reference speed.

    This process and the interpreters it starts are pinned to one CPU for
    the measurement, so the calibrations around each import measure the
    speed of the CPU the import ran on (the quartile spread of the median
    over repeated measurements fell from 18% to 4% with it).
    """

    def calibrate():
        return statistics.mean(speed.calibrate() for _ in range(3))

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        walls, scaled = [], []
        before = calibrate()
        for _ in range(runs):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import mstverify.cli"], env=_env(), cwd=ROOT, check=True)
            walls.append(time.perf_counter() - t0)
            after = calibrate()
            scaled.append(walls[-1] * speed.scale(before, after))
            before = after
    finally:
        os.sched_setaffinity(0, cpus)
    return walls, scaled


def percentile(values: list[float], q: int) -> float:
    """Linearly interpolated q-th percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or name.startswith("instance_ms."):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_computed"):
        return "B"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float, **sizes) -> dict:
    """Set up, generate and run one workload; returns metrics with sample counts."""
    setup_wall, setup = measure_setup()
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        manifest = gen.build(workload, seed, work, **sizes)
        result_path = work / "result.json"
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(manifest), str(seconds), str(int(trace)), str(result_path)]
        if trace:
            cmd.append(str(spans_path))
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()))
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = len(result["pass_s"])
    per_instance_ms = [1e3 * statistics.median(times) for times in result["instance_s"]]
    metrics = {
        "pass_s": (statistics.median(result["pass_s"]), passes),
        "instance_ms.p50": (percentile(per_instance_ms, 50), result["instances"] * passes),
        "instance_ms.p99": (percentile(per_instance_ms, 99), result["instances"] * passes),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
        "queries.classical": (result["queries"]["classical"], result["instances"]),
    }
    wall = {
        "wall.pass_s": (statistics.median(result["wall_pass_s"]), passes),
        "wall.setup_s": (statistics.median(setup_wall), len(setup_wall)),
    }
    layers = {}
    if trace:
        traced = result["trace"]
        traced_passes = len(traced["pass_s"])
        traced_pass_s = statistics.median(traced["pass_s"])
        layers = {name: (value, traced_passes) for name, value in traced["layers"].items()}
        layers["queries.quantum"] = (result["queries"]["quantum"], result["instances"])
        layers["queries.grover_iterations"] = (result["queries"]["grover_iterations"], result["instances"])
        layers["trace.pass_s"] = (traced_pass_s, traced_passes)
        wall["wall.trace.pass_s"] = (statistics.median(traced["wall_pass_s"]), traced_passes)
        layers["trace.overhead"] = (traced_pass_s / metrics["pass_s"][0], traced_passes + passes)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": result["failed"] == 0 and not result["trace_errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "trace_errors": result["trace_errors"],
        "instances": result["instances"],
        "end_to_end": metrics,
        "per_layer": layers,
        "wall": wall,
    }


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def report(run: dict, names) -> dict:
    """Print the chosen metrics of a run, then its raw wall times, and return the former as JSON values."""
    print(f"# {run['workload']} seed={run['seed']} trace={run['trace']}: "
          f"{run['instances']} instances, attempted {run['attempted']}, failed {run['failed']}")
    for message in run["failures"] + run["trace_errors"]:
        print(f"#   failure: {message}")
    values = {}
    for name, (value, samples) in names.items():
        unit = unit_of(name)
        print(f"{name:32s} {value:>16.6g} {unit:6s} (n={samples})")
        values[name] = {"value": value, "unit": unit}
    for name, (value, samples) in run["wall"].items():
        print(f"{name:32s} {value:>16.6g} {'s':6s} (n={samples}, raw wall time)")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*gen.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mstverify" / "__init__.py").is_file():
        print(f"error: no mstverify sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    plan = [(w, t) for w in gen.WORKLOADS for t in (False, True)] if args.workload == "all" else [(args.workload, bool(args.trace))]
    runs = []
    for workload, trace in plan:
        deadline = time.monotonic() + RUN_LIMIT_S
        run = run_workload(workload, args.seed, args.seconds, trace, deadline)
        run["metrics"] = report(run, run["per_layer"] if trace else run["end_to_end"])
        runs.append(run)

    record = {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "speed_reference_s": speed.REFERENCE_S,
        "runs": [
            {k: (v if k not in ("end_to_end", "per_layer", "wall") else {n: {"value": x, "samples": c} for n, (x, c) in v.items()})
             for k, v in run.items() if k != "metrics"}
            for run in runs
        ],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"# results record: {record_path.relative_to(ROOT)}")

    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}:{name}": value for r in runs for name, value in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
