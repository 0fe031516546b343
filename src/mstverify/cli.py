"""Command-line front end: verify instances, generate them, run the oracle.

Exit codes are a stable contract: 0 = the tree is minimal, 3 = the tree
is not minimal (the report carries the improvement), 1 = any input or
usage error. Reports are byte-identical for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .generate import GenError, random_connected_graph, tree_of_kind
from .graph import GraphError, load_graph, load_tree, serialize_graph, serialize_tree, tree_weight
from .oracle import InstrumentedOracle, OracleModel
from .verify import DEFAULT_DELTA, classical_verify, kruskal_mst, quantum_verify, validate_search_settings

EXIT_MINIMAL = 0
EXIT_ERROR = 1
EXIT_NOT_MINIMAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mstverify",
        description="Verify that a spanning tree has minimum weight.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a graph/tree instance")
    p_verify.add_argument("--graph", required=True, help="graph file path")
    p_verify.add_argument("--tree", required=True, help="tree file path")
    p_verify.add_argument("--mode", choices=["classical", "adjacency", "edgelist"], default="classical")
    p_verify.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    p_verify.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="completeness error in (0, 0.5)")
    p_verify.add_argument("--output", choices=["json", "text"], default="json")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--weights", default="0.0:1.0", help="LO:HI uniform weight range")
    p_gen.add_argument("--tree-kind", choices=["mst", "perturbed", "random"], default="mst")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-prefix", required=True, help="writes PREFIX.graph and PREFIX.tree")

    p_oracle = sub.add_parser("oracle", help="print the Kruskal MST of a graph")
    p_oracle.add_argument("--graph", required=True)
    p_oracle.add_argument("--output", choices=["json", "text"], default="json")
    return parser


def _load_instance(graph_path: str, tree_path: str):
    g = load_graph(Path(graph_path).read_text(encoding="utf-8"))
    t = load_tree(Path(tree_path).read_text(encoding="utf-8"), g)
    return g, t


def _cmd_verify(args: argparse.Namespace) -> int:
    validate_search_settings(args.delta)
    g, t = _load_instance(args.graph, args.tree)
    if args.mode == "classical":
        verdict, report = classical_verify(g, t, InstrumentedOracle(g, OracleModel.EDGE_LIST))
    else:
        oracle = InstrumentedOracle(g, OracleModel(args.mode))
        verdict, report = quantum_verify(g, t, oracle, args.mode, args.seed, delta=args.delta)

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
        "seed": args.seed,
        "n": g.n,
        "m": g.m,
    }
    if not verdict.minimal:
        doc["witness"] = {
            "in_edge": verdict.witness.violating_edge_id,
            "out_edge": verdict.witness.replaced_edge_id,
            "delta": verdict.weight_delta,
        }
        doc["improved_tree_indices"] = list(verdict.improved_tree.edge_ids)

    if args.output == "json":
        print(json.dumps(doc, allow_nan=False))
    else:
        print(f"status: {doc['status']}")
        print(f"n: {g.n}  m: {g.m}  mode: {report.mode}  analytic: {report.analytic_mode}")
        q = doc["queries"]
        print(f"queries: classical={q['classical']} quantum={q['quantum']} grover_iterations={q['grover_iterations']}")
        if not verdict.minimal:
            w = doc["witness"]
            print(f"witness: swap in edge {w['in_edge']}, out edge {w['out_edge']} (delta {w['delta']})")
            print(f"improved tree: {doc['improved_tree_indices']}")
    return EXIT_MINIMAL if verdict.minimal else EXIT_NOT_MINIMAL


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        lo_s, hi_s = args.weights.split(":", 1)
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise GenError(f"--weights expects LO:HI, got {args.weights!r}") from exc
    if not (0.0 <= lo < hi < math.inf):
        raise GenError(f"--weights needs finite 0 <= LO < HI, got {args.weights!r}")
    rng = np.random.default_rng(args.seed)
    g = random_connected_graph(args.n, args.m, rng, weight_low=lo, weight_high=hi)
    t = tree_of_kind(g, args.tree_kind, rng)
    weight = tree_weight(g, t)
    if not math.isfinite(weight):
        # checked before any file is written; the report must be strict JSON
        raise GenError(f"tree weight overflows to {weight}: lower --weights, got {args.weights!r}")
    graph_path = Path(f"{args.out_prefix}.graph")
    tree_path = Path(f"{args.out_prefix}.tree")
    graph_path.write_text(serialize_graph(g), encoding="utf-8")
    tree_path.write_text(serialize_tree(g, t), encoding="utf-8")
    print(json.dumps({
        "graph": str(graph_path),
        "tree": str(tree_path),
        "n": g.n,
        "m": g.m,
        "tree_kind": args.tree_kind,
        "tree_weight": weight,
        "seed": args.seed,
    }, allow_nan=False))
    return EXIT_MINIMAL


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = load_graph(Path(args.graph).read_text(encoding="utf-8"))
    mst = kruskal_mst(g)
    weight = tree_weight(g, mst)
    if not math.isfinite(weight):
        raise GraphError(f"MST weight overflows to {weight}: the edge weights are too large to sum")
    if args.output == "json":
        print(json.dumps({"mst_weight": weight, "mst_indices": list(mst.edge_ids), "n": g.n, "m": g.m}, allow_nan=False))
    else:
        print(f"mst weight: {weight}")
        print(f"mst indices: {list(mst.edge_ids)}")
    return EXIT_MINIMAL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # fold argparse usage failures into the error exit contract
        return EXIT_MINIMAL if exc.code == 0 else EXIT_ERROR
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_oracle(args)
    except (GraphError, GenError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
