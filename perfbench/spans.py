"""Span and counter recording around mstverify's public functions, from outside.

The program is not changed: ``install`` replaces each traced function or
method by a timing wrapper at the names its callers look it up by (every
``mstverify`` module attribute bound to the same object, or the class
attribute for a method) and puts the originals back on exit.

Stage calls become spans (name, start, end, parent span, instance id).
Hot calls, made thousands of times per instance, are not spans: their
count, total time and self time are aggregated on the enclosing span.
Self time is a call's duration minus the traced calls inside it, so the
per-layer self times partition the traced wall time without overlap.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Bytes a dense Grover iteration moves per amplitude, computed, not measured:
# the mean reads 8, the reflection reads 8 and writes 8, the mask reads 1.
DENSE_BYTES_PER_AMPLITUDE = 25


def _classical_lookup(args, kwargs, result) -> int:
    return 0 if kwargs.get("quantum", False) else 1


def _load_info(info, args, kwargs, result):
    info["edges"] = result.m


def _build_info(info, args, kwargs, result):
    info["build_work"] = result.build_work
    info["height"] = result.height


def _bbht_info(info, args, kwargs, result):
    found, stats = result
    info["rounds"] = stats.rounds
    info["hits"] = int(found is not None)


# (module, class or None, attribute, kind, span/counter label, extra)
# A stage's extra fills the span's info from the result; a hot call's extra
# returns one number summed per enclosing span.
TARGETS = [
    ("mstverify.cli", None, "main", "stage", "cli", None),
    ("mstverify.graph", None, "load_graph", "stage", "graph.load", _load_info),
    ("mstverify.graph", None, "load_tree", "stage", "graph.load", None),
    ("mstverify.verify", None, "classical_verify", "stage", "verify", None),
    ("mstverify.verify", None, "quantum_verify", "stage", "verify", None),
    ("mstverify.verify", None, "direct_path_max", "stage", "verify.certify", None),
    ("mstverify.verify", None, "improve", "stage", "verify.certify", None),
    ("mstverify.boruvka", None, "build_boruvka_tree", "stage", "boruvka.build", _build_info),
    ("mstverify.boruvka", "BoruvkaTree", "path_max", "hot", "boruvka.path_max", lambda a, k, r: r.ascent_steps),
    ("mstverify.oracle", "InstrumentedOracle", "edge_weight", "hot", "oracle.edge_weight", None),
    ("mstverify.oracle", "InstrumentedOracle", "weight", "hot", "oracle.lookup", _classical_lookup),
    ("mstverify.oracle", "InstrumentedOracle", "edge", "hot", "oracle.lookup", _classical_lookup),
    ("mstverify.grover", None, "bbht_search", "stage", "grover.bbht", _bbht_info),
    ("mstverify.grover", "SearchSpace", "marked_indices", "stage", "grover.mask", None),
    ("mstverify.grover", None, "_closed_form_round", "hot", "grover.analytic_round", lambda a, k, r: int(a[1])),
    ("mstverify.grover", "StateVector", "grover_iteration", "hot", "grover.iteration", lambda a, k, r: a[0].amplitudes.size),
    ("mstverify.grover", "StateVector", "sample", "hot", "grover.sample", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "self_ns", "hot", "info")

    def __init__(self, name, parent, instance):
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = self.end = self.self_ns = 0
        self.hot: dict[str, list[int]] = {}  # label -> [count, total_ns, self_ns, extra]
        self.info: dict[str, int] = {}


class Tracer:
    """In-memory spans of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance: str | None = None
        self.root = Span("pass", None, None)
        self._frames: list[list] = []  # [start_ns, traced child ns, span or None]

    def _enclosing(self) -> Span:
        for frame in reversed(self._frames):
            if frame[2] is not None:
                return frame[2]
        return self.root

    def _close(self, frame) -> int:
        duration = perf_counter_ns() - frame[0]
        self._frames.pop()
        if self._frames:
            self._frames[-1][1] += duration
        return duration

    def stage(self, label, fn, info=None):
        def wrapper(*args, **kwargs):
            span = Span(label, self._enclosing(), self.instance)
            self.spans.append(span)
            frame = [0, 0, span]
            self._frames.append(frame)
            span.start = frame[0] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(frame)
                span.end = span.start + duration
                span.self_ns = duration - frame[1]
            if info is not None:
                info(span.info, args, kwargs, result)
            return result

        return wrapper

    def hot(self, label, fn, extra=None):
        def wrapper(*args, **kwargs):
            frame = [perf_counter_ns(), 0, None]
            self._frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(frame)
            hot = self._enclosing().hot
            agg = hot.get(label)
            if agg is None:
                agg = hot[label] = [0, 0, 0, 0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[1]
            if extra is not None:
                agg[3] += extra(args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> list[dict]:
        """Spans as records; parent is an index into the list, None at top level."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
                "parent": index.get(id(s.parent)),
                "instance": s.instance,
                "self_ns": s.self_ns,
                "hot": s.hot,
                "info": s.info,
            }
            for s in self.spans
        ]


@contextmanager
def install(tracer: Tracer):
    """Wrap every target, and the marker of every new SearchSpace, for the block.

    A target the program no longer has is reported on stderr and skipped,
    so its metrics read 0.
    """
    modules = [mod for key, mod in list(sys.modules.items()) if key == "mstverify" or key.startswith("mstverify.")]
    undo = []
    try:
        for module_name, class_name, name, kind, label, extra in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is not None and class_name:
                owner = getattr(owner, class_name, None)
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                print(f"trace: {module_name} {class_name or ''} {name} not found, skipped", file=sys.stderr)
                continue
            wrapped = (tracer.stage if kind == "stage" else tracer.hot)(label, original, extra)
            holders = [owner] if class_name else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)
                        undo.append((holder, attr, original))
        space = getattr(sys.modules.get("mstverify.grover"), "SearchSpace", None)
        if space is not None:
            init = space.__init__

            def traced_init(self, logical_size, marker, *args, **kwargs):
                init(self, logical_size, tracer.hot("grover.marker", marker), *args, **kwargs)

            space.__init__ = traced_init
            undo.append((space, "__init__", init))
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


def layer_metrics(tracer: Tracer, edges_of: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced pass; times are self times in seconds.

    edges_of maps an instance id to its graph's edge count, for the ratio of
    real edges to predicate positions the mask evaluated.
    """
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    info = defaultdict(int)
    hot = defaultdict(lambda: [0, 0, 0, 0])
    height_max = 0
    scan_candidates = mask_evals = mask_edges = 0
    mask_marker_ns = 0
    for span in [tracer.root, *tracer.spans]:
        self_ns[span.name] += span.self_ns
        calls[span.name] += 1
        for key, value in span.info.items():
            info[span.name + "." + key] += value
        height_max = max(height_max, span.info.get("height", 0))
        for label, agg in span.hot.items():
            total = hot[label]
            for i in range(4):
                total[i] += agg[i]
        if span.name == "verify":
            scan_candidates += span.hot.get("boruvka.path_max", (0,))[0]
        if span.name == "grover.mask" and "grover.marker" in span.hot:
            evals, _, marker_self, _ = span.hot["grover.marker"]
            mask_evals += evals
            mask_marker_ns += marker_self
            mask_edges += edges_of.get(span.instance, 0)
    amplitudes = hot["grover.iteration"][3]
    s = 1e-9
    return {
        "graph.load_s": self_ns["graph.load"] * s,
        "graph.load_calls": calls["graph.load"],
        "graph.edges_loaded": info["graph.load.edges"],
        "oracle.lookup_s": (hot["oracle.edge_weight"][2] + hot["oracle.lookup"][2]) * s,
        "oracle.lookups": hot["oracle.lookup"][3],
        "boruvka.build_s": self_ns["boruvka.build"] * s,
        "boruvka.build_work": info["boruvka.build.build_work"],
        "boruvka.height_max": height_max,
        "boruvka.path_max_s": hot["boruvka.path_max"][2] * s,
        "boruvka.path_max_calls": hot["boruvka.path_max"][0],
        "boruvka.ascent_steps": hot["boruvka.path_max"][3],
        "grover.mask_s": (self_ns["grover.mask"] + mask_marker_ns) * s,
        "grover.mask_evals": mask_evals,
        "grover.mask_edge_ratio": mask_edges / mask_evals if mask_evals else 0.0,
        "grover.iterate_s": hot["grover.iteration"][2] * s,
        "grover.dense_iterations": hot["grover.iteration"][0],
        "grover.amplitude_updates": amplitudes,
        "grover.bytes_moved_computed": amplitudes * DENSE_BYTES_PER_AMPLITUDE,
        "grover.sample_s": hot["grover.sample"][2] * s,
        "grover.samples": hot["grover.sample"][0],
        "grover.schedule_s": (
            self_ns["grover.bbht"] + hot["grover.analytic_round"][2] + hot["grover.marker"][2] - mask_marker_ns
        )
        * s,
        "grover.bbht_calls": calls["grover.bbht"],
        "grover.rounds": info["grover.bbht.rounds"],
        "grover.hits": info["grover.bbht.hits"],
        "grover.analytic_rounds": hot["grover.analytic_round"][0],
        "grover.analytic_iterations": hot["grover.analytic_round"][3],
        "verify.self_s": self_ns["verify"] * s,
        "verify.scan_candidates": scan_candidates,
        "verify.certify_s": self_ns["verify.certify"] * s,
        "verify.certify_calls": calls["verify.certify"],
        "cli.self_s": self_ns["cli"] * s,
    }
