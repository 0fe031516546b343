"""Seeded benchmark inputs, independent of ``mstverify.generate``.

Every workload's instances are made here from the workload seed alone, so
a change to the program's own generator can never change a workload. The
program only ever sees the graph and tree files written below, in the
documented text formats.

Weights are dyadic, ``k / 2**20`` with integer ``k``, so every tree weight
is an exact float and ground truth is an integer comparison of weight sums.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WEIGHT_SCALE = 2**20
TREE_KINDS = ("mst", "perturbed", "random")
MODES = ("classical", "edgelist", "adjacency")


class Instance:
    """One generated graph with one candidate tree and its ground truth."""

    def __init__(self, n, u, v, k, tree_ids):
        self.n = n
        self.u, self.v, self.k = u, v, k
        self.tree_ids = sorted(int(i) for i in tree_ids)

    @property
    def m(self) -> int:
        return int(self.k.size)

    def graph_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(
            f"{a} {b} {w!r}" for a, b, w in zip(self.u.tolist(), self.v.tolist(), (self.k / WEIGHT_SCALE).tolist())
        )
        return "\n".join(lines) + "\n"

    def tree_text(self) -> str:
        return "indices\n" + "".join(f"{i}\n" for i in self.tree_ids)

    def truth(self, mst_ids) -> dict:
        k = self.k.tolist()
        tree_k = sum(k[i] for i in self.tree_ids)
        mst_k = sum(k[i] for i in mst_ids)
        return {"tree_k": tree_k, "mst_k": mst_k, "minimal": tree_k == mst_k}


def random_graph(rng: np.random.Generator, n: int, m: int):
    """Connected simple graph: a random recursive backbone plus distinct extra edges.

    Returns endpoint arrays (u < v) and integer weights k in [0, 2**20), in a
    random edge order so that the backbone is not a prefix of the edge list.
    """
    max_m = n * (n - 1) // 2
    if n < 2 or not (n - 1 <= m <= max_m):
        raise ValueError(f"need n >= 2 and n-1 <= m <= n(n-1)/2, got n={n} m={m}")
    label = rng.permutation(n)
    child = np.arange(1, n)
    parent = (rng.random(n - 1) * child).astype(np.int64)
    a, b = label[parent], label[child]
    u, v = np.minimum(a, b), np.maximum(a, b)
    keys = u * n + v
    extra = m - (n - 1)
    if extra and 4 * m >= max_m:
        iu, iv = np.triu_indices(n, 1)
        free = np.setdiff1d(iu * n + iv, keys)
        keys = np.concatenate([keys, rng.choice(free, size=extra, replace=False)])
    elif extra:
        chosen = set(keys.tolist())
        picked: list[int] = []
        while len(picked) < extra:
            x = rng.integers(n, size=2 * (extra - len(picked)) + 16)
            y = rng.integers(n, size=x.size)
            for p, q in zip(np.minimum(x, y).tolist(), np.maximum(x, y).tolist()):
                key = p * n + q
                if p != q and key not in chosen:
                    chosen.add(key)
                    picked.append(key)
                    if len(picked) == extra:
                        break
        keys = np.concatenate([keys, np.asarray(picked, dtype=np.int64)])
    keys = keys[rng.permutation(m)]
    k = rng.integers(0, WEIGHT_SCALE, size=m)
    return keys // n, keys % n, k


def kruskal(n: int, u, v, order) -> list[int]:
    """Spanning forest picked greedily in the given edge order (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    uu, vv = u.tolist(), v.tolist()
    ids = []
    for i in order.tolist():
        ra, rb = find(uu[i]), find(vv[i])
        if ra != rb:
            parent[ra] = rb
            ids.append(i)
            if len(ids) == n - 1:
                break
    return ids


def mst_ids(n, u, v, k) -> list[int]:
    """Kruskal in (weight, id) order."""
    return kruskal(n, u, v, np.lexsort((np.arange(k.size), k)))


def random_tree_ids(rng, n, u, v) -> list[int]:
    """A random spanning tree: Kruskal over a random edge order."""
    return kruskal(n, u, v, rng.permutation(u.size))


def perturbed_ids(rng, n, u, v, k, mst) -> list[int]:
    """The MST with one weight-increasing swap, or the MST when none exists.

    A non-tree edge e is drawn at random; its tree path is found by one O(n)
    search from one endpoint, and a path edge strictly lighter than e is
    swapped out for e. At most a few draws are needed: by the cycle property
    every path edge is at most w(e), so a draw fails only on exact ties.
    """
    in_tree = np.zeros(u.size, dtype=bool)
    in_tree[mst] = True
    outside = np.flatnonzero(~in_tree)
    if outside.size == 0:
        return list(mst)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    uu, vv, kk = u.tolist(), v.tolist(), k.tolist()
    for i in mst:
        adj[uu[i]].append((vv[i], i))
        adj[vv[i]].append((uu[i], i))
    for e in rng.permutation(outside)[:32].tolist():
        src, dst = uu[e], vv[e]
        via = {src: -1}
        stack = [src]
        while dst not in via:
            x = stack.pop()
            for y, i in adj[x]:
                if y not in via:
                    via[y] = i
                    stack.append(y)
        lighter = []
        x = dst
        while x != src:
            i = via[x]
            if kk[i] < kk[e]:
                lighter.append(i)
            x = uu[i] if vv[i] == x else vv[i]
        if lighter:
            out = lighter[int(rng.integers(len(lighter)))]
            return [i for i in mst if i != out] + [e]
    return list(mst)


def make_instance(rng, n, m, kind) -> tuple[Instance, dict]:
    u, v, k = random_graph(rng, n, m)
    mst = mst_ids(n, u, v, k)
    if kind == "mst":
        tree = mst
    elif kind == "perturbed":
        tree = perturbed_ids(rng, n, u, v, k, mst)
    else:
        tree = random_tree_ids(rng, n, u, v)
    inst = Instance(n, u, v, k, tree)
    return inst, inst.truth(mst)


def _write_files(out: Path, name: str, inst: Instance) -> dict:
    graph, tree = out / f"{name}.graph", out / f"{name}.tree"
    graph.write_text(inst.graph_text(), encoding="utf-8")
    tree.write_text(inst.tree_text(), encoding="utf-8")
    return {"graph": str(graph), "tree": str(tree)}


def scan_large(seed: int, out: Path, n: int = 20000, m: int = 80000) -> list[dict]:
    """One large graph verified classically against its MST and a random tree."""
    rng = np.random.default_rng([seed, 1])
    u, v, k = random_graph(rng, n, m)
    mst = mst_ids(n, u, v, k)
    specs = []
    for kind, tree in (("mst", mst), ("random", random_tree_ids(rng, n, u, v))):
        inst = Instance(n, u, v, k, tree)
        spec = {"name": f"scan-{kind}", "n": n, "m": m, "kind": kind, "mode": "classical", "seed": seed}
        spec.update(_write_files(out, spec["name"], inst), **inst.truth(mst))
        specs.append(spec)
    return specs


def quantum_search(
    seed: int, out: Path, adj_n: int = 512, adj_m: int = 2048, el_n: int = 8192, el_m: int = 32768
) -> list[dict]:
    """Two adjacency searches (MST, perturbed) and one edge-list search (MST)."""
    rng = np.random.default_rng([seed, 2])
    specs = []
    for name, n, m, kind, mode in (
        ("adj-mst", adj_n, adj_m, "mst", "adjacency"),
        ("adj-perturbed", adj_n, adj_m, "perturbed", "adjacency"),
        ("edgelist-mst", el_n, el_m, "mst", "edgelist"),
    ):
        inst, truth = make_instance(rng, n, m, kind)
        spec = {"name": name, "n": n, "m": m, "kind": kind, "mode": mode, "seed": seed}
        spec.update(_write_files(out, name, inst), **truth)
        specs.append(spec)
    return specs


def tiny_batch(seed: int, out: Path, per_class: int = 111, max_n: int = 32) -> list[dict]:
    """Many small instances; graph and tree texts travel in the manifest.

    Each of the nine (tree kind, mode) pairings gets the same sizes: for j
    below per_class, n = 2 + floor((max_n - 1) * ((j + 0.5) / per_class)**2),
    skewed small, and m spreads over [n-1, min(4n, n(n-1)/2)] by the
    golden-ratio sequence frac(0.618 j). Every seed thus has the same mix of
    sizes, so the size mix cannot move the latency percentiles; only the
    graphs, weights and trees differ. Kinds and modes cycle instance by
    instance.
    """
    rng = np.random.default_rng([seed, 3])
    specs = []
    for i in range(9 * per_class):
        j = i // 9
        n = 2 + int((max_n - 1) * ((j + 0.5) / per_class) ** 2)
        top = min(4 * n, n * (n - 1) // 2)
        m = n - 1 + int((j * 0.6180339887 % 1.0) * (top - n + 2))
        kind, mode = TREE_KINDS[i % 3], MODES[(i // 3) % 3]
        inst, truth = make_instance(rng, n, m, kind)
        spec = {"name": f"tiny-{i}", "n": n, "m": m, "kind": kind, "mode": mode, "seed": seed * 100003 + i}
        spec.update(truth, graph_text=inst.graph_text(), tree_text=inst.tree_text())
        specs.append(spec)
    return specs


WORKLOADS = {"scan-large": scan_large, "quantum-search": quantum_search, "tiny-batch": tiny_batch}


def build(workload: str, seed: int, out: Path, **sizes) -> Path:
    """Generate a workload's instances into out and return its manifest path."""
    specs = WORKLOADS[workload](seed, out, **sizes)
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"workload": workload, "seed": seed, "instances": specs}), encoding="utf-8")
    return manifest
