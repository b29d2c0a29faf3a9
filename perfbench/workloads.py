"""The benchmark's workloads: seeded edge-list files, request lists and output checks.

Graphs follow the two recipes of ``tests/conftest.py``: a directed ring plus
random extra links ("oneway": strongly connected and never symmetrizable) and
a detailed-balance graph built from node weights m over a random connected
skeleton ("balanced": symmetrizable).  Node and edge counts are fixed per
workload so that every seed asks for the same amount of work; the seed only
moves the links and weights.  The program under test sees nothing but the
files written here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Acceptance-suite bounds; any reported value above its bound fails the request.
RESIDUAL_BOUNDS = {
    "omega_residual": 1e-8,
    "h_residual": 1e-7,
    "eq19_residual": 1e-12,
    "eq26_residual": 1e-10,
    "theorem1_gap": 1e-5,
    "sup_gap_vs_direct": 1e-5,
    "second_order_residual": 1e-5,
    "eq22_residual": 1e-5,
}
DEFAULT_STEPS = 10_000  # the CLI's default grid: t_end=10, dt=1e-3
TINY_T_END = "0.02"  # 20 steps, for the smoke tests


class CheckFailed(Exception):
    """A request's output broke the workload's correctness check."""


# --------------------------------------------------------------------------
# graph recipes


def oneway_edges(rng, n, extra):
    """Directed ring plus ``extra`` random links; the link 1->0 is never added,
    so the ring link 0->1 stays one-way and the graph is not symmetrizable."""
    edges = {(i, (i + 1) % n): None for i in range(n)}
    for i, j in rng.integers(0, n, size=(extra, 2)).tolist():
        if i != j and (i, j) != (1, 0):
            edges[(i, j)] = None
    pairs = sorted(edges)
    weights = rng.uniform(0.5, 2.0, size=len(pairs))
    return [(i, j, float(w)) for (i, j), w in zip(pairs, weights)]


def balanced_edges(rng, n, extra):
    """Reciprocal links over a random spanning tree plus ``extra`` random pairs,
    weighted so that m_i w_ij = m_j w_ji (detailed balance)."""
    m = rng.uniform(0.5, 2.0, size=n)
    order = rng.permutation(n)
    pairs = set()
    for k in range(1, n):
        i, j = int(order[k]), int(order[rng.integers(0, k)])
        pairs.add((min(i, j), max(i, j)))
    for i, j in rng.integers(0, n, size=(extra, 2)).tolist():
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    edges = []
    for i, j in sorted(pairs):
        b = float(rng.uniform(0.5, 2.0))
        edges.append((i, j, float(b / m[i])))
        edges.append((j, i, float(b / m[j])))
    return edges


RECIPES = {"oneway": oneway_edges, "balanced": balanced_edges}


@dataclass(frozen=True)
class Graph:
    """One generated edge-list file and what its checks need to know."""

    path: str
    kind: str
    n: int
    edges: tuple  # (src, dst, weight) in file order, integer node ids

    @property
    def symmetrizable(self) -> bool:
        return self.kind == "balanced"

    def labels(self) -> list[str]:
        """Node labels in order of first appearance, the program's index order."""
        seen = {}
        for s, d, _ in self.edges:
            seen.setdefault(s, None)
            seen.setdefault(d, None)
        return [str(v) for v in seen]

    def laplacian(self) -> np.ndarray:
        index = {int(lbl): k for k, lbl in enumerate(self.labels())}
        L = np.zeros((self.n, self.n))
        for s, d, w in self.edges:
            L[index[s], index[d]] -= w
            L[index[s], index[s]] += w
        return L


def write_graph(workdir, name, rng, kind, n, extra, messy=False) -> Graph:
    """Generate a graph and write it as an edge list.

    ``messy`` files mix comma and tab separators with whole-line and trailing
    comments, as the edge-list format allows.
    """
    edges = RECIPES[kind](rng, n, extra)
    lines = [f"# {kind} graph, n={n}, {len(edges)} links"]
    for k, (s, d, w) in enumerate(edges):
        if not messy:
            lines.append(f"{s},{d},{w!r}")
            continue
        sep = "\t" if k % 3 == 0 else ","
        line = f"{s}{sep}{d}{sep}{w!r}"
        if k % 50 == 0:
            lines.append("# block %d" % (k // 50))
        if k % 7 == 0:
            line += "  # trailing comment"
        lines.append(line)
    path = os.path.join(workdir, f"{name}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return Graph(path=path, kind=kind, n=n, edges=tuple(edges))


# --------------------------------------------------------------------------
# output checks


def _require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


def _walk_residuals(obj):
    """Check every residual key and sparsity flag anywhere in a report."""
    if isinstance(obj, list):
        for item in obj:
            _walk_residuals(item)
        return
    if not isinstance(obj, dict):
        return
    for key, value in obj.items():
        if key in RESIDUAL_BOUNDS:
            _require(
                isinstance(value, (int, float)) and 0 <= value <= RESIDUAL_BOUNDS[key],
                f"{key}={value} over {RESIDUAL_BOUNDS[key]}",
            )
        elif key == "sparsity_match":
            _require(value is True, "sparsity_match is false")
        else:
            _walk_residuals(value)


def _json(stdout):
    try:
        report = json.loads(stdout)
    except ValueError:
        raise CheckFailed("stdout is not JSON") from None
    _walk_residuals(report)
    return report


def _vector(value, n, what):
    _require(isinstance(value, list) and len(value) == n, f"{what} has wrong length")


def _csv(stdout, n, steps):
    lines = stdout.splitlines()
    header = "t," + ",".join(f"node{i}_re,node{i}_im" for i in range(n))
    _require(lines and lines[0] == header, "wrong CSV header")
    _require(len(lines) == steps + 2, f"CSV has {len(lines) - 1} rows, want {steps + 1}")
    _require(all(line.count(",") == 2 * n for line in lines[1:]), "ragged CSV row")
    try:
        last = [float(cell) for cell in lines[-1].split(",")]
    except ValueError:
        raise CheckFailed("non-numeric CSV cell") from None
    _require(all(np.isfinite(last)), "non-finite CSV cell")


def check_for(command, graphs, steps, fmt="json", dump=False) -> Callable[[str], None]:
    """The correctness check of one request; raises CheckFailed."""
    g = graphs[0]

    def check(stdout):
        if fmt == "csv":
            _csv(stdout, g.n, steps)
            return
        report = _json(stdout)
        if command == "check":
            _require(report["symmetrizable"] is g.symmetrizable, "wrong symmetrizable verdict")
            if g.symmetrizable:
                _vector(report["m"], g.n, "m")
        elif command == "decompose":
            _require(report["symmetrizable"] is g.symmetrizable, "wrong symmetrizable verdict")
            L = np.asarray(report["split"]["L0"]) + np.asarray(report["split"]["LI"])
            want = g.laplacian()
            _require(L.shape == want.shape, "split has wrong shape")
            gap = np.abs(L - want).max()
            _require(gap <= 1e-9 * np.abs(want).max(), f"L0 + LI misses L by {gap:.3g}")
        elif command == "spectrum":
            _vector(report["eigenvalues"], g.n, "eigenvalues")
        elif command == "sqrt":
            _require({"omega_residual", "h_residual"} <= set(report), "residuals missing")
            if dump:
                for name, op in report["operators"].items():
                    _require(np.shape(op) == (g.n, g.n, 2), f"operator {name} has wrong shape")
        elif command in ("simulate", "fundamental", "product-form"):
            _vector(report["final_state"], g.n, "final_state")
            _require("diverged_at" not in report, "wave run diverged")
        elif command == "doubled":
            _vector(report["final_branch_sum"], g.n, "final_branch_sum")
            _require({"theorem1_gap", "sparsity_match"} <= set(report), "keys missing")
        elif command == "centrality":
            # degree/2 law: each node's energy is half its out-degree
            degree = dict.fromkeys(g.labels(), 0.0)
            for s, _, w in g.edges:
                degree[str(s)] += w
            want = np.array([degree[lbl] / 2 for lbl in report["labels"]])
            got = np.asarray(report["per_node"])
            _require(got.shape == want.shape, "per_node has wrong length")
            _require(np.allclose(got, want, rtol=1e-8, atol=1e-10), "degree/2 law fails")
        elif command == "flaming":
            _require(report["growth_rate"] >= 0, "negative growth rate")
            if g.symmetrizable:
                _require(report["verdict"] == "stable", "symmetrizable graph flagged divergent")
        elif command == "verify":
            _require(isinstance(report, list) and len(report) == len(graphs), "wrong report count")
            names = [os.path.basename(x.path) for x in graphs]
            _require([r["input"] for r in report] == names, "reports out of order")
            for r in report:
                _require(set(RESIDUAL_BOUNDS) & set(r) == {
                    "eq19_residual", "eq22_residual", "eq26_residual", "theorem1_gap"
                }, "verify residuals missing")

    return check


# --------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Request:
    argv: tuple
    check: Callable[[str], None]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def label(self) -> str:
        """The argv with each input path cut to its file name."""
        return " ".join(os.path.basename(a) for a in self.argv)


def _request(command, graphs, tiny, extra_args=(), fmt="json", dump=False):
    argv = [command, "--input", *(g.path for g in graphs), *extra_args]
    steps = DEFAULT_STEPS
    if tiny:
        argv += ["--t-end", TINY_T_END]
        steps = round(float(TINY_T_END) / 1e-3)
    return Request(tuple(argv), check_for(command, graphs, steps, fmt, dump))


def _scale(n, tiny):
    return max(4, n // 25) if tiny else n


def build_propagate_small(rng, workdir, tiny=False):
    specs = [("oneway", 4), ("balanced", 12)]
    graphs, requests = [], []
    for k, (kind, n) in enumerate(specs):
        g = write_graph(workdir, f"ps{k}", rng, kind, n, extra=2 * n if kind == "oneway" else n // 2)
        graphs.append(g)
        for command in ("simulate", "fundamental", "product-form", "doubled"):
            requests.append(_request(command, [g], tiny))
    return graphs, requests


def build_spectral_large(rng, workdir, tiny=False):
    specs = [("oneway", 200), ("balanced", 250), ("oneway", 300), ("balanced", 300)]
    graphs, requests = [], []
    for k, (kind, n) in enumerate(specs):
        n = _scale(n, tiny)
        g = write_graph(workdir, f"sl{k}", rng, kind, n, extra=2 * n if kind == "oneway" else n // 2)
        graphs.append(g)
        for command in ("check", "spectrum", "sqrt", "centrality", "flaming"):
            if command == "centrality" and not g.symmetrizable:
                continue  # centrality is defined for symmetrizable graphs only
            requests.append(_request(command, [g], tiny))
    return graphs, requests


def build_verify_batch(rng, workdir, tiny=False):
    specs = [("oneway", 100), ("balanced", 150)]
    graphs = []
    for k, (kind, n) in enumerate(specs):
        n = _scale(n, tiny)
        extra = 2 * n if kind == "oneway" else n // 2
        graphs.append(write_graph(workdir, f"vb{k}", rng, kind, n, extra))
    requests = [_request("verify", graphs, tiny)]
    return graphs, requests


def build_ingest_export(rng, workdir, tiny=False):
    def graph(name, kind, n, messy=False, links_per_node=2):
        n = _scale(n, tiny)
        extra = links_per_node * n if kind == "oneway" else links_per_node * n // 2
        return write_graph(workdir, name, rng, kind, n, extra, messy)

    dec1 = graph("ie_dec1", "oneway", 300)
    dec2 = graph("ie_dec2", "balanced", 300)
    dump = graph("ie_dump", "oneway", 100)
    sim = graph("ie_sim", "balanced", 50)
    fun = graph("ie_fun", "oneway", 50)
    big1 = graph("ie_big1", "balanced", 12_000, messy=True)
    big2 = graph("ie_big2", "oneway", 20_000, messy=True, links_per_node=3)
    graphs = [dec1, dec2, dump, sim, fun, big1, big2]
    requests = [
        _request("decompose", [dec1], tiny),
        _request("decompose", [dec2], tiny),
        _request("sqrt", [dump], tiny, ["--dump-operators"], dump=True),
        _request("simulate", [sim], tiny, ["--format", "csv"], fmt="csv"),
        _request("fundamental", [fun], tiny, ["--format", "csv"], fmt="csv"),
        _request("check", [big1], tiny),
        _request("check", [big2], tiny),
    ]
    return graphs, requests


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "propagate-small",
            "n=4-12 through the four time integrators on the default grid: per-step "
            "Python dominates",
            build_propagate_small,
        ),
        Workload(
            "spectral-large",
            "n=200-300 through check/spectrum/sqrt/centrality/flaming: dense eigh, "
            "Schur and the sqrt recurrence dominate, no time stepping",
            build_spectral_large,
        ),
        Workload(
            "verify-batch",
            "pooled verify of two graphs, n=100 and 150: 2n x 2n stepping, RK4 "
            "reference, eq26 rebuilds and the thread pool",
            build_verify_batch,
        ),
        Workload(
            "ingest-export",
            "dense JSON and CSV output and 10^4-node messy edge lists: parse and "
            "serialization dominate",
            build_ingest_export,
        ),
    )
}
