"""Shared fixtures and random-graph generators for the test suite."""

import math
import tracemalloc
from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from netosc import from_edges
from netosc.errors import (
    DuplicateEdge, EmptyGraph, NonPositiveWeight, NotSymmetrizable, NumericalFailure, ParseError,
    SelfLoop,
)
from netosc.graph import WeightedDigraph, build_matrices
from netosc.symmetry import DEFAULT_TOL

# property tests draw the same examples on every run and keep tier-1 fast
settings.register_profile("netosc", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("netosc")


def ring3():
    return from_edges([("1", "2"), ("2", "3"), ("3", "1")])


def path3():
    return from_edges([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])


def path5():
    e = []
    for i in range(4):
        e += [(str(i), str(i + 1)), (str(i + 1), str(i))]
    return from_edges(e)


def star4():
    e = []
    for leaf in ("l1", "l2", "l3"):
        e += [("c", leaf), (leaf, "c")]
    return from_edges(e)


def k3():
    e = []
    for i in range(3):
        for j in range(3):
            if i != j:
                e.append((str(i), str(j)))
    return from_edges(e)


def sym2():
    return from_edges([("a", "b", 1.0), ("b", "a", 1.0)])


def random_digraph(rng, n, extra=None, weighted=True):
    """Strongly connected digraph: directed ring plus random extra edges."""
    if extra is None:
        extra = rng.integers(0, 2 * n)
    edges = {(i, (i + 1) % n) for i in range(n)}
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((int(i), int(j)))
    weight = (lambda: float(rng.uniform(0.5, 2.0))) if weighted else (lambda: 1.0)
    return from_edges([(str(i), str(j), weight()) for i, j in sorted(edges)])


def random_undirected_skeleton(rng, n, extra=None):
    """Connected undirected pair set: random spanning tree plus extras."""
    if extra is None:
        extra = int(rng.integers(0, n))
    pairs = set()
    order = rng.permutation(n)
    for k in range(1, n):
        i = int(order[k])
        j = int(order[rng.integers(0, k)])
        pairs.add((min(i, j), max(i, j)))
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            pairs.add((min(int(i), int(j)), max(int(i), int(j))))
    return sorted(pairs)


def random_detailed_balance_graph(rng, n, return_m=False):
    """Symmetrizable digraph built from node weights m and symmetric base weights."""
    m = rng.uniform(0.5, 2.0, size=n)
    edges = []
    for i, j in random_undirected_skeleton(rng, n):
        b = float(rng.uniform(0.5, 2.0))
        edges.append((str(i), str(j), b / m[i]))
        edges.append((str(j), str(i), b / m[j]))
    g = from_edges(edges)
    # from_edges assigns indices by first appearance; remap m accordingly
    m_by_label = np.array([m[int(lbl)] for lbl in g.labels])
    if return_m:
        return g, m_by_label / m_by_label.min()
    return g


def random_symmetric_graph(rng, n, weighted=False):
    """Connected graph with reciprocal equal weights (m identically 1)."""
    edges = []
    for i, j in random_undirected_skeleton(rng, n):
        w = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
        edges.append((str(i), str(j), w))
        edges.append((str(j), str(i), w))
    return from_edges(edges)


def build_loops(rows):
    """Row-by-row validator of (line_no, raw, fields) rows, the oracle of the column
    checks in graph._build: the same graph, or the same error class and message.

    fields is (src, dst) or (src, dst, weight); labels become strings, and a
    weight is anything float() accepts.  raw is what a ParseError quotes.
    """
    index: dict[str, int] = {}
    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw, fields in rows:
        is_row = isinstance(fields, Sequence) and not isinstance(fields, (str, bytes))
        if not is_row or len(fields) not in (2, 3):
            raise ParseError(line_no, raw)
        src_label, dst_label = str(fields[0]), str(fields[1])
        try:
            w = float(fields[2]) if len(fields) == 3 else 1.0
        except (TypeError, ValueError):
            raise ParseError(line_no, raw) from None
        if src_label == dst_label:
            raise SelfLoop(src_label)
        if not 0 < w < math.inf:
            raise NonPositiveWeight(line_no, w)
        src = index.setdefault(src_label, len(index))
        dst = index.setdefault(dst_label, len(index))
        if (src, dst) in seen:
            raise DuplicateEdge(src_label, dst_label)
        seen.add((src, dst))
        edges.append((src, dst, w))
    if not edges:
        raise EmptyGraph()
    return WeightedDigraph(n=len(index), edges=tuple(edges), labels=tuple(index))


def from_edges_loops(labeled_edges):
    """graph.from_edges through build_loops: the k-th tuple is line k."""
    return build_loops((k, e, e) for k, e in enumerate(labeled_edges, start=1))


def parse_edge_list_loops(text):
    """graph.parse_edge_list line by line through build_loops."""

    def rows():
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                parts = [p.strip() for p in line.replace("\t", ",").split(",")]
                yield line_no, raw, [p for p in parts if p]

    return build_loops(rows())


def check_symmetrizable_loops(g):
    """Per-edge dict-and-loop symmetrizability check, the oracle of the array scan in
    symmetry.check_symmetrizable: the same m bit for bit, or the same error and edge."""
    w = {(s, d): wt for s, d, wt in g.edges}
    for s, d in w:
        if (d, s) not in w:
            raise NotSymmetrizable("one_way_edge", edge=(g.labels[s], g.labels[d]))
    adj = [[] for _ in range(g.n)]
    for s, d, _ in g.edges:
        adj[s].append(d)
    m = np.full(g.n, np.nan)
    with np.errstate(all="ignore"):
        for root in range(g.n):
            if not np.isnan(m[root]):
                continue
            m[root] = 1.0
            stack = [root]
            while stack:
                i = stack.pop()
                for j in adj[i]:
                    if np.isnan(m[j]):
                        m[j] = m[i] * w[(i, j)] / w[(j, i)]
                        stack.append(j)
        if not all(np.finfo(float).tiny <= mi < np.inf for mi in m):
            raise NumericalFailure("symmetrizing weights m fall outside the float range")
        for (i, j), wij in w.items():
            lhs, rhs = m[i] * wij, m[j] * w[(j, i)]
            if abs(lhs - rhs) > DEFAULT_TOL * max(lhs, rhs):
                raise NotSymmetrizable("cycle_inconsistent", edge=(g.labels[i], g.labels[j]))
        m /= m.min()
    if not np.all(np.isfinite(m)):
        raise NumericalFailure("symmetrizing weights m fall outside the float range")
    return m


def build_matrices_dense(g):
    """The dense (A, D, L) construction, the oracle of the scatter in graph.link_laplacian:
    A filled edge by edge, d = A.sum(axis=1), L = D - A."""
    A = np.zeros((g.n, g.n))
    for s, d, w in g.edges:
        A[s, d] = w
    with np.errstate(over="ignore"):
        D = np.diag(A.sum(axis=1))
    return A, D, D - A


def decompose_laplacian_loops(g):
    """symmetry.decompose_laplacian as dense matrices, the reciprocal part built edge by
    edge: a namespace of L0, LI and m."""
    _, _, L = build_matrices_dense(g)
    try:
        return SimpleNamespace(L0=L, LI=np.zeros_like(L), m=check_symmetrizable_loops(g))
    except NotSymmetrizable:
        pass
    w = {(s, d): wt for s, d, wt in g.edges}
    A0 = np.zeros((g.n, g.n))
    for (s, d), wij in w.items():
        A0[s, d] = min(wij, w.get((d, s), 0.0))
    L0 = np.diag(A0.sum(axis=1)) - A0
    return SimpleNamespace(L0=L0, LI=L - L0, m=np.ones(g.n))


def symmetric_form_dense(L0, m):
    """0.5 (S0 + S0^T) with S0 = M^{1/2} L0 M^{-1/2} formed as n x n products, the oracle
    of LaplacianSplit.symmetric_form."""
    m_sqrt = np.sqrt(m)
    S0 = (m_sqrt[:, None] * L0) * (1.0 / m_sqrt)
    return 0.5 * (S0 + S0.T)


def fix_signs_loops(P):
    """Column by column: the largest-magnitude component of each column made positive."""
    P = P.copy()
    for k in range(P.shape[1]):
        i = np.argmax(np.abs(P[:, k]))
        if P[i, k] < 0:
            P[:, k] = -P[:, k]
    return P


def kron_laplacian(L):
    """L_hat = L (x) E, block (i, j) equal to L[i, j] I2."""
    return np.kron(np.asarray(L), np.eye(2))


def extract_plus(x_hat):
    return x_hat[0::2]


def extract_minus(x_hat):
    return x_hat[1::2]


def to_edge_list(g):
    """Canonical edge-list text of a graph: sorted by dense (src, dst) index."""
    lines = [f"{g.labels[s]},{g.labels[d]},{w:.12g}" for s, d, w in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def symmetrized_form(L0, m):
    """S0 = M^{1/2} L0 M^{-1/2}, from its definition."""
    m_sqrt = np.sqrt(m)
    return m_sqrt[:, None] * L0 / m_sqrt


def second_order_residual(traj, Lambda):
    """Max relative centered-difference residual of psi'' = -Lambda psi (>= 3 rows).

    Its floor is the O(dt^2) truncation error, so it is a loose trajectory oracle:
    dynamics.recurrence_residual is the exact check.
    """
    psi, dt = traj.states, traj.times[1] - traj.times[0]
    acc = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / dt**2
    forcing = psi[1:-1] @ np.asarray(Lambda).T
    num = np.linalg.norm(acc + forcing, axis=1)
    return float((num / np.maximum(1.0, np.linalg.norm(forcing, axis=1))).max())


def recurrence_bound(K, dt):
    """Rounding scale of dynamics.recurrence_residual: 16 eps sqrt(n) / (dt^2 ||K||_F).

    P(S + S^-1) is close to 2 [I 0], of Frobenius norm 2 sqrt(n), so rounding alone
    leaves ||R||_F of order eps sqrt(n); on random graphs with n up to 60 and dt from
    1e-4 to 0.1 it measured at most 2.2 eps sqrt(n).
    """
    K = np.asarray(K)
    return 16 * np.finfo(float).eps * np.sqrt(len(K)) / (dt**2 * np.linalg.norm(K))


def theorem1_bound(n):
    """Rounding scale of doubled.theorem1_residual: 16 eps sqrt(n).

    S T and T E are two computed exponentials of similar generators, so rounding alone
    leaves a relative gap of order eps sqrt(n).  With both built by dynamics.offdiag_expm
    it measured at most 1.08 eps sqrt(n) on 160 random graphs with n up to 150 at each dt
    from 1e-4 to 1.5, 1.38 eps sqrt(n) on 50 balanced 4-node graphs at dt = 1.5 and 1.73
    eps sqrt(n) on 3000 graphs with n from 2 to 6 there.  The squarings at dt = 1.5 leave
    the floor flat because offdiag_expm carries expm - I apart from I; scipy's expm, which
    squares the whole step, reads up to 45.7 eps sqrt(n) on balanced 4-node graphs.
    """
    return 16 * np.finfo(float).eps * np.sqrt(n)


def first_order_residual(traj, Omega, sign="+"):
    """Max relative centered-difference residual of +-i psi' = Omega psi."""
    Omega = np.asarray(Omega, dtype=complex)
    psi = traj.states
    pm = 1j if sign == "+" else -1j
    deriv = (psi[2:] - psi[:-2]) / (2 * (traj.times[1] - traj.times[0]))
    forcing = psi[1:-1] @ Omega.T
    num = np.linalg.norm(pm * deriv - forcing, axis=1)
    den = np.maximum(1.0, np.linalg.norm(forcing, axis=1))
    return float((num / den).max())


def null_weight_cross_check(g):
    """Independent m estimate: left null vector of L, rescaled to min 1."""
    _, _, L = build_matrices(g)
    _, _, vh = np.linalg.svd(L.T)
    m = vh[-1]
    if m.sum() < 0:
        m = -m
    return m / m.min()


def square_bytes(n):
    """Bytes of one n x n float64 array, the unit of the working-set bounds."""
    return 8 * n * n


def traced_peak(call):
    """tracemalloc's peak in bytes over one call of `call`, after an untraced warm-up call
    (imports, cached graph arrays, scipy).  It sees what numpy and Python allocate, not
    LAPACK's own workspace: dsyevd, for one, takes about 2 n^2 float64 on its own."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
