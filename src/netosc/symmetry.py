"""Symmetrizability detection, Laplacian decomposition, and mode coordinates.

A digraph is symmetrizable when positive node weights m exist with
m_i w_ij = m_j w_ji on every linked pair; then M^{1/2} L M^{-1/2} is a
symmetric matrix sharing the Laplacian spectrum.  Non-symmetrizable graphs
are split into a symmetrizable part plus a one-way-link remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSymmetrizable, NumericalFailure
from .graph import WeightedDigraph, build_matrices

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of the symmetrized form S0 = M^{1/2} L0 M^{-1/2}."""

    eigenvalues: np.ndarray      # ascending, eigenvalues[0] ~ 0
    P: np.ndarray                # orthogonal, columns are eigenvectors
    m: np.ndarray                # symmetrizing node weights


@dataclass(frozen=True)
class LaplacianSplit:
    """L = L0 + LI with L0 symmetrizable (under m) and LI one-way."""

    L0: np.ndarray
    LI: np.ndarray
    m: np.ndarray

    @property
    def is_pure_symmetrizable(self) -> bool:
        return not np.any(self.LI)


def check_symmetrizable(g: WeightedDigraph) -> np.ndarray:
    """Symmetrizing weights m, normalized to min(m) = 1, or raise NotSymmetrizable.

    m is propagated over a spanning forest of the reciprocal-link structure
    (root weight 1), then every edge is checked for the detailed-balance
    residual |m_i w_ij - m_j w_ji| <= DEFAULT_TOL * max(m_i w_ij, m_j w_ji).
    That bounds |S0_ij - S0_ji| by DEFAULT_TOL * max|S0|, the test symmetrize
    applies.  A propagated m that is non-finite or below the smallest normal float
    (too few bits for that test), or an m that leaves the float range when
    normalized, raises NumericalFailure.
    """
    src, dst, w = g.edge_arrays
    # each edge's reverse link, by a sorted-key lookup
    keys, reverse_keys = src * g.n + dst, dst * g.n + src
    order = np.argsort(keys)
    rev = order[np.searchsorted(keys, reverse_keys, sorter=order).clip(max=len(keys) - 1)]
    one_way = np.flatnonzero(keys[rev] != reverse_keys)
    if len(one_way):
        e = one_way[0]
        raise NotSymmetrizable("one_way_edge", edge=(g.labels[src[e]], g.labels[dst[e]]))
    w_rev = w[rev]
    # each node's out-links in edge order, as plain lists for the traversal
    by_src = np.argsort(src, kind="stable")
    start = np.searchsorted(src[by_src], np.arange(g.n + 1)).tolist()
    adj, w_out, w_in = dst[by_src].tolist(), w[by_src].tolist(), w_rev[by_src].tolist()
    m = [None] * g.n
    for root in range(g.n):
        if m[root] is None:
            m[root], stack = 1.0, [root]
            while stack:
                i = stack.pop()
                for k in range(start[i], start[i + 1]):
                    if m[adj[k]] is None:
                        # detailed balance forces m_j = m_i w_ij / w_ji; floats overflow to inf
                        m[adj[k]] = m[i] * w_out[k] / w_in[k]
                        stack.append(adj[k])
    m = np.array(m)
    if not np.all((m >= np.finfo(float).tiny) & (m < np.inf)):
        raise NumericalFailure("symmetrizing weights m fall outside the float range")
    with np.errstate(all="ignore"):
        lhs, rhs = m[src] * w, m[dst] * w_rev
        bad = np.flatnonzero(np.abs(lhs - rhs) > DEFAULT_TOL * np.maximum(lhs, rhs))
        if len(bad):
            e = bad[0]
            raise NotSymmetrizable("cycle_inconsistent", edge=(g.labels[src[e]], g.labels[dst[e]]))
        m /= m.min()
    if not np.all(np.isfinite(m)):
        raise NumericalFailure("symmetrizing weights m fall outside the float range")
    return m


def decompose_laplacian(g: WeightedDigraph) -> LaplacianSplit:
    """Split L into a symmetrizable part L0 and a one-way remainder LI.

    Symmetrizable input keeps L whole (LI = 0).  Otherwise m is fixed to 1
    and each linked pair contributes min(w_ij, w_ji) symmetrically to L0;
    the residual weight goes one-way into LI, so LI = L - L0 entrywise.
    """
    A, _, L = build_matrices(g)
    try:
        return LaplacianSplit(L0=L, LI=np.zeros_like(L), m=check_symmetrizable(g))
    except NotSymmetrizable:
        pass
    A0 = np.minimum(A, A.T)
    L0 = np.diag(A0.sum(axis=1)) - A0
    return LaplacianSplit(L0=L0, LI=L - L0, m=np.ones(g.n))


def _fix_signs(P: np.ndarray) -> np.ndarray:
    """Deterministic sign: largest-magnitude component of each column positive."""
    top = P[np.argmax(np.abs(P), axis=0), np.arange(P.shape[1])]
    return P * np.where(top < 0, -1.0, 1.0)


def _similarity(X: np.ndarray, m: np.ndarray) -> np.ndarray:
    """M^{1/2} X M^{-1/2}, row scaling first, as broadcast products."""
    m_sqrt = np.sqrt(m)
    return (m_sqrt[:, None] * X) * (1.0 / m_sqrt)


def _eigen(L0: np.ndarray, m: np.ndarray, vectors: bool):
    """eigh (vectors) or eigvalsh of S0 = M^{1/2} L0 M^{-1/2}, symmetric by construction:
    an asymmetry above DEFAULT_TOL * max|S0| raises NumericalFailure."""
    S0 = _similarity(L0, m)
    asym = np.abs(S0 - S0.T).max()
    if asym > DEFAULT_TOL * np.abs(S0).max():
        raise NumericalFailure(f"symmetrized form is not symmetric (residual {asym:.3e})")
    try:
        return (np.linalg.eigh if vectors else np.linalg.eigvalsh)(0.5 * (S0 + S0.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc


def symmetrize(L0: np.ndarray, m: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose S0 = M^{1/2} L0 M^{-1/2} (see _eigen)."""
    n = L0.shape[0]
    if not np.any(L0):
        # empty symmetrizable part: any orthonormal basis works, pick identity
        return SpectralDecomposition(eigenvalues=np.zeros(n), P=np.eye(n), m=m)
    lam, P = _eigen(L0, m, vectors=True)
    return SpectralDecomposition(eigenvalues=lam, P=_fix_signs(P), m=m)


def symmetrized_eigenvalues(L0: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of S0 alone, as symmetrize's but without eigenvectors."""
    return _eigen(L0, m, vectors=False) if np.any(L0) else np.zeros(L0.shape[0])


def spectral_decomposition(g: WeightedDigraph):
    """Convenience: split the graph and eigendecompose its symmetrizable part."""
    split = decompose_laplacian(g)
    return split, symmetrize(split.L0, split.m)


def to_modes(x: np.ndarray, sd: SpectralDecomposition) -> np.ndarray:
    """Node coordinates -> mode coordinates, psi = P^T M^{1/2} x."""
    x = np.asarray(x)
    if x.shape != (sd.P.shape[0],):
        raise DimensionMismatch(f"state length {x.shape} vs n={sd.P.shape[0]}")
    return sd.P.T @ (np.sqrt(sd.m) * x)


def mode_interaction_matrix(LI: np.ndarray, sd: SpectralDecomposition) -> np.ndarray:
    """Lambda_I = P^T (M^{1/2} L_I M^{-1/2}) P; exact zeros when L_I is zero."""
    if LI.shape != sd.P.shape:
        raise DimensionMismatch(f"LI shape {LI.shape} vs {sd.P.shape}")
    if not np.any(LI):
        return np.zeros(LI.shape)
    return sd.P.T @ _similarity(LI, sd.m) @ sd.P
