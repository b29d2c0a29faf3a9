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


def _reciprocal_weight_table(g: WeightedDigraph) -> dict[tuple[int, int], float]:
    return {(s, d): w for s, d, w in g.edges}


def check_symmetrizable(g: WeightedDigraph) -> np.ndarray:
    """Symmetrizing weights m, normalized to min(m) = 1, or raise NotSymmetrizable.

    m is propagated over a spanning forest of the reciprocal-link structure
    (root weight 1), then every edge is checked for the detailed-balance
    residual |m_i w_ij - m_j w_ji| <= DEFAULT_TOL * max(m_i w_ij, m_j w_ji).
    That bounds |S0_ij - S0_ji| by DEFAULT_TOL * max|S0|, the test symmetrize
    applies.  An m outside the float range raises NumericalFailure.
    """
    w = _reciprocal_weight_table(g)
    for (s, d), _ in w.items():
        if (d, s) not in w:
            raise NotSymmetrizable("one_way_edge", edge=(g.labels[s], g.labels[d]))

    adj: list[list[int]] = [[] for _ in range(g.n)]
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
                        # detailed balance forces m_j = m_i w_ij / w_ji
                        m[j] = m[i] * w[(i, j)] / w[(j, i)]
                        stack.append(j)

        for (i, j), wij in w.items():
            lhs, rhs = m[i] * wij, m[j] * w[(j, i)]
            if abs(lhs - rhs) > DEFAULT_TOL * max(lhs, rhs):
                raise NotSymmetrizable("cycle_inconsistent", edge=(g.labels[i], g.labels[j]))

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
    _, _, L = build_matrices(g)
    try:
        return LaplacianSplit(L0=L, LI=np.zeros_like(L), m=check_symmetrizable(g))
    except NotSymmetrizable:
        pass

    w = _reciprocal_weight_table(g)
    A0 = np.zeros((g.n, g.n))
    for (s, d), wij in w.items():
        wji = w.get((d, s), 0.0)
        A0[s, d] = min(wij, wji)
    L0 = np.diag(A0.sum(axis=1)) - A0
    return LaplacianSplit(L0=L0, LI=L - L0, m=np.ones(g.n))


def _fix_signs(P: np.ndarray) -> np.ndarray:
    """Deterministic sign: largest-magnitude component of each column positive."""
    P = P.copy()
    for k in range(P.shape[1]):
        i = np.argmax(np.abs(P[:, k]))
        if P[i, k] < 0:
            P[:, k] = -P[:, k]
    return P


def _similarity(X: np.ndarray, m: np.ndarray) -> np.ndarray:
    """M^{1/2} X M^{-1/2}, row scaling first, as broadcast products."""
    m_sqrt = np.sqrt(m)
    return (m_sqrt[:, None] * X) * (1.0 / m_sqrt)


def symmetrize(L0: np.ndarray, m: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose S0 = M^{1/2} L0 M^{-1/2} (symmetric by construction).

    An asymmetry above DEFAULT_TOL * max|S0| raises NumericalFailure.
    """
    n = L0.shape[0]
    if not np.any(L0):
        # empty symmetrizable part: any orthonormal basis works, pick identity
        return SpectralDecomposition(eigenvalues=np.zeros(n), P=np.eye(n), m=m)
    S0 = _similarity(L0, m)
    asym = np.abs(S0 - S0.T).max()
    if asym > DEFAULT_TOL * np.abs(S0).max():
        raise NumericalFailure(f"symmetrized form is not symmetric (residual {asym:.3e})")
    S0 = 0.5 * (S0 + S0.T)
    try:
        lam, P = np.linalg.eigh(S0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    return SpectralDecomposition(eigenvalues=lam, P=_fix_signs(P), m=m)


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


def from_modes(psi: np.ndarray, sd: SpectralDecomposition) -> np.ndarray:
    """Mode coordinates -> node coordinates, x = M^{-1/2} P psi."""
    psi = np.asarray(psi)
    if psi.shape != (sd.P.shape[0],):
        raise DimensionMismatch(f"mode length {psi.shape} vs n={sd.P.shape[0]}")
    return (sd.P @ psi) / np.sqrt(sd.m)


def mode_interaction_matrix(LI: np.ndarray, sd: SpectralDecomposition) -> np.ndarray:
    """Lambda_I = P^T (M^{1/2} L_I M^{-1/2}) P."""
    if LI.shape != sd.P.shape:
        raise DimensionMismatch(f"LI shape {LI.shape} vs {sd.P.shape}")
    return sd.P.T @ _similarity(LI, sd.m) @ sd.P
