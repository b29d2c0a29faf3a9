"""Principal matrix square roots and the operator bundle built from them.

The principal square root of a real matrix is real, and it is computed in
real arithmetic from one real Schur form with the zero eigenvalues sorted
last.  That form carries both precondition checks: no eigenvalue on the open
negative real axis, and a semisimple zero eigenvalue, which holds exactly when
the trailing Schur block vanishes.  The root of the nonsingular
quasi-triangular block is built recursively by halves, never splitting a 2x2
block, and each join is one Sylvester solve.  Both LAPACK routines, dgees for
the Schur form and dtrsyl for the joins, come from `_blas.schur` and
`_blas.trsyl`: numpy's own OpenBLAS where it exports them, scipy otherwise.
The result's spectrum lies in the closed right half-plane.  Input must be
real.  Bundles collect the mode-space operators (Lambda, Omega family) and
their node-space counterparts (H family) for one Laplacian split, all real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _blas
from .errors import DimensionMismatch, ModelViolation, NumericalFailure, SqrtUndefined
from .graph import WeightedDigraph
from .symmetry import (
    SpectralDecomposition, _conjugate, mode_interaction_matrix, spectral_decomposition,
)

ZERO_EIG_REL_TOL = 1e-10


def principal_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a real square matrix, returned as float64.

    One real Schur form T = Z^T A Z, zero eigenvalues sorted last, serves the
    checks and the root.  Requires no eigenvalue on the open negative real
    axis and semisimple zero eigenvalues; raises SqrtUndefined otherwise.  The
    root of the nonsingular block is built by halves joined by Sylvester
    solves.  Real input only: a nonzero imaginary part raises ModelViolation,
    a non-square shape DimensionMismatch, and a NaN or inf entry, or a norm
    beyond the float range, NumericalFailure.  Tolerances are relative to
    ||A||_F, taken at unit scale; the zero matrix is its own root.
    """
    mat = np.asarray(mat)
    if np.iscomplexobj(mat) and np.any(mat.imag):
        raise ModelViolation("principal_sqrt takes a real matrix")
    mat = np.asarray(np.real(mat), dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"principal_sqrt takes a square matrix, got {mat.shape}")
    n = mat.shape[0]
    scale = _unit_scale_norm(mat.copy())    # inf or nan where an entry is
    if not np.isfinite(scale):
        raise NumericalFailure("principal_sqrt takes a finite matrix with a finite norm")
    if scale == 0:
        return mat.copy()
    zero_tol = ZERO_EIG_REL_TOL * scale
    # zero eigenvalues sorted last: T = [[T11, T12], [0, T22]] with T11
    # (k x k) nonsingular and T22 carrying the zero cluster
    T, Z, k = _blas.schur(mat, zero_tol)

    eigs = _quasi_triangular_eigenvalues(T[:k, :k])
    negative = np.flatnonzero((eigs.real < 0) & (np.abs(eigs.imag) <= zero_tol))
    if negative.size:
        raise SqrtUndefined(eigs[negative[0]], "negative real eigenvalue")
    # rank(T) = rank(T11) + rank(T22): the zero eigenvalue is semisimple exactly
    # when T22 (zero on its diagonal to within zero_tol) vanishes off it; a tiny
    # complex pair there sits in a 2x2 block, so the subdiagonal counts too
    if k < n and np.abs(T[k:, k:] - np.diag(T.diagonal()[k:])).max() > 1e-12 * scale:
        raise SqrtUndefined(0.0, "defective zero eigenvalue")

    # U overwrites T, each block read before it is written; U22 = 0 roots the zero cluster
    T[k:, k:] = 0.0
    if k:
        _quasi_triangular_sqrt(T, T, 0, k)
        # U22 = 0, so the coupling U12 solves U11 U12 + U12 * 0 = T12
        if k < n:
            T[:k, k:] = _blas.trsyl(T[:k, :k], np.zeros((n - k, n - k)), T[:k, k:])
    ZU = Z @ T
    del T
    return ZU @ Z.T


def _quasi_triangular_eigenvalues(T: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real Schur form in standard form.

    Each 2x2 block [[theta, b], [c, theta]] (bc < 0) holds the pair
    theta +- i mu with mu = sqrt(-bc), taken as sqrt|b| sqrt|c|: the product
    bc would overflow or underflow where the block's entries do not.
    """
    eigs = np.diag(T).astype(complex)
    i = np.flatnonzero(np.diag(T, -1))
    mu = np.sqrt(np.abs(T[i, i + 1])) * np.sqrt(np.abs(T[i + 1, i]))
    eigs[i] += 1j * mu
    eigs[i + 1] -= 1j * mu
    return eigs


def _quasi_triangular_sqrt(T: np.ndarray, U: np.ndarray, lo: int, hi: int) -> None:
    """Write the principal root of T[lo:hi, lo:hi] into U[lo:hi, lo:hi].

    The block is split in halves, never through a 2x2 block; the two roots
    are joined by the Sylvester solve U11 X + X U22 = T12.
    """
    if hi - lo == 1:
        U[lo, lo] = np.sqrt(T[lo, lo])
        return
    if hi - lo == 2 and T[lo + 1, lo] != 0:
        # eigenvalues theta +- i mu; with alpha = Re sqrt(theta + i mu) the
        # root is alpha I + (T - theta I) / (2 alpha)
        block = T[lo:hi, lo:hi]
        theta = block[0, 0]
        mu = np.sqrt(abs(block[0, 1])) * np.sqrt(abs(block[1, 0]))  # as in the eigenvalues
        alpha = np.sqrt(complex(theta, mu)).real
        U[lo:hi, lo:hi] = alpha * np.eye(2) + (block - theta * np.eye(2)) / (2 * alpha)
        return
    mid = (lo + hi) // 2
    if T[mid, mid - 1] != 0:
        mid += 1
    _quasi_triangular_sqrt(T, U, lo, mid)
    _quasi_triangular_sqrt(T, U, mid, hi)
    U[lo:mid, mid:hi] = _blas.trsyl(U[lo:mid, lo:mid], U[mid:hi, mid:hi], T[lo:mid, mid:hi])


@dataclass(frozen=True)
class OperatorBundle:
    """Mode-space (Lambda/Omega) and node-space (H) operators of one split.

    Lambda, Omega and the eigensystem sd define it; the rest is derived on
    first read.  Omega squares to Lambda and H to the graph's Laplacian L; the
    interaction parts are differences (H_I is *not* a square root of L_I).
    """

    Lambda: np.ndarray
    Omega: np.ndarray
    sd: SpectralDecomposition

    @cached_property
    def omega0(self) -> np.ndarray:                # the root frequencies
        return np.sqrt(self.sd.eigenvalues.clip(min=0.0))

    @cached_property
    def Omega0(self) -> np.ndarray:
        return np.diag(self.omega0)

    @cached_property
    def OmegaI(self) -> np.ndarray:
        return self.Omega - self.Omega0

    def _to_nodes(self, op: np.ndarray) -> np.ndarray:
        """M^{-1/2} (P op P^T) M^{+1/2}; where m is all ones the scaling is skipped, which is
        bitwise the same."""
        out = _conjugate(op, self.sd, into_modes=False)
        m_sqrt = self.sd.m_sqrt
        if m_sqrt is not None:
            # row i times 1/m_sqrt[i] * m_sqrt, np.outer's row: the broadcast product would
            # take an n x n array and a buffer besides
            for inv, row in zip(1.0 / m_sqrt, out):
                row *= inv * m_sqrt
        return out

    @cached_property
    def H(self) -> np.ndarray:
        return self._to_nodes(self.Omega)

    @cached_property
    def H0(self) -> np.ndarray:
        return self._to_nodes(self.Omega0)

    @cached_property
    def HI(self) -> np.ndarray:
        return self.H - self.H0


def build_bundle(g: WeightedDigraph) -> OperatorBundle:
    """The Omega/H operator family of g: split and eigendecompose g, then
    Lambda = diag(lam) + Lambda_I and its principal root.  A symmetrizable g has
    Lambda_I = 0 and the diagonal Omega.  Otherwise the split (L0, L_I) goes once
    Lambda_I is formed, and Lambda is formed in Lambda_I's own buffer."""
    split, sd = spectral_decomposition(g)
    lam = sd.eigenvalues
    # ||S0||_F = ||lam||_2 since S0 = P diag(lam) P^T with P orthogonal
    if lam.min() < -ZERO_EIG_REL_TOL * _unit_scale_norm(lam.copy()):
        raise SqrtUndefined(lam.min(), "negative symmetrizable eigenvalue")
    lam = lam.clip(min=0.0)
    if split.is_pure_symmetrizable:
        return OperatorBundle(Lambda=np.diag(lam), Omega=np.diag(np.sqrt(lam)), sd=sd)
    Lambda = mode_interaction_matrix(split.LI, sd)
    del split
    # Lambda = diag(lam) + Lambda_I entry for entry: lam_i + Lambda_I[i, i] on the diagonal,
    # Lambda_I + 0.0 off it, which turns -0.0 into +0.0 as 0.0 + Lambda_I does
    diagonal = lam + Lambda.diagonal()
    Lambda += 0.0
    np.fill_diagonal(Lambda, diagonal)
    return OperatorBundle(Lambda=Lambda, Omega=principal_sqrt(Lambda), sd=sd)


def _unit_scale_norm(X: np.ndarray) -> float:
    """||X||_F (||X||_2 of a vector) as max|X| ||X / max|X|||_F: the plain norm squares
    entries, which overflows above 1e154 and underflows below 1e-154.  X is scaled in
    place."""
    peak = abs(float(np.maximum(-X.min(initial=0.0), X.max(initial=0.0))))  # max|X|, no |X|
    if not 0 < peak < np.inf:
        return peak  # 0, inf or nan: the norm itself
    X /= peak
    return float(peak * np.linalg.norm(X))


def _relative_residual(root: np.ndarray, target: np.ndarray) -> float:
    """||root^2 - target||_F / ||target||_F, both norms at unit scale; the plain
    norm when target = 0.  One n x n buffer holds the difference, then target."""
    X = root @ root
    X -= target
    num = _unit_scale_norm(X)
    X[...] = target
    return num / (_unit_scale_norm(X) or 1.0)


def sqrt_residual(bundle: OperatorBundle) -> float:
    """Relative Frobenius residual of Omega^2 = Lambda."""
    return _relative_residual(bundle.Omega, bundle.Lambda)


def node_sqrt_residual(bundle: OperatorBundle, L: np.ndarray) -> float:
    """Relative Frobenius residual of H^2 = L, for the graph's own Laplacian L."""
    return _relative_residual(bundle.H, L)
