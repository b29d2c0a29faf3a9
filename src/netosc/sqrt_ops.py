"""Principal matrix square roots and the operator bundle built from them.

The principal square root of a real matrix is real, and it is computed in
real arithmetic from one real Schur form with the zero eigenvalues sorted
last.  That form carries both precondition checks: no eigenvalue on the open
negative real axis, and a semisimple zero eigenvalue, which holds exactly when
the trailing Schur block vanishes.  The root of the nonsingular
quasi-triangular block is built recursively by halves, never splitting a 2x2
block, and each join is one Sylvester solve.  The result's spectrum lies in
the closed right half-plane.  Input must be real.  Bundles collect the
mode-space operators (Lambda, Omega family) and their node-space counterparts
(H family) for one Laplacian split, all real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _blas
from .errors import DimensionMismatch, ModelViolation, NumericalFailure, SqrtUndefined
from .symmetry import SpectralDecomposition

ZERO_EIG_REL_TOL = 1e-10


def principal_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a real square matrix, returned as float64.

    One real Schur form T = Z^T A Z, zero eigenvalues sorted last, serves the
    checks and the root.  Requires no eigenvalue on the open negative real
    axis and semisimple zero eigenvalues; raises SqrtUndefined otherwise.  The
    root of the nonsingular block is built by halves joined by Sylvester
    solves.  Real input only: a nonzero imaginary part raises ModelViolation,
    and a non-square shape DimensionMismatch.  Tolerances are relative to
    ||A||_F; the zero matrix is its own root.
    """
    mat = np.asarray(mat)
    if np.iscomplexobj(mat) and np.any(mat.imag):
        raise ModelViolation("principal_sqrt takes a real matrix")
    mat = np.asarray(np.real(mat), dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"principal_sqrt takes a square matrix, got {mat.shape}")
    n = mat.shape[0]
    scale = np.linalg.norm(mat, "fro")
    if scale == 0:
        return mat.copy()
    zero_tol = ZERO_EIG_REL_TOL * scale
    linalg = _blas.linalg()
    try:
        # zero eigenvalues sorted last: T = [[T11, T12], [0, T22]] with T11
        # (k x k) nonsingular and T22 carrying the zero cluster
        T, Z, k = linalg.schur(
            mat, output="real", sort=lambda re, im: abs(complex(re, im)) > zero_tol
        )
    except (linalg.LinAlgError, ValueError) as exc:
        raise NumericalFailure(f"Schur decomposition failed: {exc}") from exc

    eigs = _quasi_triangular_eigenvalues(T[:k, :k])
    negative = np.flatnonzero((eigs.real < 0) & (np.abs(eigs.imag) <= zero_tol))
    if negative.size:
        raise SqrtUndefined(eigs[negative[0]], "negative real eigenvalue")
    # rank(T) = rank(T11) + rank(T22): the zero eigenvalue is semisimple exactly
    # when T22 (zero on its diagonal to within zero_tol) vanishes off it; a tiny
    # complex pair there sits in a 2x2 block, so the subdiagonal counts too
    T22 = T[k:, k:]
    if k < n and np.abs(T22 - np.diag(np.diag(T22))).max() > 1e-12 * scale:
        raise SqrtUndefined(0.0, "defective zero eigenvalue")

    U = np.zeros_like(T)
    if k:
        _quasi_triangular_sqrt(T, U, 0, k)
        # U22 = 0, so the coupling U12 solves U11 U12 + U12 * 0 = T12
        if k < n:
            U[:k, k:] = _sylvester(U[:k, :k], np.zeros((n - k, n - k)), T[:k, k:])
    return Z @ U @ Z.T


def _quasi_triangular_eigenvalues(T: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real Schur form in standard form.

    Each 2x2 block [[theta, b], [c, theta]] (bc < 0) holds the pair
    theta +- i mu with mu = sqrt(-bc).
    """
    eigs = np.diag(T).astype(complex)
    i = np.flatnonzero(np.diag(T, -1))
    mu = np.sqrt(-T[i, i + 1] * T[i + 1, i])
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
        alpha = np.sqrt(complex(theta, np.sqrt(-block[0, 1] * block[1, 0]))).real
        U[lo:hi, lo:hi] = alpha * np.eye(2) + (block - theta * np.eye(2)) / (2 * alpha)
        return
    mid = (lo + hi) // 2
    if T[mid, mid - 1] != 0:
        mid += 1
    _quasi_triangular_sqrt(T, U, lo, mid)
    _quasi_triangular_sqrt(T, U, mid, hi)
    U[lo:mid, mid:hi] = _sylvester(U[lo:mid, lo:mid], U[mid:hi, mid:hi], T[lo:mid, mid:hi])


def _sylvester(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve A X + X B = C for upper quasi-triangular A and B."""
    X, scale, info = _blas.linalg().lapack.dtrsyl(A, B, C)
    if info != 0:
        raise NumericalFailure(f"Sylvester solve failed (dtrsyl info {info})")
    return X / scale


@dataclass(frozen=True)
class OperatorBundle:
    """Mode-space (Lambda/Omega) and node-space (H) operators of one split.

    Lambda, Omega and the eigensystem sd define it; the rest is derived on
    first read.  Omega squares to Lambda and H squares to L; the interaction
    parts are differences (H_I is *not* a square root of L_I).
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
        """M^{-1/2} (P op P^T) M^{+1/2}."""
        m_sqrt = np.sqrt(self.sd.m)
        return (self.sd.P @ op @ self.sd.P.T) * np.outer(1.0 / m_sqrt, m_sqrt)

    @cached_property
    def H(self) -> np.ndarray:
        return self._to_nodes(self.Omega)

    @cached_property
    def H0(self) -> np.ndarray:
        return self._to_nodes(self.Omega0)

    @cached_property
    def HI(self) -> np.ndarray:
        return self.H - self.H0

    @cached_property
    def L(self) -> np.ndarray:
        return self._to_nodes(self.Lambda)


def build_bundle(sd: SpectralDecomposition, LambdaI: np.ndarray) -> OperatorBundle:
    """Assemble the Omega/H operator family from an eigensystem and Lambda_I."""
    lam = sd.eigenvalues
    # ||S0||_F = ||lam||_2 since S0 = P diag(lam) P^T with P orthogonal
    if lam.min() < -ZERO_EIG_REL_TOL * np.linalg.norm(lam):
        raise SqrtUndefined(lam.min(), "negative symmetrizable eigenvalue")
    LambdaI = np.asarray(LambdaI)
    Lambda = np.diag(lam.clip(min=0.0)) + LambdaI
    Omega = principal_sqrt(Lambda) if np.any(LambdaI) else np.diag(np.sqrt(lam.clip(min=0.0)))
    return OperatorBundle(Lambda=Lambda, Omega=Omega, sd=sd)


def _relative_residual(root: np.ndarray, target: np.ndarray) -> float:
    """||root^2 - target||_F / ||target||_F, the plain norm when target = 0."""
    return np.linalg.norm(root @ root - target, "fro") / (np.linalg.norm(target, "fro") or 1.0)


def sqrt_residual(bundle: OperatorBundle) -> float:
    """Relative Frobenius residual of Omega^2 = Lambda."""
    return _relative_residual(bundle.Omega, bundle.Lambda)


def node_sqrt_residual(bundle: OperatorBundle) -> float:
    """Relative Frobenius residual of H^2 = L."""
    return _relative_residual(bundle.H, bundle.L)
