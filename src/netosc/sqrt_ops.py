"""Principal matrix square roots and the operator bundle built from them.

The principal square root is computed from the complex Schur form with the
zero eigenvalues sorted last: column-wise triangular solves give the root, and
the zero eigenvalue is semisimple exactly when the trailing Schur block
vanishes.  The result's spectrum lies in the closed right half-plane.  Bundles
collect the mode-space operators (Lambda, Omega family) and their node-space
counterparts (H family) for one Laplacian split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalFailure, SqrtUndefined
from .symmetry import SpectralDecomposition

ZERO_EIG_REL_TOL = 1e-10


def principal_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a square matrix.

    Requires no eigenvalue on the open negative real axis and semisimple
    zero eigenvalues; raises SqrtUndefined otherwise.
    """
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    if n == 0:
        return mat.copy()
    scale = max(1.0, np.linalg.norm(mat, "fro"))
    zero_tol = ZERO_EIG_REL_TOL * scale
    try:
        # zero eigenvalues sorted last: T = [[T11, T12], [0, T22]] with T11
        # (k x k) nonsingular and T22 carrying the zero cluster
        T, Z, k = scipy.linalg.schur(
            mat, output="complex", sort=lambda lam: abs(lam) > zero_tol
        )
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalFailure(f"Schur decomposition failed: {exc}") from exc

    eigs = np.diag(T)[:k]
    negative = np.flatnonzero((eigs.real < 0) & (np.abs(eigs.imag) <= zero_tol))
    if negative.size:
        raise SqrtUndefined(eigs[negative[0]], "negative real eigenvalue")
    # rank(T) = rank(T11) + rank(T22): the zero eigenvalue is semisimple exactly
    # when T22 (zero on its diagonal to within zero_tol) vanishes above it
    if k < n and np.abs(np.triu(T[k:, k:], 1)).max() > 1e-12 * scale:
        raise SqrtUndefined(0.0, "defective zero eigenvalue")

    # U22 = 0; column j of U11 solves (U[:j,:j] + U[j,j] I) U[:j,j] = T[:j,j],
    # and U12 solves U11 U12 = T12
    U = np.zeros_like(T)
    U[range(k), range(k)] = np.sqrt(eigs)
    for j in range(1, k):
        A = U[:j, :j].copy()
        A.flat[:: j + 1] += U[j, j]
        U[:j, j] = scipy.linalg.solve_triangular(A, T[:j, j], check_finite=False)
    if 0 < k < n:
        U[:k, k:] = scipy.linalg.solve_triangular(U[:k, :k], T[:k, k:], check_finite=False)
    return Z @ U @ Z.conj().T


@dataclass(frozen=True)
class OperatorBundle:
    """Mode-space (Lambda/Omega) and node-space (H) operators of one split.

    Omega squares to Lambda and H squares to L; the interaction parts are
    differences by construction (H_I is *not* a square root of L_I).
    """

    Lambda: np.ndarray
    Lambda0: np.ndarray
    LambdaI: np.ndarray
    Omega: np.ndarray
    Omega0: np.ndarray
    OmegaI: np.ndarray
    H: np.ndarray
    H0: np.ndarray
    HI: np.ndarray
    L: np.ndarray


def build_bundle(sd: SpectralDecomposition, LambdaI: np.ndarray) -> OperatorBundle:
    """Assemble the Omega/H operator family from an eigensystem and Lambda_I."""
    lam = sd.eigenvalues
    if lam.min() < -1e-9:
        raise SqrtUndefined(lam.min(), "negative symmetrizable eigenvalue")
    Lambda0 = np.diag(lam.clip(min=0.0)).astype(complex)
    LambdaI = np.asarray(LambdaI, dtype=complex)
    Lambda = Lambda0 + LambdaI
    Omega0 = np.diag(np.sqrt(lam.clip(min=0.0))).astype(complex)
    if np.any(LambdaI):
        Omega = principal_sqrt(Lambda)
    else:
        Omega = Omega0.copy()
    OmegaI = Omega - Omega0

    m_sqrt = np.sqrt(sd.weights.m)
    P = sd.P

    def to_nodes(op):
        # M^{-1/2} (P op P^T) M^{+1/2}
        return (P @ op @ P.T) * np.outer(1.0 / m_sqrt, m_sqrt)

    H = to_nodes(Omega)
    H0 = to_nodes(Omega0)
    L = to_nodes(Lambda).real
    return OperatorBundle(
        Lambda=Lambda,
        Lambda0=Lambda0,
        LambdaI=LambdaI,
        Omega=Omega,
        Omega0=Omega0,
        OmegaI=OmegaI,
        H=H,
        H0=H0,
        HI=H - H0,
        L=L,
    )


def sqrt_residual(bundle: OperatorBundle) -> float:
    """Relative Frobenius residual of Omega^2 = Lambda."""
    return np.linalg.norm(bundle.Omega @ bundle.Omega - bundle.Lambda, "fro") / max(
        1.0, np.linalg.norm(bundle.Lambda, "fro")
    )


def node_sqrt_residual(bundle: OperatorBundle) -> float:
    """Relative Frobenius residual of H^2 = L."""
    return np.linalg.norm(bundle.H @ bundle.H - bundle.L, "fro") / max(
        1.0, np.linalg.norm(bundle.L, "fro")
    )
