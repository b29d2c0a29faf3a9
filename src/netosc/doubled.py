"""Doubled (2n-dimensional) operators whose sparsity matches the network.

The state interleaves the two branch solutions, (x+_1, x-_1, x+_2, x-_2, ...).
The structured operator combines a diagonal factor sqrt(D) with an adjacency
factor tensored against a nilpotent 2x2 block, so its off-diagonal blocks
appear exactly where links exist; summing the branches recovers every
solution of the second-order dynamics.  Runs step s = (x+ + x-)/sqrt2 and
w = -i (x+ - x-)/sqrt2 under G = [[0, Hd], [Ha - Hd, 0]] through dynamics._blocks;
the step expm(G dt) comes from dynamics.offdiag_expm, the even/odd series in n x n
products of Hd and Ha - Hd that also builds the wave step.
Theorem 1 is one identity of the step matrices, checked with no run and no RK4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dynamics
from .dynamics import DT, T_END, Trajectory, _propagate
from .errors import DimensionMismatch, NumericalFailure, ZeroDegreeNode
from .graph import WeightedDigraph, out_degrees
from .graph import build_matrices  # noqa: F401  (perfbench wraps this binding)

SIGN2 = np.diag([1.0, -1.0])
NILPOTENT = 0.5 * np.array([[1.0, 1.0], [-1.0, -1.0]])


def interleave(x_plus: np.ndarray, x_minus: np.ndarray) -> np.ndarray:
    """(x+, x-) -> (x+_1, x-_1, x+_2, x-_2, ...), row by row for stacked rows."""
    if x_plus.shape != x_minus.shape:
        raise DimensionMismatch("branch vectors differ in length")
    pairs = np.stack([x_plus, x_minus], axis=-1, dtype=np.result_type(x_plus, x_minus, float))
    return pairs.reshape(x_plus.shape[:-1] + (2 * x_plus.shape[-1],))


def branch_sum(x_hat) -> np.ndarray:
    """s = x+ + x-, the physical state recovered from the doubled vector."""
    x_hat = np.asarray(x_hat)
    return x_hat[..., 0::2] + x_hat[..., 1::2]


@dataclass(frozen=True)
class SparseFactors:
    """Hd = diag(d_sqrt) with d_sqrt[i] = sqrt(d_i), and Ha[i, j] = w_ij / sqrt(d_i)."""

    d_sqrt: np.ndarray
    Ha: np.ndarray


@dataclass(frozen=True)
class StructuredOperator:
    """The structured 2n x 2n matrix and the factors it is built from."""

    matrix: np.ndarray
    factors: SparseFactors

    @cached_property
    def square(self) -> np.ndarray:
        """matrix @ matrix, taken once for the eq19 and eq26 checks."""
        return self.matrix @ self.matrix


def hat_H_spectral(H: np.ndarray) -> np.ndarray:
    """H (x) diag(1, -1); squares to L (x) E but is dense like H."""
    return np.kron(np.asarray(H), SIGN2)


def sparse_factors(g: WeightedDigraph) -> SparseFactors:
    """Hd and Ha from one scatter of the adjacency, divided in place.  d is its row sums,
    bitwise laplacian(g)'s diagonal (see graph.link_laplacian).  out_degrees' gate comes
    first, so DegreeOverflow precedes ZeroDegreeNode, which names the first sink."""
    out_degrees(g)
    Ha = g.adjacency()
    d = Ha.sum(axis=1)
    sinks = np.flatnonzero(d == 0)
    if len(sinks):
        raise ZeroDegreeNode(g.labels[sinks[0]])
    d_sqrt = np.sqrt(d)
    Ha /= d_sqrt[:, None]
    return SparseFactors(d_sqrt=d_sqrt, Ha=Ha)


def hat_H_structured(f: SparseFactors) -> StructuredOperator:
    """Hd (x) SIGN2 - Ha (x) NILPOTENT, written into its four strided n x n views."""
    n, half, Hd = len(f.d_sqrt), f.Ha / 2, np.diag(f.d_sqrt)
    matrix = np.empty((2 * n, 2 * n), dtype=np.result_type(half, Hd))
    matrix[0::2, 0::2], matrix[0::2, 1::2] = Hd - half, -half
    matrix[1::2, 0::2], matrix[1::2, 1::2] = half, half - Hd
    return StructuredOperator(matrix=matrix, factors=f)


def offdiag_block_pattern(matrix: np.ndarray) -> np.ndarray:
    """Boolean n x n mask: 2x2 block (i, j), i != j, has a nonzero entry."""
    a = matrix != 0
    pattern = a[0::2, 0::2] | a[0::2, 1::2] | a[1::2, 0::2] | a[1::2, 1::2]
    np.fill_diagonal(pattern, False)
    return pattern


def sparsity_match(op: StructuredOperator, g: WeightedDigraph) -> bool:
    """Off-diagonal block pattern of the operator equals A's pattern."""
    got = offdiag_block_pattern(op.matrix)
    want = g.adjacency() > 0
    return bool(np.array_equal(got, want))


def hat_H_squared_expansion(f: SparseFactors):
    """Eq19's n x n terms (d, sym, mix) = (degrees, (Hd Ha + Ha Hd)/2, (Hd Ha - Ha Hd)/2):
    the square's diagonal blocks [0::2, 0::2] and [1::2, 1::2] are diag(d) - sym, its
    off-diagonal ones -mix.  mix vanishes exactly when Hd commutes with Ha (regular graphs)."""
    HdHa, HaHd = f.d_sqrt[:, None] * f.Ha, f.Ha * f.d_sqrt
    return f.d_sqrt**2, (HdHa + HaHd) / 2, (HdHa - HaHd) / 2


def squared_expansion_residual(op: StructuredOperator) -> float:
    """Eq19: ||op.square - expansion||_F, one strided n x n block at a time."""
    d, sym, mix = hat_H_squared_expansion(op.factors)
    diagonal = np.diag(d) - sym
    gaps = [np.linalg.norm(op.square[r::2, c::2] - want)
            for r, c, want in ((0, 0, diagonal), (1, 1, diagonal), (0, 1, -mix), (1, 0, -mix))]
    return float(np.linalg.norm(gaps))


def structured_step(op: StructuredOperator, dt) -> np.ndarray:
    """The real step expm(G dt), G = [[0, Hd], [Ha - Hd, 0]], of the (s, w) coordinates."""
    d_sqrt, Ha = op.factors.d_sqrt, op.factors.Ha
    with np.errstate(over="ignore", invalid="ignore"):  # a bad dt fails in the core
        return dynamics.offdiag_expm(d_sqrt * dt, (Ha - np.diag(d_sqrt)) * dt)


def _sum_difference_state(op: StructuredOperator, x_hat0) -> np.ndarray:
    """x_hat0 rotated into (s, w)."""
    x = np.asarray(x_hat0, dtype=complex)
    if x.shape != (op.matrix.shape[0],):
        raise DimensionMismatch("doubled state length does not match operator")
    return np.concatenate([x[0::2] + x[1::2], -1j * (x[0::2] - x[1::2])]) / np.sqrt(2.0)


def sum_difference_run(op: StructuredOperator, x_hat0, t_end=T_END, dt=DT) -> Trajectory:
    """Trajectory of [s | w] rows of the structured run, stepped by the real expm(G dt).
    An x_hat0 that is not lifted takes a second run on the imaginary part of (s, w);
    each run fails on its own overflow, the real part's first."""
    y0, step = _sum_difference_state(op, x_hat0), structured_step(op, dt)
    times, states = _propagate(step, y0.real, t_end, dt, run="doubled")
    if y0.imag.any():
        states = states + 1j * _propagate(step, y0.imag, t_end, dt, run="doubled")[1]
    return Trajectory(times, states)


def final_branch_sum(op: StructuredOperator, step, x0, v0, t_end=T_END, dt=DT) -> np.ndarray:
    """Branch sum sqrt2 s at the last row of the lifted run, a block at a time; overflow raises."""
    y0 = _sum_difference_state(op, lift_initial_conditions(op.factors, x0, v0))
    for Y in dynamics._blocks(step, y0.real, t_end, dt, run="doubled"):
        pass
    return np.sqrt(2.0) * Y[-1, : len(x0)]


def theorem1_residual(op: StructuredOperator, step, wave) -> float:
    """Theorem 1 as one identity of step matrices: ||S T - T E||_F / ||T (E - I)||_F, for
    S = structured_step(op, dt), E = dynamics.wave_propagator(L, dt) and T = diag(I, Hd^-1)/sqrt2
    the lift of (x0, v0) into (s, w).  Hd^-1 L = Hd - Ha gives G T = T [[0, I], [-L, 0]], so
    S T = T E and sqrt2 s is the wave run on every grid: an exact build reads rounding.  It is
    the plain norm if the denominator is 0; a non-finite value raises NumericalFailure."""
    t = np.concatenate([np.ones_like(op.factors.d_sqrt), 1.0 / op.factors.d_sqrt]) / np.sqrt(2.0)
    TE, R = t[:, None] * wave, step * t
    R -= TE
    TE.flat[:: len(t) + 1] -= t                      # T (E - I)
    residual = np.linalg.norm(R) / (np.linalg.norm(TE) or 1.0)
    if not np.isfinite(residual):
        raise NumericalFailure(f"the Theorem 1 residual of the step matrices is {residual}")
    return float(residual)


def integrate_doubled(op: StructuredOperator, x_hat0, t_end=T_END, dt=DT) -> Trajectory:
    """Propagate i dx_hat/dt = H_hat x_hat; states interleave x+- = (s +- i w)/sqrt2."""
    run = sum_difference_run(op, x_hat0, t_end, dt)
    s, w = np.hsplit(run.states / np.sqrt(2.0), 2)
    return Trajectory(times=run.times, states=interleave(s + 1j * w, s - 1j * w))


def lift_initial_conditions(f: SparseFactors, x0, v0) -> np.ndarray:
    """Doubled initial state with branch sum s(0) = x0 and s'(0) = v0.

    x+-(0) = (x0 +- i Hd^{-1} v0) / 2; the projection of the structured
    operator along (1, 1) rows reduces to Hd (x) (1, -1), which makes the
    lift invertible whenever Hd is.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != f.d_sqrt.shape or v0.shape != f.d_sqrt.shape:
        raise DimensionMismatch("initial state length does not match the graph")
    shift = 1j * v0 / f.d_sqrt
    return interleave(0.5 * (x0 + shift), 0.5 * (x0 - shift))


def projection_identity_check(op: StructuredOperator, x_hat, L: np.ndarray) -> float:
    """Relative residual of (I (x) (1,1)) H_hat^2 x_hat = L x, H_hat^2 the shared op.square
    and L the graph's Laplacian, for one doubled state or the largest over the rows of a
    (k, 2n) array of them."""
    x_hat = np.atleast_2d(x_hat)
    x_hat = x_hat.astype(np.result_type(x_hat, float))
    lhs = x_hat @ branch_sum(op.square.T)
    rhs = branch_sum(x_hat) @ L.T
    num = np.linalg.norm(lhs - rhs, axis=1)
    return float((num / np.maximum(1.0, np.linalg.norm(rhs, axis=1))).max())

