"""Doubled (2n-dimensional) operators whose sparsity matches the network.

The state interleaves the two branch solutions, (x+_1, x-_1, x+_2, x-_2, ...).
The structured operator combines a diagonal factor sqrt(D) with an adjacency
factor tensored against a nilpotent 2x2 block, so its off-diagonal blocks
appear exactly where links exist; summing the branches recovers every
solution of the second-order dynamics.  Runs step the real coordinates
s = (x+ + x-)/sqrt2 and w = -i (x+ - x-)/sqrt2 under G = [[0, Hd], [Ha - Hd, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas, dynamics
from .dynamics import Trajectory, _grid, _propagate
from .errors import DimensionMismatch, NumericalFailure, ZeroDegreeNode
from .graph import WeightedDigraph, build_matrices

E2 = np.eye(2)
SIGN2 = np.diag([1.0, -1.0])
NILPOTENT = 0.5 * np.array([[1.0, 1.0], [-1.0, -1.0]])
SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


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


def hat_H_spectral(H: np.ndarray) -> np.ndarray:
    """H (x) diag(1, -1); squares to L (x) E but is dense like H."""
    return np.kron(np.asarray(H), SIGN2)


def sparse_factors(g: WeightedDigraph) -> SparseFactors:
    A, D, _ = build_matrices(g)
    d = np.diag(D)
    for i, di in enumerate(d):
        if di == 0:
            raise ZeroDegreeNode(g.labels[i])
    return SparseFactors(d_sqrt=np.sqrt(d), Ha=A / np.sqrt(d)[:, None])


def hat_H_structured(f: SparseFactors) -> StructuredOperator:
    """Hd (x) diag(1,-1) - Ha (x) X with X the nilpotent half-block."""
    matrix = np.kron(np.diag(f.d_sqrt), SIGN2) - np.kron(f.Ha, NILPOTENT)
    return StructuredOperator(matrix=matrix, factors=f)


def offdiag_block_pattern(matrix: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Boolean n x n mask: 2x2 block (i, j), i != j, has any entry above tol."""
    n = matrix.shape[0] // 2
    blocks = np.abs(matrix).reshape(n, 2, n, 2).max(axis=(1, 3))
    pattern = blocks > tol
    np.fill_diagonal(pattern, False)
    return pattern


def sparsity_match(op: StructuredOperator, g: WeightedDigraph) -> bool:
    """Off-diagonal block pattern of the operator equals A's pattern."""
    got = offdiag_block_pattern(op.matrix)
    want = g.adjacency() > 0
    return bool(np.array_equal(got, want))


def hat_H_squared_expansion(f: SparseFactors):
    """Three-term expansion of the structured operator squared.

    Returns (termD, termSym, termMix); termD - termSym - termMix equals the
    square.  termMix vanishes exactly when Hd commutes with Ha (regular graphs).
    """
    HdHa = f.d_sqrt[:, None] * f.Ha
    HaHd = f.Ha * f.d_sqrt
    termD = np.kron(np.diag(f.d_sqrt**2), E2)
    termSym = np.kron(HdHa + HaHd, 0.5 * E2)
    termMix = np.kron(HdHa - HaHd, 0.5 * SWAP2)
    return termD, termSym, termMix


def laplacian_from_factors(f: SparseFactors) -> np.ndarray:
    """L = Hd^2 - Hd Ha (and A = Hd Ha, D = Hd^2)."""
    return np.diag(f.d_sqrt**2) - f.d_sqrt[:, None] * f.Ha


def _sum_difference_step(op: StructuredOperator, x_hat0, dt):
    """The real step expm(G dt), G = [[0, Hd], [Ha - Hd, 0]], and x_hat0 rotated into (s, w)."""
    x = np.asarray(x_hat0, dtype=complex)
    if x.shape != (op.matrix.shape[0],):
        raise DimensionMismatch("doubled state length does not match operator")
    Hd, Ha = np.diag(op.factors.d_sqrt), op.factors.Ha
    step = _blas.linalg().expm(np.block([[0 * Hd, Hd], [Ha - Hd, 0 * Hd]]) * dt)
    y0 = np.concatenate([x[0::2] + x[1::2], -1j * (x[0::2] - x[1::2])]) / np.sqrt(2.0)
    return step, y0


def _overflow(times, cut) -> NumericalFailure:
    return NumericalFailure(f"doubled state overflow at t={times[cut]:.12g}")


def sum_difference_run(op: StructuredOperator, x_hat0, t_end=10.0, dt=1e-3) -> Trajectory:
    """Trajectory of [s | w] rows of the structured run, stepped by the real expm(G dt);
    an x_hat0 that is not lifted takes a second run on the imaginary part of (s, w)."""
    step, y0 = _sum_difference_step(op, x_hat0, dt)
    times = _grid(t_end, dt)
    states = _propagate(step, y0.real, times)
    if y0.imag.any():
        imag = _propagate(step, y0.imag, times)
        states = states[: len(imag)] + 1j * imag[: len(states)]
    if len(states) < len(times):
        raise _overflow(times, len(states))
    return Trajectory(times, states)


def theorem1_checks(op: StructuredOperator, L, x0, v0, t_end=10.0, dt=1e-3, eq22=False):
    """Theorem 1 from (x0, v0), storing no trajectory: the structured run and the RK4
    wave run advance together a slab at a time (dynamics._slabs), each slab reduced to
    per-row values at once.  Returns the final branch sum sqrt2 s, the sup gap
    |sqrt2 s - x| over the rows both runs cover and, if eq22, second_order_residual of
    sqrt2 s under L (else None); fails as sum_difference_run and that residual do."""
    n, L = len(x0), np.asarray(L, dtype=float)
    step, y0 = _sum_difference_step(op, lift_initial_conditions(op.factors, x0, v0), dt)
    times = _grid(t_end, dt)
    rows, B = len(times), dynamics._block(len(times))
    structured = dynamics._slabs(step, y0.real, rows)
    wave = dynamics._slabs(dynamics._wave_step(L, dt), np.concatenate([x0, v0]), rows, slice(n))
    sizes, wave_sizes, gaps, residuals, head, window = [], [], [], [], [], []
    for j, ((Y, size), (W, wave_size)) in enumerate(zip(structured, wave)):
        sizes.append(size)
        wave_sizes.append(wave_size)
        # rows past a run's first bad row may overflow here; they are dropped
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.sqrt(2.0) * Y[:, :n]
            gaps.append(np.abs(x[: len(W)] - W[: len(x), :n]).max(axis=1))
            head, window = (head + [x])[:2], window[-2:] + [x]   # slabs 0, 1; the last three
            if eq22 and j >= 2:                                  # offset j - 1 of each block
                residuals.append(dynamics._centered_residual(*window, L, dt))
        if j == (rows - 1) % B:
            final_slab = x
    cut = dynamics._cut(sizes, rows)
    if cut < rows:
        raise _overflow(times, cut)
    gap = float(np.stack(gaps, axis=1).reshape(-1)[: dynamics._cut(wave_sizes, rows)].max())
    if not eq22:
        return final_slab[(rows - 1) // B], gap, None
    dynamics._need_three_rows(rows)
    # offset 0 reaches back into the previous block, offset B - 1 ahead into the next;
    # only their interior rows enter the product, as in second_order_residual
    (first, second), (before, last), K = head, window[-2:], len(head[0])
    res = np.stack([np.zeros(K), *residuals, np.zeros(K)], axis=1).reshape(-1)
    r = np.concatenate([np.arange(K) * B, np.arange(K) * B + B - 1])
    keep = (1 <= r) & (r <= rows - 2)
    edges = zip((np.roll(last, 1, 0), first, second), (before, last, np.roll(first, -1, 0)))
    with np.errstate(over="ignore", invalid="ignore"):
        res[r[keep]] = dynamics._centered_residual(*(np.concatenate(e)[keep] for e in edges), L, dt)
    return final_slab[(rows - 1) // B], gap, float(res[1 : rows - 1].max())


def integrate_doubled(op: StructuredOperator, x_hat0, t_end=10.0, dt=1e-3) -> Trajectory:
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


def projection_identity_check(op: StructuredOperator, x_hat) -> float:
    """Relative residual of (I (x) (1,1)) H_hat^2 x_hat = L x for the structured
    operator; for a (k, 2n) array of doubled states, the largest over its rows."""
    x_hat = np.atleast_2d(np.asarray(x_hat, dtype=complex))
    H_hat_T = op.matrix.T
    lhs = branch_sum(x_hat @ H_hat_T @ H_hat_T)
    rhs = branch_sum(x_hat) @ laplacian_from_factors(op.factors).T
    num = np.linalg.norm(lhs - rhs, axis=1)
    return float((num / np.maximum(1.0, np.linalg.norm(rhs, axis=1))).max())

