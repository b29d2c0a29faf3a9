"""Time integration, oscillation energy, and divergence scoring.

Each integrator is a fixed one-step matrix run through one blocked core,
`_propagate`: RK4 on the (x, v) system for d^2x/dt^2 = -Lx (the RK4 stages
applied once to the identity) and the exact propagator expm(-+i Omega dt)
for +-i dpsi/dt = Omega psi.  The first row that is non-finite or exceeds
OVERFLOW_LIMIT in modulus ends a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _blas
from .errors import DimensionMismatch, GridMismatch, NotSymmetrizable, NumericalFailure
from .graph import WeightedDigraph
from .symmetry import SpectralDecomposition, spectral_decomposition

OVERFLOW_LIMIT = 1e12
GROWTH_THRESHOLD = 1e-9            # in units of sqrt(||L||_F)


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray           # shape (len(times), dim)
    meta: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def to_csv(self) -> str:
        """Header, then t and each node's real and imaginary part, as %.12g."""
        n = self.states.shape[1]
        cols = np.empty((len(self.times), 1 + 2 * n))
        cols[:, 0] = self.times
        cols[:, 1::2] = self.states.real
        cols[:, 2::2] = self.states.imag
        row = ",".join(["%.12g"] * cols.shape[1]) + "\n"
        header = "t," + ",".join(f"node{i}_re,node{i}_im" for i in range(n)) + "\n"
        return header + "".join(row % tuple(r) for r in cols.tolist())


@dataclass(frozen=True)
class EnergyReport:
    total: float
    per_node: np.ndarray


@dataclass(frozen=True)
class FlamingIndicator:
    growth_rate: float
    worst_eigenvalue: complex
    verdict: str                 # "stable" or "divergent"


def _grid(t_end: float, dt: float) -> np.ndarray:
    if dt <= 0 or t_end < 0:
        raise ValueError("dt must be > 0 and t_end >= 0")
    steps = int(round(t_end / dt))
    return np.arange(steps + 1) * dt


def _phase(sign: str) -> complex:
    """-i for the '+' equation i dpsi/dt = Omega psi, +i for the '-' one."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return -1j if sign == "+" else 1j


def _rk4_step(f, t, y, h):
    """One classical RK4 step of y' = f(t, y); y may hold states as columns."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _propagate(step, y0, times, watch=slice(None)):
    """Rows step^k y0 for every grid point, cut before the first bad row.

    A row k >= 1 is bad when its `watch` components are non-finite or exceed
    OVERFLOW_LIMIT in modulus.  Rows are filled in blocks of B ~ sqrt(N): the
    block starts advance by step^B, then one GEMM per offset j fills row
    kB + j of every block k at once, so Python runs O(sqrt N) times, not N.
    """
    rows = len(times)
    B = math.isqrt(rows - 1) + 1
    dtype = np.result_type(step, y0)
    with np.errstate(over="ignore", invalid="ignore"):
        leap = np.linalg.matrix_power(step, B)
        starts = [np.asarray(y0, dtype=dtype)]
        while len(starts) * B < rows:
            starts.append(leap @ starts[-1])
            # a bad block start bounds the first bad row: later blocks are moot
            if not np.abs(starts[-1][watch]).max() <= OVERFLOW_LIMIT:
                break
        Y = np.array(starts)
        out = np.empty((len(Y), B, len(y0)), dtype=dtype)
        size = np.empty((len(Y), B))
        for j in range(B):
            out[:, j] = Y
            size[:, j] = np.abs(Y[:, watch]).max(axis=1)
            Y = Y @ step.T
    size = size.reshape(-1)[1:rows]
    bad = np.flatnonzero(~(size <= OVERFLOW_LIMIT))
    return out.reshape(-1, len(y0))[: 1 + bad[0] if len(bad) else rows]


def integrate_wave(L, x0, v0, t_end=10.0, dt=1e-3) -> Trajectory:
    """RK4 integration of d^2x/dt^2 = -Lx from (x0, v0).

    Returns states x(t); velocities ride along in meta["velocities"].
    When x overflows (non-finite or |x| > 1e12) the trajectory is truncated
    before that row and meta["diverged_at"] holds its time, instead of raising.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != (n,) or v0.shape != (n,):
        raise DimensionMismatch("state length does not match L")
    A = np.block([[np.zeros((n, n)), np.eye(n)], [-L, np.zeros((n, n))]])
    step = _rk4_step(lambda t, y: A @ y, 0.0, np.eye(2 * n), dt)
    times = _grid(t_end, dt)
    states = _propagate(step, np.concatenate([x0, v0]), times, watch=slice(n))
    meta = {"velocities": states[:, n:]}
    if len(states) < len(times):
        meta["diverged_at"] = times[len(states)]
    return Trajectory(times=times[: len(states)], states=states[:, :n], meta=meta)


def integrate_fundamental(Omega, psi0, sign="+", t_end=10.0, dt=1e-3) -> Trajectory:
    """Propagate +-i dpsi/dt = Omega psi, i.e. psi(t) = expm(-+i Omega t) psi0."""
    Omega = np.asarray(Omega, dtype=complex)
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (Omega.shape[0],):
        raise DimensionMismatch("state length does not match Omega")
    s = _phase(sign)
    times = _grid(t_end, dt)
    states = _propagate(_blas.linalg().expm(s * Omega * dt), psi, times)
    if len(states) < len(times):
        raise NumericalFailure(
            f"fundamental-equation state overflow at t={times[len(states)]:.12g}"
        )
    return Trajectory(times=times, states=states)


def superpose(traj_plus: Trajectory, traj_minus: Trajectory, c_plus, c_minus) -> Trajectory:
    """Pointwise c+ psi+(t) + c- psi-(t) on a shared grid."""
    if traj_plus.states.shape != traj_minus.states.shape or not np.array_equal(
        traj_plus.times, traj_minus.times
    ):
        raise GridMismatch("trajectories live on different grids")
    return Trajectory(
        times=traj_plus.times,
        states=c_plus * traj_plus.states + c_minus * traj_minus.states,
    )


def product_form_solve(Omega0, OmegaI, psiI0, sign="+", t_end=10.0, dt=1e-3):
    """Interaction-picture factorization psi(t) = Psi0(t) psiI(t).

    Psi0(t) is the diagonal free propagator with Psi0(0) = I; psiI obeys
    +-i dpsiI/dt = (Psi0(-t) OmegaI Psi0(t)) psiI and is advanced by RK4.
    Returns (full trajectory psi, interaction trajectory psiI).
    """
    omega0 = np.diag(np.asarray(Omega0, dtype=complex)).copy()
    OmegaI = np.asarray(OmegaI, dtype=complex)
    psiI = np.asarray(psiI0, dtype=complex)
    if psiI.shape != (len(omega0),) or OmegaI.shape != (len(omega0), len(omega0)):
        raise DimensionMismatch("operator/state dimensions disagree")
    s = _phase(sign)

    def rhs(t, y):
        phase = np.exp(s * omega0 * t)               # diagonal of Psi0(t)
        return s * ((OmegaI * np.outer(1.0 / phase, phase)) @ y)

    # Psi0(t + tau) = Psi0(t) Psi0(tau), so the RK4 step from t is the step
    # from 0 conjugated by Psi0(t), and psi = Psi0 psiI advances by a constant
    step = np.exp(s * omega0 * dt)[:, None] * _rk4_step(rhs, 0.0, np.eye(len(psiI)), dt)
    times = _grid(t_end, dt)
    states = _propagate(step, psiI, times)
    if len(states) < len(times):
        raise NumericalFailure(f"product-form state overflow at t={times[len(states)]:.12g}")
    statesI = states / np.exp(s * np.outer(times, omega0))
    return Trajectory(times=times, states=states), Trajectory(times=times, states=statesI)


def second_order_residual(traj: Trajectory, Lambda) -> float:
    """Max relative centered-difference residual of psi'' = -Lambda psi (>= 3 rows)."""
    Lambda = np.asarray(Lambda)
    psi = traj.states
    if len(psi) < 3:
        raise GridMismatch(f"the second-order residual needs 3 grid rows, got {len(psi)}")
    dt = traj.dt
    acc = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / dt**2
    forcing = psi[1:-1] @ Lambda.T
    num = np.linalg.norm(acc + forcing, axis=1)
    den = np.maximum(1.0, np.linalg.norm(forcing, axis=1))
    return float((num / den).max())


def wave_energy_series(traj: Trajectory, sd: SpectralDecomposition) -> np.ndarray:
    """E(t) = (1/2)(|psi_dot|^2 + psi . Lambda0 psi) along an integrate_wave run."""
    vs = traj.meta["velocities"]
    m_sqrt = np.sqrt(sd.m)
    psi = (traj.states * m_sqrt) @ sd.P
    psi_dot = (vs * m_sqrt) @ sd.P
    return 0.5 * (
        np.sum(np.abs(psi_dot) ** 2, axis=1)
        + np.sum(sd.eigenvalues * np.abs(psi) ** 2, axis=1)
    )


def node_energy(sd: SpectralDecomposition, a, split=None) -> EnergyReport:
    """Per-node oscillation energy (1/2) sum_mu lambda_mu |a_mu|^2 v_{mu,i}^2.

    a holds each mode's complex amplitude; the zero-frequency mode carries no
    energy.  A Laplacian split, if supplied, must have an empty one-way part.
    """
    if split is not None and not split.is_pure_symmetrizable:
        raise NotSymmetrizable("energy centrality requires a symmetrizable graph")
    a = np.asarray(a)
    if a.shape != sd.eigenvalues.shape:
        raise DimensionMismatch("amplitude length does not match mode count")
    weights = sd.eigenvalues.clip(min=0.0) * np.abs(a) ** 2
    per_node = 0.5 * (sd.P**2) @ weights
    return EnergyReport(total=float(0.5 * weights.sum()), per_node=per_node)


def degree_centrality_energy(g: WeightedDigraph) -> EnergyReport:
    """Energy under unit amplitude in every mode: diag(S0)/2, the degree/2 law."""
    split, sd = spectral_decomposition(g)
    return node_energy(sd, np.ones(g.n), split=split)


def flaming_indicator(L) -> FlamingIndicator:
    """Divergence score: max |Im sqrt(lambda)| over the Laplacian spectrum."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.size == 0:
        raise DimensionMismatch(f"flaming_indicator needs a nonempty square L, got {L.shape}")
    try:
        eigs = np.linalg.eigvals(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    # snap eigenvalues within solver rounding of the nonnegative real axis onto
    # it: sqrt amplifies an O(eps) imaginary part near 0 to O(sqrt(eps)).  Both
    # the clip and the threshold scale with L, so cL gives the same verdict
    norm = np.linalg.norm(L, "fro")
    clip = 1e-9 * norm
    eigs = eigs.astype(complex)
    on_axis = (np.abs(eigs.imag) <= clip) & (eigs.real >= -clip)
    eigs[on_axis] = np.maximum(eigs[on_axis].real, 0.0)
    rates = np.abs(np.imag(np.sqrt(eigs)))
    worst = int(np.argmax(rates))
    rate = float(rates[worst])
    return FlamingIndicator(
        growth_rate=rate,
        worst_eigenvalue=complex(eigs[worst]),
        verdict="divergent" if rate > GROWTH_THRESHOLD * math.sqrt(norm) else "stable",
    )
