"""Time integration, oscillation energy, and divergence scoring.

Each integrator builds a fixed one-step matrix and an initial state; one blocked
core, `_blocks`, runs them on the grid t = k dt, k <= round(t_end / dt), which
`grid_rows` alone checks, for the library and the CLI alike.  The wave and
first-order runs step exactly.  `offdiag_expm`, the package's one exponential, sums
the even and odd Taylor series of a generator [[0, diag(b)], [C, 0]] in its n x n
blocks and builds the wave step (`wave_propagator` for d^2x/dt^2 = -Lx) and the
structured step of `doubled`; the step expm(-+i Omega dt) of +-i dpsi/dt = Omega psi
is built from the cos and sin blocks of the wave step for K = Omega^2.  RK4 steps
only the interaction-picture run of `product_form_solve`.  The core yields the run
in time order, in blocks of about sqrt(rows) rows, and stops before the first row
that is non-finite or exceeds OVERFLOW_LIMIT in modulus: the wave run comes out
shorter, a named first-order run raises NumericalFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch, GridMismatch, ModelViolation, NotSymmetrizable, NumericalFailure,
)
from .graph import WeightedDigraph, laplacian, out_degrees
from .symmetry import SpectralDecomposition, decompose_laplacian, symmetrized_eigenvalues
from .symmetry import spectral_decomposition  # noqa: F401  (perfbench wraps this binding)
from .sqrt_ops import _unit_scale_norm

T_END, DT = 10.0, 1e-3             # the default grid
MAX_STEPS = 10**7                  # the most steps t_end / dt may ask for
OVERFLOW_LIMIT = 1e12
GROWTH_THRESHOLD = 1e-9            # in units of sqrt(||L||_F)


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray           # shape (len(times), dim)
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        """Header, then t and each node's real and imaginary part, as %.12g;
        formatted 512 rows at a time, so only one block is ever Python floats."""
        n = self.states.shape[1]
        row = ",".join(["%.12g"] * (1 + 2 * n)) + "\n"
        chunks = ["t," + ",".join(f"node{i}_re,node{i}_im" for i in range(n)) + "\n"]
        for start in range(0, len(self.times), 512):
            block = slice(start, start + 512)
            cols = np.empty((len(self.times[block]), 1 + 2 * n))
            cols[:, 0] = self.times[block]
            cols[:, 1::2] = self.states[block].real
            cols[:, 2::2] = self.states[block].imag
            chunks.append("".join(row % tuple(r) for r in cols.tolist()))
        return "".join(chunks)


@dataclass(frozen=True)
class EnergyReport:
    total: float
    per_node: np.ndarray


@dataclass(frozen=True)
class FlamingIndicator:
    growth_rate: float
    worst_eigenvalue: complex
    verdict: str                 # "stable" or "divergent"


def grid_rows(t_end, dt) -> int:
    """Number of grid points t = k dt, k <= round(t_end / dt); GridMismatch unless
    0 <= t_end and 0 < dt are finite and t_end / dt is at most MAX_STEPS."""
    t_end, dt = float(t_end), float(dt)
    if not (0 <= t_end < math.inf and 0 < dt < math.inf and t_end / dt <= MAX_STEPS):
        raise GridMismatch(
            f"grid needs finite t_end >= 0, dt > 0 and t_end/dt <= {MAX_STEPS}, got {t_end}, {dt}"
        )
    return int(round(t_end / dt)) + 1


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


def _blocks(step, y0, t_end, dt, watch=slice(None), run=None):
    """Yield the rows step^k y0 at t = k dt in time order as (B, dim) blocks, B ~ sqrt(rows).

    The first block is stepped one row at a time; each later block is the one
    before times step^B, one GEMM, so Python runs O(sqrt rows) times, not rows.
    The run stops before the first row k >= 1 whose largest `watch` component in
    modulus is non-finite or exceeds OVERFLOW_LIMIT: an unnamed run comes out
    shorter, a run named `run` raises NumericalFailure there.  No block is empty.
    """
    rows = grid_rows(t_end, dt)
    B = math.isqrt(rows - 1) + 1
    # np.errstate is a context variable: scoped per statement, it cannot leak
    # into the caller's code while the generator is suspended at a yield
    with np.errstate(over="ignore", invalid="ignore"):
        Y = np.empty((B, len(y0)), dtype=np.result_type(step, y0))
        Y[0] = y0
        for k in range(1, len(Y)):
            Y[k] = step @ Y[k - 1]
        leap = np.linalg.matrix_power(step, B).T
    for done in range(0, rows, B):
        if done:
            with np.errstate(over="ignore", invalid="ignore"):
                Y = Y[: rows - done] @ leap
        ok = np.abs(Y[:, watch]).max(axis=1) <= OVERFLOW_LIMIT
        ok[0] |= not done                                # row 0 is never cut
        if not ok.all():
            cut = int(np.argmin(ok))
            if run is not None:
                raise NumericalFailure(f"{run} state overflow at t={(done + cut) * dt:.12g}")
            if cut:
                yield Y[:cut]
            return
        yield Y


def _propagate(step, y0, t_end, dt, watch=slice(None), run=None):
    """(times, states) of the `_blocks` run, its rows copied into one array."""
    out = np.empty((grid_rows(t_end, dt), len(y0)), dtype=np.result_type(step, y0))
    done = 0
    for Y in _blocks(step, y0, t_end, dt, watch, run):
        out[done : done + len(Y)] = Y
        done += len(Y)
    return np.arange(done) * dt, out[:done]


def integrate_wave(L, x0, v0, t_end=T_END, dt=DT) -> Trajectory:
    """Exact integration of d^2x/dt^2 = -Lx from (x0, v0), stepped by wave_propagator(L, dt).

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
    y0 = np.concatenate([x0, v0])
    times, states = _propagate(wave_propagator(L, dt), y0, t_end, dt, slice(n))
    meta = {"velocities": states[:, n:]}
    if len(states) < grid_rows(t_end, dt):
        meta["diverged_at"] = len(states) * dt
    return Trajectory(times=times, states=states[:, :n], meta=meta)


def integrate_fundamental(Omega, psi0, sign="+", t_end=T_END, dt=DT) -> Trajectory:
    """Propagate +-i dpsi/dt = Omega psi, i.e. psi(t) = expm(-+i Omega t) psi0.

    The step is built from the wave step of d^2psi/dt^2 = -Omega^2 psi: cos is even and
    sin(Omega dt) = Omega dt g(-Omega^2 dt^2), so with E = wave_propagator(Omega @ Omega, dt),
    expm(-+i Omega dt) = E[:n, :n] -+ i Omega E[:n, n:] (N. J. Higham, Functions of
    Matrices, SIAM 2008, ch. 12); it rides along in meta["step"].  Omega must be real,
    as every root the package builds is: a nonzero imaginary part raises ModelViolation,
    since cos and sin of a complex Omega dt grow like cosh(Im Omega dt) where the
    exponential can be tiny, and the combine would cancel them.
    """
    Omega = np.asarray(Omega)
    if np.iscomplexobj(Omega) and np.any(Omega.imag):
        raise ModelViolation("integrate_fundamental takes a real Omega")
    Omega = np.asarray(np.real(Omega), dtype=float)   # real until the last combine
    psi = np.asarray(psi0, dtype=complex)
    n = Omega.shape[0]
    if psi.shape != (n,):
        raise DimensionMismatch("state length does not match Omega")
    s = _phase(sign)
    with np.errstate(over="ignore", invalid="ignore"):  # a bad dt fails in the core
        E = wave_propagator(Omega @ Omega, dt)
        step = E[:n, :n] + s * (Omega @ E[:n, n:])
    times, states = _propagate(step, psi, t_end, dt, run="fundamental-equation")
    return Trajectory(times=times, states=states, meta={"step": step})


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


def product_form_solve(omega0, OmegaI, psiI0, sign="+", t_end=T_END, dt=DT):
    """Interaction-picture factorization psi(t) = Psi0(t) psiI(t).

    Psi0(t) = diag(exp(-+i omega0 t)) is the free propagator of the root
    frequencies omega0, a vector; psiI obeys +-i dpsiI/dt = (Psi0(-t) OmegaI
    Psi0(t)) psiI and is advanced by RK4.
    Returns (full trajectory psi, interaction trajectory psiI).
    """
    omega0 = np.asarray(omega0, dtype=complex)
    if omega0.ndim != 1:
        raise DimensionMismatch(f"omega0 must be a vector, got shape {omega0.shape}")
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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step ends the run
        step = np.exp(s * omega0 * dt)[:, None] * _rk4_step(rhs, 0.0, np.eye(len(psiI)), dt)
    times, states = _propagate(step, psiI, t_end, dt, run="product-form")
    statesI = states / np.exp(s * np.outer(times, omega0))
    return Trajectory(times=times, states=states), Trajectory(times=times, states=statesI)


# (p, c, theta_m) of each Taylor degree m = p c - 1, which reaches double precision for
# ||X||_1 <= theta_m (A. H. Al-Mohy and N. J. Higham, SIAM J. Sci. Comput. 33(2), 2011,
# Table 3.1); `offdiag_expm` sums the series to a degree of at least m.  The cost model,
# p + c - 2 products, is Paterson-Stockmeyer's, yet at every norm from 1e-7 to 1e4 the
# (m, s) it picks also minimises the products `offdiag_expm` runs (a test checks this)
_TAYLOR = (
    (2, 2, 1.39e-5), (2, 3, 2.40e-3), (3, 3, 5.00e-2),
    (3, 4, 2.14e-1), (4, 4, 6.41e-1), (4, 5, 1.26),
)


def _taylor_choice(norm):
    """(p, c, s) of the Taylor step for ||X||_1 = norm: the degree m = p c - 1 and the
    squarings s minimise the products, p + c - 2 + s, subject to norm / 2^s <= theta_m,
    fewer squarings breaking a tie."""
    _, s, p, c = min(
        (p + c - 2 + s, s, p, c)
        for p, c, theta in _TAYLOR
        for s in [math.ceil(math.log2(norm) - math.log2(theta)) if norm > theta else 0]
    )
    return p, c, s


def offdiag_expm(b, C) -> np.ndarray:
    """expm(G) of G = [[0, diag(b)], [C, 0]] from n x n products, never a 2n x 2n power.

    G^2 = diag(B C, C B) with B = diag(b), so expm(G) = [[f(B C), g(B C) B],
    [g(C B) C, f(C B)]] for f(z) = sum z^j / (2j)! and g(z) = sum z^j / (2j+1)!
    (N. J. Higham, Functions of Matrices, SIAM 2008, ch. 12).  Cut at degree k = m // 2
    in B C and C B, the blocks are the Taylor polynomial of degree 2k + 1 >= m of expm(G),
    where m = p c - 1 and s come from `_taylor_choice`, for
    ||G||_1 = max(max |b|, largest column sum of |C|).  expm(G / 2^s) - I is assembled
    apart from I, squared as Q <- 2Q + Q^2, and I is added last.  One series serves both
    diagonal blocks when B C and C B are bitwise equal, as for the wave step's constant b.
    A non-finite b or C gives all NaN.
    """
    b, C = np.asarray(b), np.asarray(C)
    dtype = np.result_type(b, C, float)
    n = len(b)
    norm = float(np.hstack([np.abs(b), np.abs(C).sum(axis=0)]).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full((2 * n, 2 * n), np.nan, dtype=dtype)
    p, c, s = _taylor_choice(norm)
    b, C = b * 0.5**s, C * 0.5**s

    def series(M):
        """f(M) - I and g(M) to degree m // 2, summed from the lowest power up."""
        even, odd, power = M / 2, np.eye(n, dtype=dtype) + M / 6, M
        for j in range(2, (p * c - 1) // 2 + 1):
            power = power @ M
            even += power / math.factorial(2 * j)
            odd += power / math.factorial(2 * j + 1)
        return even, odd

    Q = np.empty((2 * n, 2 * n), dtype=dtype)
    BC, CB = b[:, None] * C, C * b
    Q[:n, :n], odd_bc = halves = series(BC)
    Q[n:, n:], odd_cb = halves if BC.tobytes() == CB.tobytes() else series(CB)
    Q[:n, n:] = odd_bc * b
    Q[n:, :n] = odd_cb @ C
    for _ in range(s):
        Q = 2 * Q + Q @ Q
    Q.flat[:: 2 * n + 1] += 1
    return Q


def wave_propagator(K, dt) -> np.ndarray:
    """E = expm([[0, I], [-K, 0]] dt), the exact step of the (x, v) system for x'' = -Kx."""
    K = np.asarray(K)
    with np.errstate(over="ignore", invalid="ignore"):  # a bad dt fails in the core or the check
        return offdiag_expm(np.full(len(K), dt, dtype=float), -K * dt)


def recurrence_residual(step, wave, K, dt) -> float:
    """Exact eq22 check of a one-step matrix S: ||P(S + S^-1) - 2 C P||_F / (dt^2 ||K||_F).

    P keeps the first n = len(K) coordinates and C = cos(sqrt(K) dt) is the top-left
    block of wave = wave_propagator(K, dt).  It is 0 exactly when every run of S
    obeys x(t + dt) + x(t - dt) = 2 C x(t), the three-term recurrence
    of d^2x/dt^2 = -Kx, so an exact step reads rounding only.  It is the plain norm
    when dt^2 ||K||_F underflows to 0.  P S^-1 is solved from S, as n right-hand sides
    of S^T: an expm(-G dt) would cancel against expm(G dt) by construction.  A singular
    S or a non-finite value raises NumericalFailure.
    """
    n = len(K)
    try:
        R = step[:n] + np.linalg.solve(step.T, np.eye(len(step), n)).T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"step matrix inversion failed: {exc}") from exc
    R[:, :n] -= 2 * wave[:n, :n]
    residual = np.linalg.norm(R) / (dt * dt * np.linalg.norm(K) or 1.0)
    if not np.isfinite(residual):
        raise NumericalFailure(f"the recurrence residual of the step matrix is {residual}")
    return float(residual)


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
    """Energy under unit amplitude in every mode: diag(S0)/2, the degree/2 law.

    node_energy(sd, ones) is (1/2) sum_mu lambda_mu P_{i mu}^2 = (S0)_ii / 2, and the
    diagonal similarity S0 = M^{1/2} L M^{-1/2} keeps L's diagonal, the out-degree d.
    So on every symmetrizable graph node i holds d_i / 2 and the total is sum(d) / 2,
    taken from the edge arrays with no eigensolve and no n x n matrix.  The ||L||_F
    gate comes first (DegreeOverflow); a graph check_symmetrizable refuses raises
    NotSymmetrizable, and its NumericalFailure passes through.
    """
    if not decompose_laplacian(g).is_pure_symmetrizable:
        raise NotSymmetrizable("energy centrality requires a symmetrizable graph")
    d = out_degrees(g)
    return EnergyReport(total=float(0.5 * d.sum()), per_node=0.5 * d)


def flaming_indicator(L) -> FlamingIndicator:
    """Divergence score: max |Im sqrt(lambda)| over the spectrum of L, from eigvals(L)."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.size == 0:
        raise DimensionMismatch(f"flaming_indicator needs a nonempty square L, got {L.shape}")
    try:
        eigs = np.linalg.eigvals(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    return _indicator(eigs, _unit_scale_norm(L.copy()))


def graph_flaming_indicator(g: WeightedDigraph) -> FlamingIndicator:
    """flaming_indicator of g's Laplacian.  A symmetrizable g takes no dense L: the real
    eigvalsh of S0, descending, so a zero rate's worst eigenvalue is the largest, and
    ||L||_F from the edge arrays.  Any other g, or a NumericalFailure, takes eigvals(L)."""
    try:
        split = decompose_laplacian(g)  # the ||L||_F gate comes first
        if split.is_pure_symmetrizable:
            norm = _unit_scale_norm(np.hstack([out_degrees(g), g.edge_arrays[2]]))
            return _indicator(symmetrized_eigenvalues(split)[::-1], norm)
    except NumericalFailure:
        pass
    return flaming_indicator(laplacian(g))


def _indicator(eigs, norm) -> FlamingIndicator:
    # snap eigenvalues within solver rounding of the nonnegative real axis onto
    # it: sqrt amplifies an O(eps) imaginary part near 0 to O(sqrt(eps)).  Both
    # the clip and the threshold scale with L, so cL gives the same verdict
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
