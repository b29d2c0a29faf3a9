import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netosc import build_matrices, from_edges, integrate_wave
from netosc.doubled import (
    NILPOTENT,
    SIGN2,
    branch_sum,
    hat_H_spectral,
    hat_H_squared_expansion,
    hat_H_structured,
    integrate_doubled,
    interleave,
    laplacian_from_factors,
    lift_initial_conditions,
    offdiag_block_pattern,
    projection_identity_check,
    sparse_factors,
    sparsity_match,
    sum_difference_run,
    theorem1_checks,
)
from netosc.dynamics import Trajectory, _grid, _propagate, second_order_residual
from netosc.errors import DimensionMismatch, NumericalFailure, ZeroDegreeNode
from netosc.sqrt_ops import principal_sqrt

from conftest import (
    extract_minus,
    extract_plus,
    k3,
    kron_laplacian,
    path5,
    random_detailed_balance_graph,
    random_digraph,
    star4,
    sym2,
)


def random_positive_outdegree_digraph(rng, n):
    # ring base guarantees every node keeps an out-link
    return random_digraph(rng, n)


def test_interleave_round_trip(rng):
    xp = rng.standard_normal(5)
    xm = rng.standard_normal(5)
    xh = interleave(xp, xm)
    assert np.array_equal(extract_plus(xh), xp)
    assert np.array_equal(extract_minus(xh), xm)
    assert np.array_equal(interleave(extract_plus(xh), extract_minus(xh)), xh)


def test_kron_laplacian_blocks():
    L = np.array([[1.0, -1.0], [0.0, 0.0]])
    Lh = kron_laplacian(L)
    assert Lh.shape == (4, 4)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(Lh[2 * i : 2 * i + 2, 2 * j : 2 * j + 2], L[i, j] * np.eye(2))


def test_kron_laplacian_zero():
    assert not np.any(kron_laplacian(np.zeros((3, 3))))


def test_kron_laplacian_index_formula(rng):
    L = rng.standard_normal((3, 3))
    Lh = kron_laplacian(L)
    for p in range(6):
        for q in range(6):
            expected = L[p // 2, q // 2] if p % 2 == q % 2 else 0.0
            assert Lh[p, q] == expected


def test_hat_H_spectral_squares_to_doubled_laplacian():
    _, _, L = build_matrices(sym2())
    H = L / np.sqrt(2.0)
    H_hat = hat_H_spectral(H)
    assert np.allclose(H_hat @ H_hat, kron_laplacian(L), atol=1e-12)


def test_hat_H_spectral_zero():
    assert not np.any(hat_H_spectral(np.zeros((3, 3))))


def test_hat_H_spectral_inherits_fill_in():
    g = path5()
    _, _, L = build_matrices(g)
    H = principal_sqrt(L).real
    pattern = offdiag_block_pattern(hat_H_spectral(H), tol=1e-8)
    assert np.any(pattern & ~(g.adjacency() > 0))


def test_sparse_factors_star():
    g = star4()
    f = sparse_factors(g)
    assert np.allclose(f.d_sqrt, [np.sqrt(3.0), 1.0, 1.0, 1.0])
    assert np.allclose(f.Ha[0, 1:], 1 / np.sqrt(3.0))
    assert np.allclose(f.Ha[1:, 0], 1.0)
    A, D, L = build_matrices(g)
    Hd = np.diag(f.d_sqrt)
    assert np.allclose(Hd @ Hd, D, atol=1e-12)
    assert np.allclose(Hd @ f.Ha, A, atol=1e-12)
    assert np.allclose(laplacian_from_factors(f), L, atol=1e-12)
    assert np.array_equal(f.Ha != 0, A != 0)


def test_sparse_factors_symmetric_pair():
    g = sym2()
    f = sparse_factors(g)
    assert np.array_equal(f.d_sqrt, np.ones(2))
    assert np.array_equal(f.Ha, g.adjacency())


def test_sparse_factors_sink_rejected():
    with pytest.raises(ZeroDegreeNode):
        sparse_factors(from_edges([("1", "2", 1.0)]))


def test_nilpotent_factor():
    assert not np.any(NILPOTENT @ NILPOTENT)
    assert np.array_equal(SIGN2 @ SIGN2, np.eye(2))


def test_structured_pattern_matches_adjacency(rng):
    for _ in range(20):
        g = random_positive_outdegree_digraph(rng, int(rng.integers(3, 12)))
        assert sparsity_match(hat_H_structured(sparse_factors(g)), g)


def test_structured_square_differs_from_doubled_laplacian_on_star():
    g = star4()
    op = hat_H_structured(sparse_factors(g))
    Lh = kron_laplacian(build_matrices(g)[2])
    assert np.linalg.norm(op.matrix @ op.matrix - Lh) > 1e-3


def test_structured_square_equals_doubled_laplacian_on_regular():
    g = k3()
    f = sparse_factors(g)
    op = hat_H_structured(f)
    _, _, termMix = hat_H_squared_expansion(f)
    assert not np.any(np.abs(termMix) > 1e-12)
    assert np.allclose(op.matrix @ op.matrix, kron_laplacian(build_matrices(g)[2]), atol=1e-10)


def test_squared_expansion_sums_to_square(rng):
    g = random_positive_outdegree_digraph(rng, 6)
    f = sparse_factors(g)
    op = hat_H_structured(f)
    termD, termSym, termMix = hat_H_squared_expansion(f)
    assert np.allclose(termD - termSym - termMix, op.matrix @ op.matrix, atol=1e-10)


def test_squared_expansion_mix_nonzero_on_star():
    _, _, termMix = hat_H_squared_expansion(sparse_factors(star4()))
    assert np.abs(termMix).max() > 1e-3


def test_squared_expansion_diagonal_only():
    # synthetic diagonal-only factors: the square collapses to one term
    from netosc.doubled import SparseFactors

    f = SparseFactors(d_sqrt=np.array([2.0, 3.0]), Ha=np.zeros((2, 2)))
    termD, termSym, termMix = hat_H_squared_expansion(f)
    op = hat_H_structured(f)
    assert not np.any(termSym) and not np.any(termMix)
    assert np.allclose(op.matrix @ op.matrix, termD, atol=1e-12)


def test_integrate_doubled_uniform_state(rng):
    g = random_positive_outdegree_digraph(rng, 5)
    f = sparse_factors(g)
    op = hat_H_structured(f)
    xh0 = interleave(0.5 * np.ones(5), 0.5 * np.ones(5))
    traj = integrate_doubled(op, xh0, t_end=1.0, dt=1e-3)
    s = branch_sum(traj.states)
    assert np.abs(s - 1.0).max() <= 1e-9


def test_integrate_doubled_recovers_wave_equation(rng):
    g = random_positive_outdegree_digraph(rng, 4)
    f = sparse_factors(g)
    op = hat_H_structured(f)
    xh0 = lift_initial_conditions(f, rng.standard_normal(4), rng.standard_normal(4))
    traj = integrate_doubled(op, xh0, t_end=2.0, dt=1e-3)
    s = branch_sum(traj.states)
    _, _, L = build_matrices(g)
    resid = second_order_residual(Trajectory(times=traj.times, states=s), L)
    assert resid <= 1e-5


def test_lift_zero_velocity(rng):
    g = star4()
    f = sparse_factors(g)
    x0 = rng.standard_normal(4)
    xh = lift_initial_conditions(f, x0, np.zeros(4))
    assert np.allclose(extract_plus(xh), x0 / 2)
    assert np.allclose(extract_minus(xh), x0 / 2)


def test_lift_unit_velocity_hand_value():
    g = star4()
    f = sparse_factors(g)
    e0 = np.zeros(4)
    e0[0] = 1.0
    xh = lift_initial_conditions(f, np.zeros(4), e0)
    expected = 1j / (2 * np.sqrt(3.0))
    assert np.allclose(extract_plus(xh), [expected, 0, 0, 0])
    assert np.allclose(extract_minus(xh), [-expected, 0, 0, 0])
    # numerical check that s'(0) = e0
    op = hat_H_structured(f)
    traj = integrate_doubled(op, xh, t_end=0.01, dt=1e-4)
    s = branch_sum(traj.states)
    sdot0 = (s[1] - s[0]) / 1e-4
    assert np.abs(sdot0 - e0).max() <= 1e-3


def test_doubled_sum_matches_wave(rng):
    g = random_positive_outdegree_digraph(rng, 5)
    f = sparse_factors(g)
    op = hat_H_structured(f)
    x0 = rng.standard_normal(5)
    v0 = rng.standard_normal(5)
    traj = integrate_doubled(op, lift_initial_conditions(f, x0, v0), t_end=5.0, dt=1e-3)
    s = branch_sum(traj.states)
    wave = integrate_wave(build_matrices(g)[2], x0, v0, t_end=5.0, dt=1e-3)
    assert np.abs(s - wave.states).max() <= 1e-5


def test_projection_identity(rng):
    op = hat_H_structured(sparse_factors(star4()))
    assert projection_identity_check(op, np.zeros(8)) == 0.0
    for _ in range(100):
        xh = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert projection_identity_check(op, xh) <= 1e-10
    assert projection_identity_check(op, np.zeros((3, 8))) == 0.0
    assert projection_identity_check(op, rng.standard_normal((100, 8))) <= 1e-10


def test_projection_identity_cancellation(rng):
    g = star4()
    f = sparse_factors(g)
    xp = rng.standard_normal(4)
    xh = interleave(xp, -xp)
    op = hat_H_structured(f)
    lhs = branch_sum(op.matrix @ (op.matrix @ xh))
    assert np.abs(lhs).max() <= 1e-10
    assert projection_identity_check(op, xh) <= 1e-10


def test_infeasibility_witness_report():
    # X is singular, so no Y with X Y = E exists; the relaxed X^2 = O holds
    assert np.linalg.det(NILPOTENT) == 0.0
    assert np.array_equal(NILPOTENT @ NILPOTENT, np.zeros((2, 2)))


def test_lift_rejects_short_velocity():
    f = sparse_factors(star4())
    with pytest.raises(DimensionMismatch):
        lift_initial_conditions(f, np.zeros(4), np.ones(1))


def literal_complex_run(op, x_hat0, t_end, dt):
    """The doubled run as the equation states it: complex x_hat stepped by expm(-i H_hat dt)."""
    step = scipy.linalg.expm(-1j * op.matrix * dt)
    return _propagate(step, np.asarray(x_hat0, dtype=complex), _grid(t_end, dt))


def wide_weight_digraph(seed, n, low=-6.0, high=6.0):
    """random_digraph's links with weights 10^u, u uniform in [low, high]."""
    rng = np.random.default_rng(seed)
    base = random_digraph(rng, n)
    weights = 10.0 ** rng.uniform(low, high, size=len(base.edges))
    return from_edges(
        [(base.labels[s], base.labels[d], w) for (s, d, _), w in zip(base.edges, weights)]
    )


def sum_difference_rotation(n):
    """Orthogonal R with R x_hat = (s, d), s = (x+ + x-)/sqrt2, d = (x+ - x-)/sqrt2."""
    eye = np.eye(n)
    return np.vstack([np.kron(eye, [1.0, 1.0]), np.kron(eye, [1.0, -1.0])]) / np.sqrt(2.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    lifted=st.booleans(),
)
def test_integrate_doubled_matches_the_literal_complex_run(seed, n, lifted):
    rng = np.random.default_rng(seed)
    g = random_digraph(rng, n)
    f = sparse_factors(g)
    op = hat_H_structured(f)
    if lifted:
        x_hat0 = lift_initial_conditions(f, rng.standard_normal(n), rng.standard_normal(n))
    else:
        x_hat0 = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    traj = integrate_doubled(op, x_hat0, t_end=2.0, dt=1e-2)
    oracle = literal_complex_run(op, x_hat0, 2.0, 1e-2)
    assert traj.states.shape == oracle.shape
    err = np.linalg.norm(traj.states - oracle, axis=1) / np.linalg.norm(oracle, axis=1)
    assert err.max() <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60))
def test_rotated_structured_operator_is_block_off_diagonal(seed, n):
    g = wide_weight_digraph(seed, n)
    f = sparse_factors(g)
    R = sum_difference_rotation(n)
    rotated = R @ hat_H_structured(f).matrix @ R.T
    zero = np.zeros((n, n))
    Hd = np.diag(f.d_sqrt)
    want = np.block([[zero, Hd], [Hd - f.Ha, zero]])
    assert np.linalg.norm(rotated - want) <= 1e-14 * np.linalg.norm(want)

    L = build_matrices(g)[2]
    similar = L * f.d_sqrt[None, :] / f.d_sqrt[:, None]      # Hd^-1 L Hd
    square = rotated @ rotated
    assert np.linalg.norm(square[:n, :n] - L) <= 1e-14 * np.linalg.norm(L)
    assert np.linalg.norm(square[n:, n:] - similar) <= 1e-14 * np.linalg.norm(similar)
    off = np.linalg.norm(square[:n, n:]) + np.linalg.norm(square[n:, :n])
    assert off <= 1e-14 * np.linalg.norm(L)


def test_interleave_stacked_rows(rng):
    xp = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    xm = rng.standard_normal((3, 4))
    stacked = interleave(xp, xm)
    assert stacked.shape == (3, 8)
    for row, p, m in zip(stacked, xp, xm):
        assert np.array_equal(row, interleave(p, m))



def theorem1_gap(g, x0, v0, t_end, dt):
    """Sup gap between the structured run's branch sum and the RK4 wave run."""
    f = sparse_factors(g)
    run = sum_difference_run(hat_H_structured(f), lift_initial_conditions(f, x0, v0), t_end, dt)
    wave = integrate_wave(build_matrices(g)[2], x0, v0, t_end=t_end, dt=dt)
    return np.abs(np.sqrt(2.0) * run.states[:, : g.n] - wave.states).max()


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12))
def test_theorem1_gap_falls_at_rk4_order(seed, n):
    # the structured run is exact up to rounding, so the gap is RK4's error:
    # each halving of dt divides it by about 2^4 = 16
    rng = np.random.default_rng(seed)
    g = random_digraph(rng, n)
    x0, v0 = rng.standard_normal(n), rng.standard_normal(n)
    scale = np.sqrt(np.linalg.norm(build_matrices(g)[2]))
    gaps = [theorem1_gap(g, x0, v0, 16 / scale, 0.08 / scale / 2**k) for k in range(4)]
    ratios = np.divide(gaps[:-1], gaps[1:])
    assert np.all((12 <= ratios) & (ratios <= 20)), ratios


def stored_theorem1_checks(op, L, x0, v0, t_end, dt):
    """theorem1_checks from the stored runs: final branch sum, gap, eq22, wave rows."""
    run = sum_difference_run(op, lift_initial_conditions(op.factors, x0, v0), t_end, dt)
    s = np.sqrt(2.0) * run.states[:, : len(x0)]
    wave = integrate_wave(L, x0, v0, t_end=t_end, dt=dt)
    gap = np.abs(s[: len(wave.states)] - wave.states).max()
    return s[-1], gap, second_order_residual(Trajectory(run.times, s), L), len(wave.states)


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    # 3 and 4 rows, a perfect square, square + 1, a prime and the default grid
    rows=st.sampled_from([3, 4, 49, 50, 97, 10_001]),
    balanced=st.booleans(),
    stiff=st.booleans(),
)
@example(seed=1, n=40, rows=10_001, balanced=True, stiff=False)     # both runs end well
@example(seed=1, n=12, rows=10_001, balanced=True, stiff=True)      # the wave run diverges
@example(seed=1, n=12, rows=10_001, balanced=False, stiff=False)    # the structured run overflows
def test_streamed_theorem1_checks_match_the_stored_runs(seed, n, rows, balanced, stiff):
    rng = np.random.default_rng(seed)
    g = random_detailed_balance_graph(rng, n) if balanced else random_digraph(rng, n)
    L = build_matrices(g)[2]
    op = hat_H_structured(sparse_factors(g))
    x0, v0 = rng.standard_normal(n), rng.standard_normal(n)
    # dt * omega_max = 4 is outside RK4's stability interval (|z| <= 2.83), so a stiff
    # wave run diverges within a few dozen rows while the exact structured run does not
    dt = (4.0 if stiff else 0.05) / np.sqrt(np.abs(np.linalg.eigvals(L)).max())
    t_end = (rows - 1) * dt
    try:
        want_final, want_gap, want_eq22, wave_rows = stored_theorem1_checks(
            op, L, x0, v0, t_end, dt
        )
    except NumericalFailure as want:
        with pytest.raises(NumericalFailure) as got:
            theorem1_checks(op, L, x0, v0, t_end, dt, eq22=True)
        assert str(got.value) == str(want)
        return
    if balanced and stiff and rows > 40:
        assert wave_rows < rows
    final, gap, eq22 = theorem1_checks(op, L, x0, v0, t_end, dt, eq22=True)
    assert np.abs(final - want_final).max() <= 1e-12 * np.abs(want_final).max()
    assert abs(gap - want_gap) <= 1e-12 * want_gap
    assert abs(eq22 - want_eq22) <= 1e-12 * want_eq22
    assert theorem1_checks(op, L, x0, v0, t_end, dt)[2] is None
