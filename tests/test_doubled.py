import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netosc import build_matrices, from_edges, integrate_wave
from netosc.doubled import (
    NILPOTENT,
    SIGN2,
    SparseFactors,
    StructuredOperator,
    branch_sum,
    final_branch_sum,
    hat_H_spectral,
    hat_H_squared_expansion,
    hat_H_structured,
    integrate_doubled,
    interleave,
    lift_initial_conditions,
    offdiag_block_pattern,
    projection_identity_check,
    sparse_factors,
    sparsity_match,
    squared_expansion_residual,
    structured_step,
    sum_difference_run,
    theorem1_residual,
)
from netosc.dynamics import (
    Trajectory,
    _propagate,
    integrate_fundamental,
    recurrence_residual,
    wave_propagator,
)
from netosc.errors import DimensionMismatch, NumericalFailure, ZeroDegreeNode
from netosc.sqrt_ops import principal_sqrt

from conftest import (
    bundle_for,
    extract_minus,
    extract_plus,
    k3,
    kron_laplacian,
    path5,
    random_detailed_balance_graph,
    random_digraph,
    recurrence_bound,
    ring3,
    second_order_residual,
    star4,
    sym2,
    theorem1_bound,
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
    assert np.allclose(Hd @ Hd - Hd @ f.Ha, L, atol=1e-12)
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


def test_strided_operator_equals_its_kronecker_formula(rng):
    # the four strided views hold what Hd (x) SIGN2 - Ha (x) NILPOTENT holds, entry by entry
    for _ in range(20):
        f = sparse_factors(random_positive_outdegree_digraph(rng, int(rng.integers(3, 30))))
        want = np.kron(np.diag(f.d_sqrt), SIGN2) - np.kron(f.Ha, NILPOTENT)
        assert np.array_equal(hat_H_structured(f).matrix, want)


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
    # diag(d) - sym on the diagonal blocks, -mix on the off-diagonal ones
    g = random_positive_outdegree_digraph(rng, 6)
    f = sparse_factors(g)
    op = hat_H_structured(f)
    d, sym, mix = hat_H_squared_expansion(f)
    assert d.shape == (6,) and sym.shape == mix.shape == (6, 6)
    square = op.matrix @ op.matrix
    for rows, cols, want in [(0, 0, np.diag(d) - sym), (1, 1, np.diag(d) - sym),
                             (0, 1, -mix), (1, 0, -mix)]:
        assert np.allclose(square[rows::2, cols::2], want, atol=1e-10)
    assert np.array_equal(op.square, square)
    assert squared_expansion_residual(op) <= 1e-12


def test_squared_expansion_mix_nonzero_on_star():
    _, _, mix = hat_H_squared_expansion(sparse_factors(star4()))
    assert np.abs(mix).max() > 1e-3


def test_squared_expansion_diagonal_only():
    # synthetic diagonal-only factors: the square collapses to diag(d) (x) I
    f = SparseFactors(d_sqrt=np.array([2.0, 3.0]), Ha=np.zeros((2, 2)))
    d, sym, mix = hat_H_squared_expansion(f)
    op = hat_H_structured(f)
    assert not np.any(sym) and not np.any(mix)
    assert np.array_equal(d, [4.0, 9.0])
    assert np.allclose(op.matrix @ op.matrix, np.kron(np.diag(d), np.eye(2)), atol=1e-12)
    assert squared_expansion_residual(op) == 0.0


def _flip_block(matrix):
    matrix = matrix.copy()
    matrix[1::2, 0::2] *= -1
    return matrix


def _swap_off_diagonal_blocks(matrix):
    matrix = matrix.copy()
    matrix[0::2, 1::2], matrix[1::2, 0::2] = matrix[1::2, 0::2].copy(), matrix[0::2, 1::2].copy()
    return matrix


@pytest.mark.parametrize("mutate", [_flip_block, _swap_off_diagonal_blocks])
def test_eq19_fails_a_miswired_operator(mutate):
    # eq19 squares the assembled matrix, so a wrong sign or a swapped pair of blocks
    # shows; the swap leaves the diagonal blocks right and moves only the mix term,
    # which vanishes on a regular graph, so star4 (hub c, leaves l1-l3) is the case.
    # Each mutant is a new operator, since the square is cached on first read
    f = sparse_factors(star4())
    op = hat_H_structured(f)
    assert squared_expansion_residual(op) <= 1e-12
    assert squared_expansion_residual(StructuredOperator(mutate(op.matrix), f)) > 1e-12


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
    op, L = hat_H_structured(sparse_factors(star4())), build_matrices(star4())[2]
    assert projection_identity_check(op, np.zeros(8), L) == 0.0
    for _ in range(100):
        xh = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert projection_identity_check(op, xh, L) <= 1e-10
    assert projection_identity_check(op, np.zeros((3, 8)), L) == 0.0
    rows = rng.standard_normal((100, 8))
    assert projection_identity_check(op, rows, L) <= 1e-10
    # real rows take real products and read the value of the same rows cast to complex
    real, cast = (projection_identity_check(op, x, L) for x in (rows, rows + 0j))
    assert abs(real - cast) <= 1e-15


def test_projection_identity_reads_an_error_in_the_factors(rng):
    # a relative error of 1e-8 in Ha must read ~1e-8 against the graph's L; an L rebuilt
    # from the perturbed factors would hide it and read rounding (2.5e-16)
    for seed in range(3):
        g = random_digraph(np.random.default_rng(seed), 40)
        f, L = sparse_factors(g), build_matrices(g)[2]
        rows = rng.standard_normal((100, 2 * g.n))
        assert projection_identity_check(hat_H_structured(f), rows, L) <= 1e-13
        bad = hat_H_structured(SparseFactors(f.d_sqrt, f.Ha * (1 + 1e-8)))
        assert projection_identity_check(bad, rows, L) > 1e-10


def test_projection_identity_cancellation(rng):
    g = star4()
    f = sparse_factors(g)
    xp = rng.standard_normal(4)
    xh = interleave(xp, -xp)
    op = hat_H_structured(f)
    lhs = branch_sum(op.matrix @ (op.matrix @ xh))
    assert np.abs(lhs).max() <= 1e-10
    assert projection_identity_check(op, xh, build_matrices(g)[2]) <= 1e-10


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
    return _propagate(step, np.asarray(x_hat0, dtype=complex), t_end, dt)[1]


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



@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12))
def test_structured_and_wave_runs_agree_to_rounding(seed, n):
    # both runs take exact steps, so the structured run's branch sum sqrt2 s is the wave
    # run up to rounding that grows at most linearly in the rows: measured at most
    # 0.076 eps sqrt(n) rows max|x| on 60 graphs x 4 grids, a margin of 13 to this bound
    rng = np.random.default_rng(seed)
    g = random_digraph(rng, n)
    x0, v0 = rng.standard_normal(n), rng.standard_normal(n)
    L, f = build_matrices(g)[2], sparse_factors(g)
    op, x_hat0 = hat_H_structured(f), lift_initial_conditions(f, x0, v0)
    scale = np.sqrt(np.linalg.norm(L))
    for k in range(4):
        t_end, dt = 16 / scale, 0.08 / scale / 2**k
        run = sum_difference_run(op, x_hat0, t_end, dt)
        wave = integrate_wave(L, x0, v0, t_end=t_end, dt=dt).states
        bound = np.finfo(float).eps * np.sqrt(n) * len(wave) * np.abs(wave).max()
        assert np.abs(np.sqrt(2.0) * run.states[:, :n] - wave).max() <= bound


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    balanced=st.booleans(),
    dt=st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1, 1.5]),
)
@example(seed=10, n=4, balanced=True, dt=1.5)
@example(seed=1, n=2, balanced=False, dt=1e-3)
def test_steps_obey_theorem1_up_to_rounding(seed, n, balanced, dt):
    # Theorem 1 as one operator identity, S T = T E: the structured step and the
    # exact wave step agree through the lift T = diag(I, Hd^-1)/sqrt2.  At dt = 1.5 the
    # steps are squared: on the first example, a balanced 4-node graph, scipy's expm
    # reads 45.7 eps sqrt(n).  On the second, an expm that keeps I inside its Taylor
    # polynomial and its squarings reads 16 times the bound
    rng = np.random.default_rng(seed)
    g = random_detailed_balance_graph(rng, n) if balanced else random_digraph(rng, n)
    op = hat_H_structured(sparse_factors(g))
    S, E = structured_step(op, dt), wave_propagator(build_matrices(g)[2], dt)
    assert theorem1_residual(op, S, E) <= theorem1_bound(n)


def test_theorem1_holds_past_rk4s_stability_limit():
    # path5 at dt = 1.5: dt sqrt(lambda_max) = 2.85 > 2 sqrt2, where an RK4 reference run
    # grows to 460 from |x0| = 1; the identity and the exact wave run hold all the same.
    # The run's own inputs set its floor: the exact (40-digit) exponential of the rounded
    # structured generator, run these 133 steps, already sits 1.007e-12 from the exact
    # wave run, and other summation orders of the same runs read 0.90e-12 to 1.61e-12.
    # The bound is 8 times that floor, 5 times its worst reading; L (1 + 1e-8) reads 5.7e-7
    g, dt, steps, floor = path5(), 1.5, 133, 1.007e-12
    op = hat_H_structured(sparse_factors(g))
    S, E = structured_step(op, dt), wave_propagator(build_matrices(g)[2], dt)
    assert theorem1_residual(op, S, E) <= theorem1_bound(g.n)
    x0, v0 = np.eye(5)[0], np.zeros(5)
    got = final_branch_sum(op, S, x0, v0, t_end=steps * dt, dt=dt)
    want = (np.linalg.matrix_power(E, steps) @ np.concatenate([x0, v0]))[:5]
    assert np.abs(got - want).max() <= 8 * floor


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    balanced=st.booleans(),
    dt=st.sampled_from([1e-3, 1e-1, 1.5]),
)
def test_a_1e_8_operator_error_fails_theorem1(seed, n, balanced, dt):
    # L scaled by 1 + 1e-8, or one Ha entry, lifts the identity far above its bound;
    # the RK4 trajectory gap this replaced let such an error pass
    rng = np.random.default_rng(seed)
    g = random_detailed_balance_graph(rng, n) if balanced else random_digraph(rng, n)
    L, f = build_matrices(g)[2], sparse_factors(g)
    op = hat_H_structured(f)
    wrong_L = wave_propagator(L * (1 + 1e-8), dt)
    assert theorem1_residual(op, structured_step(op, dt), wrong_L) > theorem1_bound(n)
    Ha = f.Ha.copy()
    links = np.argwhere(Ha)
    Ha[tuple(links[rng.integers(len(links))])] *= 1 + 1e-8
    wrong_Ha = hat_H_structured(SparseFactors(f.d_sqrt, Ha))
    E = wave_propagator(L, dt)
    assert theorem1_residual(wrong_Ha, structured_step(wrong_Ha, dt), E) > theorem1_bound(n)


def test_a_non_lifted_run_fails_at_the_cut_of_its_real_part():
    # the real and the imaginary part of (s, w) are two runs of the real step; here
    # both overflow, the imaginary one first, and the error names the real part's cut
    f = sparse_factors(ring3())
    op = hat_H_structured(f)
    lifted = lift_initial_conditions(f, np.array([1.0, 0.0, 0.0]), np.zeros(3))

    def failure(x_hat0):
        with pytest.raises(NumericalFailure, match="^doubled state overflow at t=") as exc:
            sum_difference_run(op, x_hat0, t_end=200.0, dt=1e-2)
        return str(exc.value)

    real, imag = failure(lifted), failure(1e6 * lifted)
    assert float(imag.split("t=")[1]) < float(real.split("t=")[1])
    assert failure(lifted + 1e6j * lifted) == real


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    balanced=st.booleans(),
    dt=st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1]),
)
def test_steps_obey_the_three_term_recurrence_up_to_rounding(seed, n, balanced, dt):
    # eq22 as one operator identity, P(S + S^-1) = 2 cos(sqrt(K) dt) P: the structured
    # step under L and the fundamental steps U = expm(-+i Omega dt) under Lambda
    rng = np.random.default_rng(seed)
    g = random_detailed_balance_graph(rng, n) if balanced else random_digraph(rng, n)
    L = build_matrices(g)[2]
    S = structured_step(hat_H_structured(sparse_factors(g)), dt)
    assert recurrence_residual(S, wave_propagator(L, dt), L, dt) <= recurrence_bound(L, dt)
    b = bundle_for(g)
    for sign in "+-":
        U = integrate_fundamental(b.Omega, np.zeros(n), sign, t_end=0.0, dt=dt).meta["step"]
        wave = wave_propagator(b.Lambda, dt)
        assert recurrence_residual(U, wave, b.Lambda, dt) <= recurrence_bound(b.Lambda, dt)


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30), balanced=st.booleans())
def test_a_1e_8_operator_error_fails_the_recurrence_not_the_centered_difference(
    seed, n, balanced
):
    # scale L, Lambda or Omega by 1 + 1e-8: the recurrence residual reads about 1e-8
    # (2e-8 for Omega), above its rounding bound, while the centered difference of the
    # same run stays at its O(dt^2) truncation floor, far under its 1e-5 bound
    rng = np.random.default_rng(seed)
    g = random_detailed_balance_graph(rng, n) if balanced else random_digraph(rng, n)
    L, dt, t_end, wrong = build_matrices(g)[2], 1e-3, 1.0, 1 + 1e-8
    f = sparse_factors(g)
    op = hat_H_structured(f)
    x_hat0 = lift_initial_conditions(f, rng.standard_normal(n), rng.standard_normal(n))
    run = sum_difference_run(op, x_hat0, t_end, dt)
    branch_sum = Trajectory(run.times, np.sqrt(2.0) * run.states[:, :n])
    b = bundle_for(g)
    psi0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fundamental = integrate_fundamental(b.Omega, psi0, "+", t_end, dt)
    wrong_omega = integrate_fundamental(b.Omega * wrong, psi0, "+", t_end, dt)
    cases = [
        (branch_sum, structured_step(op, dt), L * wrong),
        (fundamental, fundamental.meta["step"], b.Lambda * wrong),
        (wrong_omega, wrong_omega.meta["step"], b.Lambda),
    ]
    for traj, step, K in cases:
        assert recurrence_residual(step, wave_propagator(K, dt), K, dt) > recurrence_bound(K, dt)
        assert second_order_residual(traj, K) <= 1e-5
