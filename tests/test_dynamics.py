import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from netosc import (
    build_bundle,
    build_matrices,
    degree_centrality_energy,
    doubled,
    flaming_indicator,
    from_edges,
    integrate_fundamental,
    integrate_wave,
    node_energy,
    product_form_solve,
    spectral_decomposition,
    superpose,
)
from netosc.errors import (
    DimensionMismatch, GridMismatch, ModelViolation, NotSymmetrizable, NumericalFailure,
)
from netosc.dynamics import (
    _TAYLOR,
    MAX_STEPS,
    OVERFLOW_LIMIT,
    Trajectory,
    _blocks,
    _propagate,
    _taylor_choice,
    grid_rows,
    offdiag_expm,
    recurrence_residual,
    wave_energy_series,
    wave_propagator,
)

from conftest import (
    first_order_residual,
    k3,
    path3,
    random_detailed_balance_graph,
    random_digraph,
    random_symmetric_graph,
    ring3,
    second_order_residual,
    square_bytes,
    star4,
    sym2,
    symmetrized_form,
    traced_peak,
)


def test_wave_two_node_closed_form():
    _, _, L = build_matrices(sym2())
    traj = integrate_wave(L, np.array([1.0, 0.0]), np.zeros(2), t_end=1.0, dt=1e-3)
    t = traj.times
    expected = np.stack(
        [(1 + np.cos(np.sqrt(2) * t)) / 2, (1 - np.cos(np.sqrt(2) * t)) / 2], axis=1
    )
    assert np.abs(traj.states - expected).max() <= 1e-6


def test_wave_constant_on_uniform_state(rng):
    g = random_digraph(rng, 6)
    _, _, L = build_matrices(g)
    traj = integrate_wave(L, 3.0 * np.ones(6), np.zeros(6), t_end=2.0, dt=1e-3)
    assert np.abs(traj.states - 3.0).max() <= 1e-9


def test_wave_divergence_matches_indicator():
    _, _, L = build_matrices(ring3())
    ind = flaming_indicator(L)
    traj = integrate_wave(L, np.array([1.0, 0.0, 0.0]), np.zeros(3), t_end=30.0, dt=1e-3)
    mask = traj.times >= 10.0
    slope = np.polyfit(traj.times[mask], np.log(np.linalg.norm(traj.states[mask], axis=1)), 1)[0]
    assert abs(slope - ind.growth_rate) <= 0.05 * ind.growth_rate


def test_wave_energy_conservation(rng):
    g = random_detailed_balance_graph(rng, 7)
    _, sd = spectral_decomposition(g)
    _, _, L = build_matrices(g)
    x0 = rng.standard_normal(7)
    traj = integrate_wave(L, x0, rng.standard_normal(7), t_end=10.0, dt=1e-3)
    E = wave_energy_series(traj, sd)
    assert (E.max() - E.min()) / max(E.max(), 1e-30) <= 1e-6


def test_fundamental_diagonal_evolution():
    Omega = np.diag([0.0, np.sqrt(2.0)])
    traj = integrate_fundamental(Omega, np.array([1.0, 1.0]), "+", t_end=1.0, dt=1e-3)
    expected = np.stack(
        [np.ones_like(traj.times), np.exp(-1j * np.sqrt(2) * traj.times)], axis=1
    )
    assert np.abs(traj.states - expected).max() <= 1e-10


def test_fundamental_zero_state(rng):
    g = random_digraph(rng, 4)
    b = build_bundle(g)
    traj = integrate_fundamental(b.Omega, np.zeros(4, dtype=complex), "-", t_end=1.0, dt=1e-2)
    assert not np.any(traj.states)


def test_fundamental_satisfies_second_order(rng):
    g = random_detailed_balance_graph(rng, 8)
    b = build_bundle(g)
    psi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for sign in "+-":
        traj = integrate_fundamental(b.Omega, psi0, sign, t_end=2.0, dt=1e-3)
        assert second_order_residual(traj, b.Lambda) <= 1e-5


def test_superpose_trivial_combination(rng):
    b = build_bundle(sym2())
    psi0 = np.array([1.0, 1.0], dtype=complex)
    tp = integrate_fundamental(b.Omega, psi0, "+", t_end=1.0, dt=1e-3)
    tm = integrate_fundamental(b.Omega, psi0, "-", t_end=1.0, dt=1e-3)
    combo = superpose(tp, tm, 1.0, 0.0)
    assert np.array_equal(combo.states, tp.states)


def test_superpose_conjugate_pair_is_real():
    b = build_bundle(sym2())
    psi0 = np.array([1.0, 1.0], dtype=complex)
    tp = integrate_fundamental(b.Omega, psi0, "+", t_end=1.0, dt=1e-3)
    tm = integrate_fundamental(b.Omega, psi0, "-", t_end=1.0, dt=1e-3)
    combo = superpose(tp, tm, 0.5, 0.5)
    assert np.abs(combo.states.imag).max() <= 1e-10


def test_superpose_generic_fails_first_order():
    # the documented two-node witness: second-order holds, first-order breaks
    b = build_bundle(sym2())
    psi0 = np.array([1.0, 1.0], dtype=complex)
    tp = integrate_fundamental(b.Omega, psi0, "+", t_end=1.0, dt=1e-3)
    tm = integrate_fundamental(b.Omega, psi0, "-", t_end=1.0, dt=1e-3)
    combo = superpose(tp, tm, 0.3, 0.9)
    assert second_order_residual(combo, b.Lambda) <= 1e-5
    assert first_order_residual(combo, b.Omega, "+") > 1e-3
    assert first_order_residual(combo, b.Omega, "-") > 1e-3


@pytest.mark.parametrize("fill", [0.0, np.inf, np.nan])
def test_recurrence_residual_of_a_singular_or_non_finite_step_fails(fill):
    K, dt = np.eye(2), 1e-3
    with pytest.raises(NumericalFailure):
        recurrence_residual(np.full((4, 4), fill), wave_propagator(K, dt), K, dt)


def test_superpose_grid_mismatch(rng):
    b = build_bundle(sym2())
    psi0 = np.array([1.0, 1.0], dtype=complex)
    tp = integrate_fundamental(b.Omega, psi0, "+", t_end=1.0, dt=1e-3)
    tm = integrate_fundamental(b.Omega, psi0, "-", t_end=0.5, dt=1e-3)
    with pytest.raises(GridMismatch):
        superpose(tp, tm, 1.0, 1.0)


def test_product_form_free_case(rng):
    g = random_symmetric_graph(rng, 5)
    b = build_bundle(g)
    psi0 = rng.standard_normal(5).astype(complex)
    traj, traj_I = product_form_solve(b.omega0, b.OmegaI, psi0, "+", t_end=1.0, dt=1e-3)
    assert np.abs(traj_I.states - psi0).max() <= 1e-12
    assert np.allclose(traj.states[0], psi0)


def test_product_form_matches_direct(rng):
    g = random_digraph(rng, 6)
    b = build_bundle(g)
    psi0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for sign in "+-":
        traj, _ = product_form_solve(b.omega0, b.OmegaI, psi0, sign, t_end=5.0, dt=1e-3)
        direct = integrate_fundamental(b.Omega, psi0, sign, t_end=5.0, dt=1e-3)
        assert np.abs(traj.states - direct.states).max() <= 1e-5


def test_product_form_rejects_a_matrix_of_root_frequencies():
    # a dense Omega0 was once accepted and all but its diagonal silently dropped
    b = build_bundle(ring3())
    with pytest.raises(DimensionMismatch):
        product_form_solve(b.Omega0, b.OmegaI, np.ones(3, dtype=complex), t_end=0.1, dt=1e-2)


@pytest.mark.parametrize("sign", ["plus", "", "+-", None])
def test_first_order_solvers_reject_an_unknown_sign(sign):
    # product_form_solve once ran the '-' equation for anything but '+'
    b = build_bundle(ring3())
    psi0 = np.ones(3, dtype=complex)
    with pytest.raises(ValueError, match="sign must be"):
        integrate_fundamental(b.Omega, psi0, sign, t_end=0.1, dt=1e-2)
    with pytest.raises(ValueError, match="sign must be"):
        product_form_solve(b.omega0, b.OmegaI, psi0, sign, t_end=0.1, dt=1e-2)


def test_node_energy_star_unit_amplitudes():
    g = star4()
    split, sd = spectral_decomposition(g)
    report = node_energy(sd, np.ones(4), split=split)
    assert np.allclose(report.per_node, [1.5, 0.5, 0.5, 0.5], atol=1e-9)
    assert abs(report.per_node.sum() - report.total) <= 1e-9


def test_node_energy_zero_amplitudes(rng):
    g = random_symmetric_graph(rng, 5)
    _, sd = spectral_decomposition(g)
    report = node_energy(sd, np.zeros(5))
    assert report.total == 0.0
    assert not np.any(report.per_node)


def test_node_energy_single_mode(rng):
    g = random_symmetric_graph(rng, 6)
    _, sd = spectral_decomposition(g)
    a = np.zeros(6)
    a[3] = 1.0
    report = node_energy(sd, a)
    lam = sd.eigenvalues[3]
    assert np.allclose(report.per_node, 0.5 * lam * sd.P[:, 3] ** 2, atol=1e-12)
    assert abs(report.total - 0.5 * lam) <= 1e-12


def test_degree_centrality_path():
    assert np.allclose(degree_centrality_energy(path3()).per_node, [0.5, 1.0, 0.5], atol=1e-9)


def test_degree_centrality_complete_graph():
    assert np.allclose(degree_centrality_energy(k3()).per_node, [1.0, 1.0, 1.0], atol=1e-9)


def test_degree_centrality_weighted(rng):
    g = random_symmetric_graph(rng, 7, weighted=True)
    split, _ = spectral_decomposition(g)
    report = degree_centrality_energy(g)
    S0 = symmetrized_form(split.L0, split.m)
    assert np.allclose(report.per_node, np.diag(S0) / 2, atol=1e-9)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    balanced=st.booleans(),
)
def test_unit_amplitude_energy_is_half_the_degree(seed, n, balanced):
    # the degree/2 law: diag(S0) = diag(L) is the out-degree d, so each node holds
    # d/2 and the total is sum(d)/2, up to the rounding of P^2 (lambda) in mode space;
    # the spectral energy is the oracle of degree_centrality_energy, which reads d
    rng = np.random.default_rng(seed)
    if balanced:
        g = random_detailed_balance_graph(rng, n)
    else:
        g = random_symmetric_graph(rng, n, weighted=True)
    d = np.diag(build_matrices(g)[2])
    split, sd = spectral_decomposition(g)
    spectral = node_energy(sd, np.ones(n), split=split)
    assert np.all(np.abs(spectral.per_node - d / 2) <= 1e-13 * d / 2)
    assert abs(spectral.total - d.sum() / 2) <= 1e-13 * d.sum() / 2
    report = degree_centrality_energy(g)
    assert np.all(np.abs(report.per_node - spectral.per_node) <= 1e-13 * d / 2)
    assert abs(report.total - spectral.total) <= 1e-13 * d.sum() / 2


def test_degree_centrality_rejects_one_way():
    with pytest.raises(NotSymmetrizable, match="^energy centrality requires a symmetrizable graph$"):
        degree_centrality_energy(ring3())


def test_degree_centrality_builds_no_dense_matrix():
    # a bidirected ring with 4000 nodes: one dense n x n array would be 128 MB
    n = 4000
    edges = [(str(i), str((i + 1) % n), 1.0 + i % 3) for i in range(n)]
    g = from_edges(edges + [(d, s, w) for s, d, w in edges])
    report = degree_centrality_energy(g)
    weights = 1.0 + np.arange(n) % 3
    assert np.array_equal(report.per_node, (weights + np.roll(weights, 1)) / 2)
    # 4 MiB
    assert traced_peak(lambda: degree_centrality_energy(g)) < 0.032768 * square_bytes(n)


def test_degree_centrality_runs_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    report = degree_centrality_energy(path3())
    assert report.per_node.tolist() == [0.5, 1.0, 0.5] and report.total == 2.0


def test_degree_centrality_passes_a_numerical_failure_through():
    # m_c leaves the normal float range: check_symmetrizable cannot decide the graph
    g = from_edges([("a", "b", 1e-150), ("b", "a", 1.0), ("b", "c", 1e-165), ("c", "b", 3.0)])
    with pytest.raises(NumericalFailure, match="symmetrizing weights m fall outside"):
        degree_centrality_energy(g)


def test_flaming_symmetrizable_is_stable(rng):
    g = random_detailed_balance_graph(rng, 8)
    _, _, L = build_matrices(g)
    ind = flaming_indicator(L)
    assert ind.verdict == "stable"
    assert ind.growth_rate <= 1e-9


def test_flaming_ring_hand_value():
    _, _, L = build_matrices(ring3())
    ind = flaming_indicator(L)
    # eigenvalues 0 and 3/2 +- i sqrt(3)/2; root modulus 3^{1/4}, angle 15 deg
    assert abs(ind.growth_rate - 3**0.25 * np.sin(np.radians(15.0))) <= 1e-9
    assert ind.verdict == "divergent"


def test_flaming_one_way_pair_is_stable():
    from netosc import from_edges

    _, _, L = build_matrices(from_edges([("1", "2", 1.0)]))
    ind = flaming_indicator(L)
    assert ind.verdict == "stable"


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 10),
    exponent=st.floats(-12.0, 12.0),
)
def test_flaming_is_scale_invariant(seed, n, exponent):
    # L -> cL scales every sqrt(lambda), so the rate by sqrt(c); the verdict stays
    L = build_matrices(random_digraph(np.random.default_rng(seed), n))[2]
    c = 10.0**exponent
    base, scaled = flaming_indicator(L), flaming_indicator(c * L)
    assert scaled.growth_rate == pytest.approx(np.sqrt(c) * base.growth_rate, rel=1e-6, abs=0)
    assert scaled.verdict == base.verdict


@given(k=st.integers(3, 100), exponent=st.floats(-6.0, 6.0))
def test_flaming_directed_ring_matches_its_spectrum(k, exponent):
    # L = c (I - shift) has eigenvalues c (1 - e^{2 pi i j / k}), so the rate
    # is sqrt(c) max_j |Im sqrt(1 - e^{2 pi i j / k})|
    c = 10.0**exponent
    L = c * (np.eye(k) - np.roll(np.eye(k), 1, axis=1))
    want = np.sqrt(c) * np.abs(np.sqrt(1 - np.exp(2j * np.pi * np.arange(k) / k)).imag).max()
    ind = flaming_indicator(L)
    assert abs(ind.growth_rate - want) <= 1e-14 * np.sqrt(c)
    assert ind.verdict == "divergent"


def test_wave_divergence_truncates():
    _, _, L = build_matrices(ring3())
    # push far enough that |x| passes the 1e12 guard (rate ~0.34: t ~ 90)
    traj = integrate_wave(L, np.array([1.0, 0.0, 0.0]), np.zeros(3), t_end=120.0, dt=1e-2)
    assert "diverged_at" in traj.meta
    assert traj.times[-1] < 120.0


def grid_runs():
    """Each library entry point that steps a grid, as a function of (t_end, dt)."""
    g = star4()
    L = build_matrices(g)[2]
    b = build_bundle(g)
    op = doubled.hat_H_structured(doubled.sparse_factors(g))
    x0, v0, psi0 = np.ones(4), np.zeros(4), np.ones(4, dtype=complex)
    return {
        "wave": lambda t_end, dt: integrate_wave(L, x0, v0, t_end, dt),
        "fundamental": lambda t_end, dt: integrate_fundamental(b.Omega, psi0, "+", t_end, dt),
        "product-form": lambda t_end, dt: product_form_solve(
            np.diag(b.Omega0), b.OmegaI, psi0, "+", t_end, dt
        ),
        "doubled": lambda t_end, dt: doubled.integrate_doubled(
            op, doubled.lift_initial_conditions(op.factors, x0, v0), t_end, dt
        ),
        "theorem1": lambda t_end, dt: doubled.final_branch_sum(
            op, doubled.structured_step(op, dt), x0, v0, t_end, dt
        ),
    }


@pytest.mark.parametrize("entry", ["wave", "fundamental", "product-form", "doubled", "theorem1"])
@pytest.mark.parametrize(
    ("t_end", "dt"),
    [(math.inf, 1e-3), (math.nan, 1e-3), (-1.0, 1e-3), (1.0, math.inf), (1.0, math.nan),
     (1.0, 0.0), (1.0, -1e-3), (1e300, 1e-300), (1e20, 1e-3)],
    ids=["t-inf", "t-nan", "t-negative", "dt-inf", "dt-nan", "dt-0", "dt-negative",
         "ratio-inf", "too-many-steps"],
)
def test_a_bad_grid_fails_with_one_package_error(entry, t_end, dt):
    with pytest.raises(GridMismatch, match=r"^grid needs finite t_end >= 0, dt > 0 and t_end/dt"):
        grid_runs()[entry](t_end, dt)


def test_the_step_bound_itself_is_a_valid_grid():
    assert grid_rows(MAX_STEPS, 1.0) == MAX_STEPS + 1
    with pytest.raises(GridMismatch):
        grid_rows(math.nextafter(MAX_STEPS, math.inf), 1.0)


def sequential_run(step, y0, rows, watch=slice(None)):
    """step @ y one row at a time, cut before the first row k >= 1 whose largest watched
    component is non-finite or exceeds OVERFLOW_LIMIT: the oracle of _propagate."""
    ys = [np.asarray(y0, dtype=np.result_type(step, y0))]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(ys) < rows:
            y = step @ ys[-1]
            if not np.abs(y[watch]).max() <= OVERFLOW_LIMIT:
                break
            ys.append(y)
    return np.array(ys)


@pytest.mark.parametrize(
    "rows", [1, 2, 49, 50, 97], ids=["t-end-0", "one-step", "square", "square+1", "prime"]
)
def test_propagate_matches_sequential_steps(rng, rows):
    G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    step = scipy.linalg.expm(0.05 * G)
    y0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    got = _propagate(step, y0, rows - 1, 1.0)[1]
    want = sequential_run(step, y0, rows)
    assert got.shape == want.shape
    rel = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert rel.max() <= 1e-12


@pytest.mark.parametrize("factor", [2.0, 3.0])
def test_propagate_cuts_before_first_overflow(factor):
    # 2^40 is the first power of 2 above 1e12 (a block start at 100 rows,
    # B = 10); 3^26 is the first power of 3, mid-block
    states = _propagate(np.array([[factor]]), np.array([1.0]), 99, 1.0)[1]
    assert np.abs(states).max() <= OVERFLOW_LIMIT < factor * np.abs(states[-1]).max()


def test_propagate_watches_only_selected_components():
    step = np.diag([1.0, 10.0])
    states = _propagate(step, np.ones(2), 29, 1.0, watch=slice(1))[1]
    assert len(states) == 30


# perfect squares, squares + 1 and primes up to 300
CORE_ROWS = [1, 2, 3, 4, 5, 7, 9, 10, 16, 17, 31, 49, 50, 97, 100, 101, 127,
             169, 170, 199, 256, 257, 289, 290, 293, 300]


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    rows=st.sampled_from(CORE_ROWS),
    growth=st.one_of(st.none(), st.floats(0.5, 1.2)),
    complex_step=st.booleans(),
)
def test_blocked_run_matches_the_sequential_loop(seed, dim, rows, growth, complex_step):
    # an orthogonal (or unitary) step times r: r^k crosses OVERFLOW_LIMIT near
    # row k = growth * rows, so most runs with a growth below 1 are cut
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim)) + 1j * complex_step * rng.standard_normal((dim, dim))
    Q = np.linalg.qr(G)[0]
    r = 1.0 if growth is None else 10.0 ** (12 / (growth * rows + 0.5))
    y0 = rng.standard_normal(dim)
    got, want = _propagate(r * Q, y0, rows - 1, 1.0)[1], sequential_run(r * Q, y0, rows)
    if len(got) != len(want):       # a row within rounding of the limit may go either way
        edge = min(len(got), len(want))
        assert abs(np.abs(r * Q @ want[edge - 1]).max() / OVERFLOW_LIMIT - 1) <= 1e-12
        got, want = got[:edge], want[:edge]
    assert np.all(np.abs(got - want).max(axis=1) <= 1e-12 * np.abs(want).max(axis=1))


FIRST_BAD = {"block-start": 40, "mid-block": 37, "last-row": 99, "row-1": 1}


@pytest.mark.parametrize(
    ("first_bad", "run"),
    [pytest.param(k, None, id=name) for name, k in FIRST_BAD.items()]
    + [pytest.param(k, "test", id=f"{name}-named") for name, k in FIRST_BAD.items()],
)
def test_blocks_stop_before_the_first_bad_row(first_bad, run):
    # r^(first_bad - 1) < OVERFLOW_LIMIT < r^first_bad, each a factor sqrt(r) away;
    # 100 rows make blocks of B = 10: rows 0-9, 10-19, ...
    r = 10.0 ** (12 / (first_bad - 0.5))
    blocks, dt = [], 0.1
    try:
        for Y in _blocks(np.array([[r]]), np.array([1.0]), 99 * dt, dt, run=run):
            blocks.append(Y)
    except NumericalFailure as exc:
        # a named run raises at that row and yields no part of the block that holds it
        assert run is not None
        assert str(exc) == f"test state overflow at t={first_bad * dt:.12g}"
        assert [len(Y) for Y in blocks] == [10] * (first_bad // 10)
        return
    assert run is None
    sizes = [10] * (first_bad // 10) + [first_bad % 10] * (first_bad % 10 > 0)
    assert [len(Y) for Y in blocks] == sizes                 # no block is empty
    states = np.concatenate(blocks)
    assert len(states) == first_bad
    assert np.abs(states).max() <= OVERFLOW_LIMIT


@pytest.mark.parametrize(("factor", "rows_kept"), [(1e-2, 100), (1.0, 1)], ids=["recovers", "stays-bad"])
def test_row_0_is_never_cut(factor, rows_kept):
    states = _propagate(np.array([[factor]]), np.array([1e13]), 99, 1.0)[1]
    assert len(states) == rows_kept
    assert states[0, 0] == 1e13


def product_form_reference(Omega0, OmegaI, psiI0, sign, t_end, dt):
    """The time-dependent RK4 loop that product_form_solve ran before."""
    omega0 = np.diag(np.asarray(Omega0, dtype=complex)).copy()
    OmegaI = np.asarray(OmegaI, dtype=complex)
    psiI = np.asarray(psiI0, dtype=complex).copy()
    s = -1j if sign == "+" else 1j

    def rhs(t, y):
        phase = np.exp(s * omega0 * t)
        return s * ((OmegaI * np.outer(1.0 / phase, phase)) @ y)

    times = np.arange(int(round(t_end / dt)) + 1) * dt
    statesI = np.empty((len(times), len(psiI)), dtype=complex)
    statesI[0] = psiI
    for k in range(1, len(times)):
        t = times[k - 1]
        k1 = rhs(t, psiI)
        k2 = rhs(t + 0.5 * dt, psiI + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, psiI + 0.5 * dt * k2)
        k4 = rhs(t + dt, psiI + dt * k3)
        psiI = psiI + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        statesI[k] = psiI
    return np.exp(s * np.outer(times, omega0)) * statesI, statesI


def test_product_form_matches_stepwise_rk4(rng):
    g = random_digraph(rng, 6)
    b = build_bundle(g)
    psi0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for sign in "+-":
        traj, traj_I = product_form_solve(b.omega0, b.OmegaI, psi0, sign, t_end=2.0, dt=1e-3)
        want, want_I = product_form_reference(b.Omega0, b.OmegaI, psi0, sign, 2.0, 1e-3)
        assert np.abs(traj.states - want).max() <= 1e-10
        assert np.abs(traj_I.states - want_I).max() <= 1e-10


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,)])
def test_flaming_rejects_empty_or_non_square(shape):
    with pytest.raises(DimensionMismatch):
        flaming_indicator(np.zeros(shape))


def per_cell_csv(traj):
    """The cell-by-cell formatting that to_csv replaced, kept as its oracle."""
    n = traj.states.shape[1]
    lines = ["t," + ",".join(f"node{i}_re,node{i}_im" for i in range(n))]
    for t, row in zip(traj.times, traj.states):
        cells = [f"{t:.12g}"]
        for z in row:
            z = complex(z)
            cells += [f"{z.real:.12g}", f"{z.imag:.12g}"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_to_csv_matches_per_cell_formatting(rng):
    special = [-0.0, 1e-300, 1e300, -1e300, 5e-324, 0.1 + 0.2, np.inf, -np.inf, np.nan]
    mags = 10.0 ** rng.uniform(-300, 300, size=(40, 9))
    noise = rng.standard_normal((40, 9)) * mags + 1j * rng.standard_normal((40, 9)) * mags
    swapped = np.zeros(len(special), dtype=complex)
    swapped.imag = special
    complex_states = np.vstack([special, swapped, noise])
    times = np.arange(len(complex_states)) * 0.1
    for states in (complex_states, complex_states.real.copy()):
        traj = Trajectory(times=times, states=states)
        assert traj.to_csv() == per_cell_csv(traj)


def test_to_csv_holds_one_block_of_floats_not_the_run(rng):
    # every cell as a Python float at once peaks near 5.8x the CSV text; 512-row
    # blocks peak near 2.1x: the formatted blocks, their join and one block of floats
    # (a 3000 x 2 run has no n x n scale, so the bound stays a multiple of the text)
    traj = Trajectory(np.arange(3000) * 1e-3, rng.standard_normal((3000, 2)) * (1 + 1j))
    assert traced_peak(traj.to_csv) < 2.5 * len(traj.to_csv())


EPS = np.finfo(float).eps


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    balanced=st.booleans(),
    sign=st.sampled_from("+-"),
    dt=st.floats(1e-4, 20.0),
)
def test_fundamental_step_matches_scipy(seed, n, balanced, sign, dt):
    # the step E11 -+ i Omega E12 of E = wave_propagator(Omega @ Omega, dt) against scipy's
    # Pade expm(-+i Omega dt), an independent oracle: the two read at most 60 eps apart on
    # 200 graphs, also divergent ones at dt = 20, where a wrong sign or a 1e-8 error in
    # Omega @ Omega reads far more
    rng = np.random.default_rng(seed)
    g = random_detailed_balance_graph(rng, n) if balanced else random_digraph(rng, n)
    b = build_bundle(g)
    step = integrate_fundamental(b.Omega, np.zeros(n), sign, t_end=0.0, dt=dt).meta["step"]
    want = scipy.linalg.expm((-1j if sign == "+" else 1j) * b.Omega * dt)
    assert np.linalg.norm(step - want) <= 4096 * EPS * np.linalg.norm(want)


def test_fundamental_rejects_a_complex_omega():
    # cos and sin of diag(0.1 - 40j) dt grow like cosh(60) at dt = 1.5 while the
    # exponential is tiny: the combine would lose every digit.  A zero imaginary part is real
    Omega = np.diag([0.1 - 40j, 2.0])
    with pytest.raises(ModelViolation, match="real Omega"):
        integrate_fundamental(Omega, np.ones(2), "+", t_end=0.0, dt=1.5)
    real = integrate_fundamental(Omega.real, np.ones(2), "+", t_end=0.0, dt=1.5)
    as_complex = integrate_fundamental(Omega.real + 0j, np.ones(2), "+", t_end=0.0, dt=1.5)
    assert np.array_equal(real.meta["step"], as_complex.meta["step"])


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    balanced=st.booleans(),
    structured=st.booleans(),
    dt=st.floats(1e-4, 1.5),
)
def test_offdiag_expm_matches_scipy_on_wave_and_structured_generators(
    seed, n, balanced, structured, dt
):
    # the even/odd series of the n x n blocks against scipy's Pade expm of the assembled
    # 2n x 2n generator [[0, diag(b)], [C, 0]]; scipy alone loses up to a few hundred eps
    # here, where a wrong degree, bound or squaring loses far more
    rng = np.random.default_rng(seed)
    g = random_detailed_balance_graph(rng, n) if balanced else random_digraph(rng, n)
    if structured:
        f = doubled.sparse_factors(g)
        b, C = f.d_sqrt, f.Ha - np.diag(f.d_sqrt)
    else:
        b, C = np.ones(n), -build_matrices(g)[2]
    G = np.block([[np.zeros((n, n)), np.diag(b)], [C, np.zeros((n, n))]]) * dt
    want = scipy.linalg.expm(G)
    assert np.linalg.norm(offdiag_expm(b * dt, C * dt) - want) <= 4096 * EPS * np.linalg.norm(want)


@pytest.mark.parametrize("theta", [1e-8, 1e-4, 0.3, 1.0, 2.5, 40.0, 1e3])
def test_offdiag_expm_of_a_one_node_wave_generator_is_cos_and_sin(theta):
    # b = theta, C = -theta: the sine keeps its relative precision at small theta
    # because the series carry expm - I apart from I
    got = offdiag_expm(np.array([theta]), np.array([[-theta]]))
    c, s = math.cos(theta), math.sin(theta)
    assert np.abs(np.diag(got) - c).max() <= 4 * EPS * max(1.0, theta)
    assert np.abs([got[0, 1] - s, got[1, 0] + s]).max() <= 4 * EPS * theta


@pytest.mark.parametrize("b", [[1e-3, 2.0, 0.0], [5.0, -40.0, 1e-300]], ids=["plain", "squared"])
def test_offdiag_expm_of_a_zero_lower_block_is_exactly_its_two_term_series(b):
    # G^2 = 0, so expm(G) = I + G; the second b takes five squarings, all exact
    b = np.array(b)
    n = len(b)
    want = np.block([[np.eye(n), np.diag(b)], [np.zeros((n, n)), np.eye(n)]])
    assert np.array_equal(offdiag_expm(b, np.zeros((n, n))), want)


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)], ids=["nan", "inf", "-inf", "inf-imag"]
)
@pytest.mark.parametrize("where", ["b", "C"])
def test_offdiag_expm_of_a_non_finite_b_or_c_is_nan_without_a_warning(bad, where):
    b, C = np.ones(3, dtype=type(bad)), np.eye(3, dtype=type(bad))
    if where == "b":
        b[1] = bad
    else:
        C[0, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = offdiag_expm(b, C)
    assert got.shape == (6, 6) and got.dtype == b.dtype
    assert np.isnan(got).all()


def two_series_offdiag_expm(b, C):
    """offdiag_expm with f(BC) and f(CB) always summed apart, even when B C = C B:
    the reference of its one-series path."""
    b, C = np.asarray(b), np.asarray(C)
    dtype = np.result_type(b, C, float)
    n = len(b)
    norm = float(np.hstack([np.abs(b), np.abs(C).sum(axis=0)]).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full((2 * n, 2 * n), np.nan, dtype=dtype)
    p, c, s = _taylor_choice(norm)
    b, C = b * 0.5**s, C * 0.5**s

    def series(M):
        even, odd, power = M / 2, np.eye(n, dtype=dtype) + M / 6, M
        for j in range(2, (p * c - 1) // 2 + 1):
            power = power @ M
            even += power / math.factorial(2 * j)
            odd += power / math.factorial(2 * j + 1)
        return even, odd

    Q = np.empty((2 * n, 2 * n), dtype=dtype)
    Q[:n, :n], odd_bc = series(b[:, None] * C)
    Q[n:, n:], odd_cb = series(C * b)
    Q[:n, n:] = odd_bc * b
    Q[n:, :n] = odd_cb @ C
    for _ in range(s):
        Q = 2 * Q + Q @ Q
    Q.flat[:: 2 * n + 1] += 1
    return Q


def test_the_wave_step_takes_one_series_and_reads_the_two_series_step_bit_for_bit():
    # b = dt 1 makes B C and C B the same array, so the one series offdiag_expm sums for
    # both blocks is the one the second series would give; dt = 20 takes squarings
    rng = np.random.default_rng(5)
    for n in range(1, 31):
        K = rng.standard_normal((n, n)) + n * np.eye(n)
        for dt in (1e-4, 1e-2, 0.5, 1.5, 20.0):
            want = two_series_offdiag_expm(np.full(n, dt), -K * dt)
            assert np.array_equal(wave_propagator(K, dt), want), (n, dt)
    K[0, 1] = np.nan
    assert np.isnan(wave_propagator(K, 1e-3)).all()
    # a b that is not constant makes B C and C B differ: the second series is still taken
    b, C = rng.uniform(0.5, 2.0, 6), rng.standard_normal((6, 6))
    want = two_series_offdiag_expm(b, C)
    assert np.array_equal(offdiag_expm(b, C), want)
    assert not np.allclose(want[:6, :6], want[6:, 6:])


def test_taylor_choice_minimises_the_products_offdiag_expm_runs():
    # the step takes k - 1 products per series (k = m // 2; one series when B C = C B,
    # else two), one for the lower-left block and 8 n x n ones per 2n x 2n squaring; at
    # every norm the chosen (m, s) must be feasible and cost no more than any other degree
    # with its fewest squarings, on both paths
    norms = np.geomspace(1e-7, 1e4, 20001)
    theta = np.array([t for *_, t in _TAYLOR])[:, None]
    k = np.array([(p * c - 1) // 2 for p, c, _ in _TAYLOR])[:, None]
    fewest = np.maximum(np.ceil(np.log2(norms / theta)), 0)   # per degree, per norm
    assert (norms * 0.5**fewest <= theta).all()
    assert ((fewest == 0) | (norms * 0.5 ** (fewest - 1) > theta)).all()
    row_of = {(p, c): i for i, (p, c, _) in enumerate(_TAYLOR)}
    picks = [_taylor_choice(x) for x in norms.tolist()]
    row, s = np.array([row_of[p, c] for p, c, _ in picks]), np.array([s for *_, s in picks])
    assert (norms * 0.5**s <= theta[row, 0]).all()
    for series in (1, 2):
        cost = series * (k - 1) + 1 + 8 * fewest
        assert np.array_equal(series * (k[row, 0] - 1) + 1 + 8 * s, cost.min(axis=0)), series


def test_the_wave_step_holds_n_by_n_powers_not_2n_by_2n_ones():
    # at n = 150 and dt = 1e-3 the step peaked at 2.75 times its own 2n x 2n result, 11
    # n x n arrays (the result, and the sums and powers of one n x n series); the bound
    # leaves 27% over that.  A Taylor polynomial of the assembled 2n x 2n generator holds
    # p + 1 powers of that size and peaked at 9.0 times the result
    L = build_matrices(random_digraph(np.random.default_rng(0), 150))[2]
    assert traced_peak(lambda: wave_propagator(L, 1e-3)) < 14 * square_bytes(150)
