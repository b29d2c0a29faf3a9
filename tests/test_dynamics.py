import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from netosc import (
    build_bundle,
    build_matrices,
    degree_centrality_energy,
    flaming_indicator,
    integrate_fundamental,
    integrate_wave,
    mode_interaction_matrix,
    node_energy,
    product_form_solve,
    spectral_decomposition,
    superpose,
)
from netosc.errors import DimensionMismatch, GridMismatch, NotSymmetrizable
from netosc.dynamics import (
    OVERFLOW_LIMIT,
    Trajectory,
    _propagate,
    second_order_residual,
    wave_energy_series,
)

from conftest import (
    first_order_residual,
    k3,
    path3,
    random_detailed_balance_graph,
    random_digraph,
    random_symmetric_graph,
    ring3,
    star4,
    sym2,
)


def bundle_for(g):
    split, sd = spectral_decomposition(g)
    return sd, build_bundle(sd, mode_interaction_matrix(split.LI, sd))


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
    sd, _ = bundle_for(g)
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
    _, b = bundle_for(g)
    traj = integrate_fundamental(b.Omega, np.zeros(4, dtype=complex), "-", t_end=1.0, dt=1e-2)
    assert not np.any(traj.states)


def test_fundamental_satisfies_second_order(rng):
    g = random_detailed_balance_graph(rng, 8)
    _, b = bundle_for(g)
    psi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for sign in "+-":
        traj = integrate_fundamental(b.Omega, psi0, sign, t_end=2.0, dt=1e-3)
        assert second_order_residual(traj, b.Lambda) <= 1e-5


def test_superpose_trivial_combination(rng):
    _, b = bundle_for(sym2())
    psi0 = np.array([1.0, 1.0], dtype=complex)
    tp = integrate_fundamental(b.Omega, psi0, "+", t_end=1.0, dt=1e-3)
    tm = integrate_fundamental(b.Omega, psi0, "-", t_end=1.0, dt=1e-3)
    combo = superpose(tp, tm, 1.0, 0.0)
    assert np.array_equal(combo.states, tp.states)


def test_superpose_conjugate_pair_is_real():
    _, b = bundle_for(sym2())
    psi0 = np.array([1.0, 1.0], dtype=complex)
    tp = integrate_fundamental(b.Omega, psi0, "+", t_end=1.0, dt=1e-3)
    tm = integrate_fundamental(b.Omega, psi0, "-", t_end=1.0, dt=1e-3)
    combo = superpose(tp, tm, 0.5, 0.5)
    assert np.abs(combo.states.imag).max() <= 1e-10


def test_superpose_generic_fails_first_order():
    # the documented two-node witness: second-order holds, first-order breaks
    _, b = bundle_for(sym2())
    psi0 = np.array([1.0, 1.0], dtype=complex)
    tp = integrate_fundamental(b.Omega, psi0, "+", t_end=1.0, dt=1e-3)
    tm = integrate_fundamental(b.Omega, psi0, "-", t_end=1.0, dt=1e-3)
    combo = superpose(tp, tm, 0.3, 0.9)
    assert second_order_residual(combo, b.Lambda) <= 1e-5
    assert first_order_residual(combo, b.Omega, "+") > 1e-3
    assert first_order_residual(combo, b.Omega, "-") > 1e-3


def test_superpose_grid_mismatch(rng):
    _, b = bundle_for(sym2())
    psi0 = np.array([1.0, 1.0], dtype=complex)
    tp = integrate_fundamental(b.Omega, psi0, "+", t_end=1.0, dt=1e-3)
    tm = integrate_fundamental(b.Omega, psi0, "-", t_end=0.5, dt=1e-3)
    with pytest.raises(GridMismatch):
        superpose(tp, tm, 1.0, 1.0)


def test_product_form_free_case(rng):
    g = random_symmetric_graph(rng, 5)
    _, b = bundle_for(g)
    psi0 = rng.standard_normal(5).astype(complex)
    traj, traj_I = product_form_solve(b.omega0, b.OmegaI, psi0, "+", t_end=1.0, dt=1e-3)
    assert np.abs(traj_I.states - psi0).max() <= 1e-12
    assert np.allclose(traj.states[0], psi0)


def test_product_form_matches_direct(rng):
    g = random_digraph(rng, 6)
    _, b = bundle_for(g)
    psi0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for sign in "+-":
        traj, _ = product_form_solve(b.omega0, b.OmegaI, psi0, sign, t_end=5.0, dt=1e-3)
        direct = integrate_fundamental(b.Omega, psi0, sign, t_end=5.0, dt=1e-3)
        assert np.abs(traj.states - direct.states).max() <= 1e-5


def test_product_form_rejects_a_matrix_of_root_frequencies():
    # a dense Omega0 was once accepted and all but its diagonal silently dropped
    _, b = bundle_for(ring3())
    with pytest.raises(DimensionMismatch):
        product_form_solve(b.Omega0, b.OmegaI, np.ones(3, dtype=complex), t_end=0.1, dt=1e-2)


@pytest.mark.parametrize("sign", ["plus", "", "+-", None])
def test_first_order_solvers_reject_an_unknown_sign(sign):
    # product_form_solve once ran the '-' equation for anything but '+'
    _, b = bundle_for(ring3())
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
    _, sd = spectral_decomposition(g)
    report = degree_centrality_energy(g)
    assert np.allclose(report.per_node, np.diag(sd.S0) / 2, atol=1e-9)


def test_degree_centrality_rejects_one_way():
    with pytest.raises(NotSymmetrizable):
        degree_centrality_energy(ring3())


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


def sequential_steps(step, y0, rows):
    ys = [y0]
    for _ in range(rows - 1):
        ys.append(step @ ys[-1])
    return np.array(ys)


@pytest.mark.parametrize(
    "rows", [1, 2, 49, 50, 97], ids=["t-end-0", "one-step", "square", "square+1", "prime"]
)
def test_propagate_matches_sequential_steps(rng, rows):
    G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    step = scipy.linalg.expm(0.05 * G)
    y0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    got = _propagate(step, y0, np.arange(rows) * 0.01)
    want = sequential_steps(step, y0, rows)
    assert got.shape == want.shape
    rel = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert rel.max() <= 1e-12


@pytest.mark.parametrize("factor", [2.0, 3.0])
def test_propagate_cuts_before_first_overflow(factor):
    # 2^40 is the first power of 2 above 1e12 (a block start at 100 rows,
    # B = 10); 3^26 is the first power of 3, mid-block
    states = _propagate(np.array([[factor]]), np.array([1.0]), np.arange(100.0))
    assert np.abs(states).max() <= OVERFLOW_LIMIT < factor * np.abs(states[-1]).max()


def test_propagate_watches_only_selected_components():
    step = np.diag([1.0, 10.0])
    states = _propagate(step, np.ones(2), np.arange(30.0), watch=slice(1))
    assert len(states) == 30


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
    _, b = bundle_for(g)
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
