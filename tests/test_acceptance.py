"""Acceptance suite: one test per conformance criterion, desk scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import numpy as np
import pytest

from netosc import (
    build_bundle,
    build_matrices,
    check_symmetrizable,
    degree_centrality_energy,
    flaming_indicator,
    from_edges,
    integrate_fundamental,
    integrate_wave,
    node_energy,
    product_form_solve,
    spectral_decomposition,
    superpose,
)
from netosc.doubled import (
    branch_sum,
    hat_H_structured,
    integrate_doubled,
    lift_initial_conditions,
    projection_identity_check,
    sparse_factors,
    sparsity_match,
)
from netosc.dynamics import Trajectory, wave_energy_series
from netosc.errors import NotSymmetrizable
from netosc.sqrt_ops import node_sqrt_residual, sqrt_residual

from conftest import (
    first_order_residual,
    k3,
    kron_laplacian,
    path5,
    random_detailed_balance_graph,
    random_digraph,
    random_symmetric_graph,
    ring3,
    second_order_residual,
    star4,
    sym2,
)

RNG = np.random.default_rng(12345)


def report(criterion, detail):
    print(f"criterion {criterion}: PASS — {detail}")


def test_criterion_1_laplacian_identities():
    worst = 0.0
    for _ in range(200):
        g = random_digraph(RNG, int(RNG.integers(2, 31)))
        A, D, L = build_matrices(g)
        worst = max(
            worst,
            np.abs(L - (D - A)).max(),
            np.abs(L @ np.ones(g.n)).max(),
        )
    assert worst <= 1e-12
    report(1, f"200 graphs, max identity residual {worst:.2e} <= 1e-12")


def test_criterion_2_symmetrizability_detection():
    worst = 0.0
    for _ in range(100):
        g, m_true = random_detailed_balance_graph(RNG, int(RNG.integers(3, 15)), return_m=True)
        m_found = check_symmetrizable(g)
        worst = max(worst, float(np.abs(m_found / m_true - 1.0).max()))
    assert worst <= 1e-9

    rejected = 0
    for _ in range(100):
        n = int(RNG.integers(4, 15))
        g = random_detailed_balance_graph(RNG, n)
        A = g.adjacency()
        # inject a one-way link on an unlinked pair
        free = [(i, j) for i in range(n) for j in range(n) if i != j and A[i, j] == 0 and A[j, i] == 0]
        i, j = free[int(RNG.integers(0, len(free)))]
        edges = [(g.labels[s], g.labels[d], w) for s, d, w in g.edges]
        edges.append((g.labels[i], g.labels[j], 1.0))
        try:
            check_symmetrizable(from_edges(edges))
        except NotSymmetrizable:
            rejected += 1
    assert rejected == 100
    report(2, f"m recovered to {worst:.2e} rel; 100/100 one-way injections rejected")


def test_criterion_3_square_roots():
    worst_omega, worst_h = 0.0, 0.0
    for _ in range(100):
        g = random_digraph(RNG, int(RNG.integers(3, 21)))
        b = build_bundle(g)
        _, _, L = build_matrices(g)  # the graph's own Laplacian, not one rebuilt from Lambda
        lam_norm = np.linalg.norm(b.Lambda, "fro")
        worst_omega = max(
            worst_omega,
            np.linalg.norm(b.Omega @ b.Omega - b.Lambda, "fro") / lam_norm,
        )
        worst_h = max(
            worst_h,
            np.linalg.norm(b.H @ b.H - L, "fro") / np.linalg.norm(L, "fro"),
        )
    assert worst_omega <= 1e-8
    assert worst_h <= 1e-7

    g = path5()
    b = build_bundle(g)
    nnz_H = int(np.sum(np.abs(b.H) > 1e-8))
    nnz_L = int(np.sum(np.abs(build_matrices(g)[2]) > 1e-8))
    assert nnz_H > nnz_L
    report(3, f"omega residual {worst_omega:.2e}, H residual {worst_h:.2e}; path-5 fill-in {nnz_H} > {nnz_L}")


def test_criterion_4_energy_conservation():
    worst = 0.0
    for _ in range(5):
        n = int(RNG.integers(4, 10))
        g = random_detailed_balance_graph(RNG, n)
        _, sd = spectral_decomposition(g)
        _, _, L = build_matrices(g)
        traj = integrate_wave(L, RNG.standard_normal(n), RNG.standard_normal(n), t_end=10.0, dt=1e-3)
        E = wave_energy_series(traj, sd)
        worst = max(worst, (E.max() - E.min()) / E.max())
    assert worst <= 1e-6
    report(4, f"max relative energy drift {worst:.2e} <= 1e-6 (exact expm step, dt=1e-3, t_end=10)")


def test_criterion_5_degree_centrality():
    worst = 0.0
    for _ in range(20):
        n = int(RNG.integers(3, 12))
        g = random_symmetric_graph(RNG, n, weighted=False)
        _, _, L = build_matrices(g)
        degrees = np.diag(L)
        # the energy of unit amplitudes from the eigensystem, not the degrees
        split, sd = spectral_decomposition(g)
        r = node_energy(sd, np.ones(n), split=split)
        worst = max(worst, float(np.abs(r.per_node - degrees / 2).max()))
        # ties between equal-degree nodes are fine: the argmax must be a
        # max-degree node
        assert degrees[int(np.argmax(r.per_node))] == degrees.max()
        assert np.abs(degree_centrality_energy(g).per_node - r.per_node).max() <= 1e-9
    assert worst <= 1e-9
    report(5, f"unit-amplitude energy equals degree/2, max error {worst:.2e}")


def test_criterion_6_fundamental_implies_wave():
    worst = 0.0
    for _ in range(10):
        n = int(RNG.integers(3, 12))
        g = random_digraph(RNG, n)
        b = build_bundle(g)
        psi0 = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        for sign in "+-":
            traj = integrate_fundamental(b.Omega, psi0, sign, t_end=2.0, dt=1e-3)
            worst = max(worst, second_order_residual(traj, b.Lambda))
    assert worst <= 1e-5

    b = build_bundle(sym2())
    psi0 = np.array([1.0, 1.0], dtype=complex)
    tp = integrate_fundamental(b.Omega, psi0, "+", t_end=1.0, dt=1e-3)
    tm = integrate_fundamental(b.Omega, psi0, "-", t_end=1.0, dt=1e-3)
    combo = superpose(tp, tm, 0.3, 0.9)
    gap = min(
        first_order_residual(combo, b.Omega, "+"),
        first_order_residual(combo, b.Omega, "-"),
    )
    assert gap > 1e-3
    assert second_order_residual(combo, b.Lambda) <= 1e-5
    report(6, f"second-order residual {worst:.2e} <= 1e-5; superposition first-order gap {gap:.2e} > 1e-3")


def test_criterion_7_product_form_equivalence():
    worst = 0.0
    for _ in range(5):
        n = int(RNG.integers(3, 21))
        g = random_digraph(RNG, n)
        b = build_bundle(g)
        psi0 = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        for sign in "+-":
            traj, _ = product_form_solve(b.omega0, b.OmegaI, psi0, sign, t_end=5.0, dt=1e-3)
            direct = integrate_fundamental(b.Omega, psi0, sign, t_end=5.0, dt=1e-3)
            worst = max(worst, float(np.abs(traj.states - direct.states).max()))
    assert worst <= 1e-5
    report(7, f"product-form vs direct exponential sup gap {worst:.2e} <= 1e-5")


def test_criterion_8_sparsity_match():
    for _ in range(100):
        g = random_digraph(RNG, int(RNG.integers(3, 15)))
        assert sparsity_match(hat_H_structured(sparse_factors(g)), g)
    report(8, "structured operator block pattern equals adjacency pattern on 100/100 graphs")


def test_criterion_9_all_solutions_recovery():
    worst = 0.0
    for _ in range(50):
        n = int(RNG.integers(3, 9))
        g = random_digraph(RNG, n)
        f = sparse_factors(g)
        op = hat_H_structured(f)
        x0 = RNG.standard_normal(n)
        v0 = RNG.standard_normal(n)
        traj = integrate_doubled(op, lift_initial_conditions(f, x0, v0), t_end=5.0, dt=1e-3)
        s = branch_sum(traj.states)
        wave = integrate_wave(build_matrices(g)[2], x0, v0, t_end=5.0, dt=1e-3)
        worst = max(worst, float(np.abs(s - wave.states).max()))
    assert worst <= 1e-5
    report(9, f"doubled branch sum vs direct wave integration, sup gap {worst:.2e} <= 1e-5")


def test_criterion_10_projection_identity():
    worst = 0.0
    for _ in range(5):
        n = int(RNG.integers(3, 12))
        g = random_digraph(RNG, n)
        op, L = hat_H_structured(sparse_factors(g)), build_matrices(g)[2]
        for _ in range(100):
            xh = RNG.standard_normal(2 * n) + 1j * RNG.standard_normal(2 * n)
            worst = max(worst, projection_identity_check(op, xh, L))
    assert worst <= 1e-10
    report(10, f"projection identity residual {worst:.2e} <= 1e-10 over 500 random states")


def test_criterion_11_flaming():
    _, _, L = build_matrices(ring3())
    ind = flaming_indicator(L)
    oracle = 3**0.25 * np.sin(np.radians(15.0))
    assert abs(ind.growth_rate - 0.3406) <= 1e-3
    assert abs(ind.growth_rate - oracle) <= 1e-12

    traj = integrate_wave(L, np.array([1.0, 0.0, 0.0]), np.zeros(3), t_end=30.0, dt=1e-3)
    mask = traj.times >= 10.0
    slope = np.polyfit(traj.times[mask], np.log(np.linalg.norm(traj.states[mask], axis=1)), 1)[0]
    assert abs(slope - ind.growth_rate) <= 0.05 * ind.growth_rate

    worst = 0.0
    for _ in range(20):
        g = random_detailed_balance_graph(RNG, int(RNG.integers(3, 12)))
        worst = max(worst, flaming_indicator(build_matrices(g)[2]).growth_rate)
    assert worst <= 1e-9
    report(
        11,
        f"ring-3 growth rate {ind.growth_rate:.4f} (oracle {oracle:.4f}), "
        f"measured slope {slope:.4f}; symmetrizable max rate {worst:.2e}",
    )


def test_criterion_12_regularity_dichotomy():
    g = k3()
    op = hat_H_structured(sparse_factors(g))
    resid = np.abs(op.matrix @ op.matrix - kron_laplacian(build_matrices(g)[2])).max()
    assert resid <= 1e-10

    g = star4()
    op = hat_H_structured(sparse_factors(g))
    gap = np.linalg.norm(op.matrix @ op.matrix - kron_laplacian(build_matrices(g)[2]))
    assert gap > 1e-3
    report(12, f"regular K3 residual {resid:.2e} <= 1e-10; star gap {gap:.2e} > 1e-3")
