import contextlib
import json
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from netosc import _blas, build_bundle, build_matrices, mode_interaction_matrix, principal_sqrt
from netosc import from_edges, spectral_decomposition, sqrt_ops, sqrt_residual
from netosc.errors import DimensionMismatch, NetoscError, NumericalFailure, SqrtUndefined
from netosc.cli import run
from netosc.dynamics import flaming_indicator, graph_flaming_indicator
from netosc.sqrt_ops import OperatorBundle, _quasi_triangular_sqrt, _relative_residual
from netosc.sqrt_ops import node_sqrt_residual

from conftest import (
    path5, random_detailed_balance_graph, random_digraph, random_symmetric_graph, ring3, sym2,
    to_edge_list,
)


def eig_sqrt(mat):
    """Oracle: principal square root via direct eigendecomposition."""
    vals, vecs = np.linalg.eig(np.asarray(mat, dtype=complex))
    return vecs @ np.diag(np.sqrt(vals)) @ np.linalg.inv(vecs)


def complex_schur_sqrt(mat):
    """Reference: the earlier root from the sorted complex Schur form, one
    triangular solve per column (its precondition checks left out)."""
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    zero_tol = 1e-10 * max(1.0, np.linalg.norm(mat, "fro"))
    T, Z, k = scipy.linalg.schur(mat, output="complex", sort=lambda lam: abs(lam) > zero_tol)
    U = np.zeros_like(T)
    U[range(k), range(k)] = np.sqrt(np.diag(T)[:k])
    for j in range(1, k):
        A = U[:j, :j].copy()
        A.flat[:: j + 1] += U[j, j]
        U[:j, j] = scipy.linalg.solve_triangular(A, T[:j, j])
    if 0 < k < n:
        U[:k, k:] = scipy.linalg.solve_triangular(U[:k, :k], T[:k, k:])
    return Z @ U @ Z.conj().T


def test_principal_sqrt_diagonal():
    assert np.allclose(principal_sqrt(np.diag([0.0, 2.0])), np.diag([0.0, np.sqrt(2.0)]))


def test_principal_sqrt_rank_one_laplacian():
    # L^2 = 2L for this matrix, so L / sqrt(2) squares back to L
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(principal_sqrt(L), L / np.sqrt(2.0), atol=1e-12)


def test_principal_sqrt_rotation():
    # rotation by pi/2 has principal root rotation by pi/4
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    assert np.allclose(principal_sqrt(R), expected, atol=1e-12)


def test_principal_sqrt_matches_eig_oracle(rng):
    for _ in range(10):
        g = random_digraph(rng, int(rng.integers(3, 10)))
        _, _, L = build_matrices(g)
        assert np.allclose(principal_sqrt(L), eig_sqrt(L), atol=1e-8)


def test_principal_sqrt_rejects_negative_real():
    with pytest.raises(SqrtUndefined, match="negative real eigenvalue"):
        principal_sqrt(np.diag([1.0, -2.0]))


def test_principal_sqrt_rejects_defective_zero():
    # nilpotent 2x2 and 3x3 Jordan blocks, and a 2x2 zero Jordan block
    # coupled to a nonzero eigenvalue
    for mat in (
        np.eye(2, k=1),
        np.eye(3, k=1),
        np.array([[1.0, 5.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
    ):
        with pytest.raises(SqrtUndefined, match="defective zero eigenvalue"):
            principal_sqrt(mat)


def test_principal_sqrt_rejects_tiny_complex_pair_near_jordan_block():
    # eigenvalues +-1e-11 i sit in the zero cluster as one real 2x2 Schur
    # block whose large entry lies below the diagonal
    for mat in (
        np.array([[0.0, 1e-22], [-1.0, 0.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1e-22], [0.0, -1.0, 0.0]]),
    ):
        with pytest.raises(SqrtUndefined, match="defective zero eigenvalue"):
            principal_sqrt(mat)


def test_principal_sqrt_semisimple_multiple_zero():
    # block-diagonal with a two-dimensional null space
    M = np.zeros((4, 4))
    M[0, 0] = 3.0
    M[1, 1] = 1.0
    root = principal_sqrt(M)
    assert np.allclose(root @ root, M, atol=1e-12)


def test_principal_sqrt_zero_matrix():
    # every eigenvalue in the zero cluster: the nonsingular block is empty
    root = principal_sqrt(np.zeros((3, 3)))
    assert root.dtype == np.float64
    assert not np.any(root)


def test_bundle_symmetrizable_is_diagonal(rng):
    g = random_symmetric_graph(rng, 6, weighted=True)
    b = build_bundle(g)
    assert not np.any(b.OmegaI)
    assert np.allclose(b.Omega, np.diag(np.diag(b.Omega)))
    assert np.all(np.diag(b.Omega).real >= 0)
    assert np.allclose(b.H, b.H0)


def test_bundle_two_node_h_is_scaled_laplacian():
    b = build_bundle(sym2())
    _, _, L = build_matrices(sym2())
    assert np.allclose(b.H.real, L / np.sqrt(2.0), atol=1e-10)
    assert np.allclose(b.H @ b.H, L, atol=1e-10)


def test_bundle_ring_has_complex_spectrum():
    # the root of a real matrix with conjugate-pair eigenvalues is real, but
    # its spectrum leaves the real axis
    b = build_bundle(ring3())
    assert np.abs(np.linalg.eigvals(b.Omega).imag).max() > 1e-3
    assert sqrt_residual(b) <= 1e-8


def test_residuals_small_on_random_graphs(rng):
    for _ in range(10):
        g = random_digraph(rng, int(rng.integers(3, 11)))
        b = build_bundle(g)
        assert sqrt_residual(b) <= 1e-8
        assert node_sqrt_residual(b, build_matrices(g)[2]) <= 1e-7


def test_exact_diagonal_residual_is_zero(rng):
    g = random_symmetric_graph(rng, 10, weighted=True)
    assert sqrt_residual(build_bundle(g)) <= 1e-15


def test_square_root_fill_in_on_path():
    # sparse graph, dense square root: the root couples unlinked node pairs
    g = path5()
    b = build_bundle(g)
    _, _, L = build_matrices(g)
    nnz_H = int(np.sum(np.abs(b.H) > 1e-8))
    nnz_L = int(np.sum(np.abs(L) > 1e-8))
    assert nnz_H > nnz_L


def test_spectral_mapping(rng):
    g = random_digraph(rng, 6)
    b = build_bundle(g)
    lam = np.linalg.eigvals(b.Lambda)
    omega = np.linalg.eigvals(b.Omega) ** 2
    # pair each eigenvalue of Omega^2 with its nearest one of Lambda, one to
    # one: sorting would let a conjugate pair whose real parts tie to rounding
    # land in either order
    rows, cols = linear_sum_assignment(np.abs(lam[:, None] - omega[None, :]))
    assert np.allclose(lam[rows], omega[cols], atol=1e-8)


def test_principal_sqrt_two_component_laplacian():
    # two zero eigenvalues, one per component; the second block's one-way
    # weights give the Schur form a nonzero coupling T12 to the zero cluster
    L = np.zeros((4, 4))
    L[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
    L[2:, 2:] = [[2.0, -2.0], [-3.0, 3.0]]
    root = principal_sqrt(L)
    assert np.linalg.norm(root @ root - L) <= 1e-12


def test_principal_sqrt_large_one_way_graph(rng):
    _, _, L = build_matrices(random_digraph(rng, 120))
    root = principal_sqrt(L)
    assert np.linalg.norm(root @ root - L) <= 1e-12 * np.linalg.norm(L)
    assert np.linalg.eigvals(root).real.min() >= -1e-10


def _property_input(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "laplacian":
        return build_matrices(random_digraph(rng, n))[2]
    # a random real matrix shifted so its spectrum has real part >= 0.5
    R = rng.standard_normal((n, n))
    return R + (0.5 - np.linalg.eigvals(R).real.min()) * np.eye(n)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    kind=st.sampled_from(["laplacian", "shifted"]),
)
def test_principal_sqrt_property(seed, n, kind):
    A = _property_input(seed, n, kind)
    root = principal_sqrt(A)
    assert root.dtype == np.float64
    assert np.linalg.norm(root @ root - A) <= 1e-12 * np.linalg.norm(A)
    assert np.linalg.eigvals(root).real.min() >= -1e-10
    ref = complex_schur_sqrt(A)
    assert np.linalg.norm(root - ref) <= 1e-10 * np.linalg.norm(ref)


def test_quasi_triangular_root_keeps_straddling_block_whole():
    # 1x1, 2x2, 1x1 blocks: the halving point of 4 rows falls inside the
    # standardized 2x2 block [[2, 3], [-1.5, 2]], so the split moves past it
    T = np.array(
        [
            [1.0, 0.5, -2.0, 0.7],
            [0.0, 2.0, 3.0, 1.1],
            [0.0, -1.5, 2.0, -0.4],
            [0.0, 0.0, 0.0, 4.0],
        ]
    )
    U = np.zeros_like(T)
    _quasi_triangular_sqrt(T, U, 0, 4)
    assert np.linalg.norm(U @ U - T) <= 1e-14 * np.linalg.norm(T)
    assert np.array_equal(np.tril(U, -1) != 0, np.tril(T, -1) != 0)
    assert np.allclose(U, complex_schur_sqrt(T), rtol=0, atol=1e-13)


def test_principal_sqrt_rejects_complex_input():
    with pytest.raises(NetoscError, match="real matrix"):
        principal_sqrt(np.array([[1.0, 1e-3j], [0.0, 1.0]]))
    # a complex array with zero imaginary part is real input
    root = principal_sqrt(np.diag([4.0, 9.0]).astype(complex))
    assert root.dtype == np.float64
    assert np.array_equal(root, np.diag([2.0, 3.0]))


def test_bundle_is_real(rng):
    b = build_bundle(random_digraph(rng, 12))
    for name in ("Lambda", "Omega", "OmegaI", "H", "HI"):
        assert getattr(b, name).dtype == np.float64, name


def test_principal_sqrt_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        principal_sqrt(np.ones((2, 3)))


def test_sqrt_tolerances_are_relative_below_norm_one():
    # weights of 1e-12 leave every eigenvalue below an absolute 1e-10 floor
    tiny = from_edges([("1", "2", 1e-12), ("2", "3", 1e-12), ("3", "1", 1e-12)])
    base, small = build_bundle(ring3()), build_bundle(tiny)
    assert np.allclose(small.Omega, 1e-6 * base.Omega, rtol=1e-9, atol=0)
    assert sqrt_residual(small) <= 1e-12
    assert node_sqrt_residual(small, build_matrices(tiny)[2]) <= 1e-12


@contextlib.contextmanager
def scipy_lapack():
    """_blas with its LAPACKE lookup forced empty, as on MKL or Accelerate: scipy's path."""
    lookup = _blas._lapacke
    _blas._lapacke = lambda: None
    try:
        yield
    finally:
        _blas._lapacke = lookup


@pytest.fixture(params=["numpy", "scipy"])
def lapack_path(request):
    """Run a test on numpy's own LAPACK, then on scipy's."""
    if request.param == "scipy":
        with scipy_lapack():
            yield request.param
        return
    if _blas._lapacke() is None:
        pytest.skip("no mapped OpenBLAS exports LAPACKE dgees and dtrsyl")
    yield request.param


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
def test_both_lapack_paths_take_the_same_root(seed, n):
    _, _, L = build_matrices(random_digraph(np.random.default_rng(seed), n))
    root = principal_sqrt(L)
    with scipy_lapack():
        ref = principal_sqrt(L)
    assert np.linalg.norm(root - ref) <= 4 * np.finfo(float).eps * np.linalg.norm(L)


def test_principal_sqrt_of_huge_and_tiny_entries(lapack_path):
    # ||A||_F of these overflows or underflows when taken directly; the zero
    # cluster would then swallow every eigenvalue and the root read 0
    for scale in (1e200, 1e-200):
        root = principal_sqrt(np.diag([1.0, 4.0]) * scale)
        assert np.allclose(root, np.diag([1.0, 2.0]) * np.sqrt(scale), rtol=1e-15, atol=0)


def test_principal_sqrt_leaves_its_input_unchanged(lapack_path):
    # the root overwrites the Schur form, which is a copy; ring3 has a complex pair and a
    # zero eigenvalue, the 40-node graphs a linked block of 2x2 and 1x1 Schur blocks
    mats = [build_matrices(ring3())[2]] + [
        build_matrices(random_digraph(np.random.default_rng(seed), 40))[2] for seed in range(3)
    ]
    for mat in mats:
        before = mat.copy()
        root = principal_sqrt(mat)
        assert mat.tobytes() == before.tobytes()
        assert np.linalg.norm(root @ root - mat) <= 1e-12 * np.linalg.norm(mat)


def test_lambda_is_diag_lam_plus_lambda_i_bit_for_bit(monkeypatch):
    # Lambda is formed in Lambda_I's own buffer, yet holds the bytes of diag(lam) + Lambda_I:
    # 0.0 + -0.0 is +0.0, so every -0.0 of Lambda_I turns into +0.0
    made = []

    def signed_zeros(LI, sd):
        lam_I = mode_interaction_matrix(LI, sd)
        lam_I[lam_I == 0.0] = -0.0
        made.append(lam_I.copy())
        return lam_I

    monkeypatch.setattr(sqrt_ops, "mode_interaction_matrix", signed_zeros)
    for g in (ring3(), *(random_digraph(np.random.default_rng(seed), 40) for seed in range(3))):
        b = build_bundle(g)
        (lam_I,) = made
        made.clear()
        assert np.signbit(lam_I[lam_I == 0.0]).all() and (lam_I == 0.0).any()
        Lambda = np.diag(b.sd.eigenvalues.clip(min=0.0)) + lam_I
        assert b.Lambda.tobytes() == Lambda.tobytes()
        assert not np.signbit(b.Lambda[b.Lambda == 0.0]).any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_principal_sqrt_rejects_non_finite_input(lapack_path, bad):
    mat = build_matrices(ring3())[2]
    mat[1, 2] = bad
    with pytest.raises(NumericalFailure, match="finite"):
        principal_sqrt(mat)


def test_sylvester_solve_failure(lapack_path):
    # A X + X B = C with A = 1 and B = -1 is singular: dtrsyl perturbs and reports info 1
    with pytest.raises(NumericalFailure, match=r"^Sylvester solve failed \(dtrsyl info 1\)$"):
        _blas.trsyl(np.array([[1.0]]), np.array([[-1.0]]), np.array([[1.0]]))


def test_schur_select_cannot_raise(lapack_path, monkeypatch):
    # the pair 1.5e308 +- 1.5e308 i has a modulus past the float range; an exception
    # in a ctypes callback cannot reach the caller, it goes to sys.unraisablehook,
    # which prints a traceback on stderr
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    big = 1.5e308
    T, Z, k = _blas.schur(np.array([[big, big], [-big, big]]), 1.0)
    assert k == 2
    assert unraisable == []


@pytest.mark.parametrize(
    "info, reason",
    [(1, "Schur form not found"), (3, "could not be separated"),
     (4, "do not satisfy sort condition"), (-6, "illegal argument 6")],
)
def test_schur_failure_raises_numerical_failure(monkeypatch, info, reason):
    lapack = _blas._lapacke()
    if lapack is None:
        pytest.skip("no mapped OpenBLAS exports LAPACKE dgees and dtrsyl")
    # n = 2: info 3 = n + 1 and 4 = n + 2 are dgees's reordering failures
    monkeypatch.setattr(_blas, "_lapacke", lambda: (lambda *args: info, *lapack[1:]))
    with pytest.raises(NumericalFailure, match=f"^Schur decomposition failed: .*{reason}"):
        principal_sqrt(np.array([[1.0, 2.0], [0.0, 3.0]]))


ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_principal_sqrt_of_a_huge_and_a_tiny_rotation(lapack_path):
    # the complex pair +-i s sits in a 2x2 Schur block [[0, b], [c, 0]]; mu = sqrt(-bc)
    # overflowed at s = 1e200 and underflowed at 1e-200, where sqrt|b| sqrt|c| does not
    unit = principal_sqrt(ROTATION)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e200, 1e-200):
            root = principal_sqrt(scale * ROTATION)
            assert np.allclose(root, np.sqrt(scale) * unit, rtol=1e-15, atol=0)


def test_cli_root_of_a_tiny_ring_at_unit_scale(lapack_path, tmp_path, capsys):
    # ring3's complex pair: at w = 1e-170 the product bc underflowed and the root
    # left a residual of 0.072 at unit scale; both residuals are now taken there too
    w = 1e-170
    g = from_edges([("1", "2", w), ("2", "3", w), ("3", "1", w)])
    p = tmp_path / "ring3.csv"
    p.write_text(to_edge_list(g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sqrt", "--input", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0 < report["omega_residual"] <= 1e-14
    assert 0 < report["h_residual"] <= 1e-14
    b = build_bundle(g)
    Omega, Lambda = b.Omega / np.sqrt(w), b.Lambda / w
    assert np.linalg.norm(Omega @ Omega - Lambda) <= 1e-14 * np.linalg.norm(Lambda)


@pytest.mark.parametrize("w", [1e-200, 1e-170, 1e-150, 1e-100, 1.0, 1e100, 1e150])
def test_a_doubled_root_reads_three_at_every_scale(w):
    # (2 Omega)^2 - Lambda = 3 Lambda: the plain norms underflowed to 0 below 1e-150
    g = from_edges([("1", "2", w), ("2", "3", w), ("3", "1", w)])
    b, L = build_bundle(g), build_matrices(g)[2]
    doubled = OperatorBundle(Lambda=b.Lambda, Omega=2 * b.Omega, sd=b.sd)
    assert sqrt_residual(doubled) == pytest.approx(3.0, rel=1e-13)
    assert node_sqrt_residual(doubled, L) == pytest.approx(3.0, rel=1e-13)
    assert sqrt_residual(b) <= 1e-14 and node_sqrt_residual(b, L) <= 1e-14


def test_the_node_residual_reads_an_error_in_lambda_i():
    # a relative error of 1e-8 in L_I must read ~1e-8 against the graph's L; an L rebuilt
    # from the perturbed Lambda would hide it and read rounding (8.3e-15)
    for seed in range(3):
        g = random_digraph(np.random.default_rng(seed), 40)
        split, sd = spectral_decomposition(g)
        L = build_matrices(g)[2]
        assert node_sqrt_residual(build_bundle(g), L) <= 1e-12
        Lambda = np.diag(sd.eigenvalues.clip(min=0.0))
        Lambda += mode_interaction_matrix(split.LI * (1 + 1e-8), sd)
        bad = OperatorBundle(Lambda=Lambda, Omega=principal_sqrt(Lambda), sd=sd)
        assert node_sqrt_residual(bad, L) > 1e-10


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    kind=st.sampled_from(["balanced", "one-way"]),
    c=st.sampled_from([1e-300, 1e-200, 1e-170, 1e100, 1e150]),
)
def test_scaling_every_weight_keeps_the_verdict_and_the_root(seed, n, kind, c):
    # cL has the eigenvalues of L times c: flaming's rate scales by sqrt(c), and its verdict
    # and build_bundle's checks do not move.  Plain norms underflowed to 0 below 1e-160 and
    # read an eigenvalue's rounding as divergence or as a negative eigenvalue.  Only values
    # free of eigenvector signs are compared: the sign fix breaks ties by rounding.  A
    # balanced L also goes through eigvals, which the command keeps for other graphs
    rng = np.random.default_rng(seed)
    g = random_detailed_balance_graph(rng, n) if kind == "balanced" else random_digraph(rng, n)
    g_c = from_edges([(g.labels[i], g.labels[j], c * w) for i, j, w in g.edges])
    L, L_c = build_matrices(g)[2], build_matrices(g_c)[2]
    for flaming, arg, arg_c in ((graph_flaming_indicator, g, g_c), (flaming_indicator, L, L_c)):
        base, scaled = flaming(arg), flaming(arg_c)
        assert scaled.verdict == base.verdict
        assert scaled.growth_rate == pytest.approx(np.sqrt(c) * base.growth_rate, rel=1e-9, abs=0)
    built = []
    for graph, lap in ((g, L), (g_c, L_c)):
        try:
            b = build_bundle(graph)
        except SqrtUndefined:
            built.append(False)
            continue
        built.append(True)
        assert sqrt_residual(b) <= 1e-8 and node_sqrt_residual(b, lap) <= 1e-7
    assert built[0] == built[1]


def test_an_overflowing_residual_reads_infinity():
    # root^2 overflows to inf; the unit-scale norm must not turn inf / inf into nan
    with np.errstate(over="ignore"):
        assert _relative_residual(np.array([[1e200]]), np.array([[1.0]])) == np.inf
    assert _relative_residual(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


def relative_residual_fresh(root, target):
    """The residual with a fresh array at each step (|X| for the peak, X / peak for the
    norm), the reference of the one-buffer _relative_residual."""
    def norm(X):
        peak = np.abs(X).max(initial=0.0)
        return float(peak) if not 0 < peak < np.inf else float(peak * np.linalg.norm(X / peak))

    return norm(root @ root - target) / (norm(target) or 1.0)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), exponent=st.integers(-150, 150))
def test_the_one_buffer_residual_is_the_fresh_array_one(seed, n, exponent):
    rng = np.random.default_rng(seed)
    root, target = rng.standard_normal((2, n, n)) * 10.0**exponent
    for t in (target, root @ root, np.zeros((n, n))):
        got = _relative_residual(root, t)
        assert got == relative_residual_fresh(root, t) and not np.signbit(got)  # +0.0 at 0
