import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netosc import (
    build_bundle,
    build_matrices,
    check_symmetrizable,
    decompose_laplacian,
    from_edges,
    mode_interaction_matrix,
    principal_sqrt,
    spectral_decomposition,
    symmetrize,
    to_modes,
)
from netosc.errors import DimensionMismatch, NetoscError, NotSymmetrizable
from netosc.symmetry import _conjugate, _fix_signs, symmetrized_eigenvalues

from conftest import (
    build_matrices_dense,
    check_symmetrizable_loops,
    decompose_laplacian_loops,
    fix_signs_loops,
    null_weight_cross_check,
    random_detailed_balance_graph,
    random_digraph,
    random_symmetric_graph,
    random_undirected_skeleton,
    ring3,
    sym2,
    symmetric_form_dense,
    symmetrized_form,
)


def asym2():
    return from_edges([("1", "2", 2.0), ("2", "1", 1.0)])


def test_symmetric_pair_weights():
    assert np.allclose(check_symmetrizable(sym2()), [1.0, 1.0])


def test_unbalanced_pair_weights():
    # detailed balance forces m2 = m1 * w12 / w21 = 2
    assert np.allclose(check_symmetrizable(asym2()), [1.0, 2.0])


def test_one_way_edge_not_symmetrizable():
    with pytest.raises(NotSymmetrizable) as exc:
        check_symmetrizable(from_edges([("1", "2", 1.0)]))
    assert exc.value.reason == "one_way_edge"


def test_cycle_inconsistent_detected():
    # triangle with reciprocal links whose balance cannot close around the cycle
    edges = [
        ("a", "b", 2.0), ("b", "a", 1.0),
        ("b", "c", 2.0), ("c", "b", 1.0),
        ("c", "a", 2.0), ("a", "c", 1.0),
    ]
    with pytest.raises(NotSymmetrizable) as exc:
        check_symmetrizable(from_edges(edges))
    assert exc.value.reason == "cycle_inconsistent"


def test_null_vector_cross_check(rng):
    g, m = random_detailed_balance_graph(rng, 9, return_m=True)
    m_found = check_symmetrizable(g)
    assert np.allclose(m_found, m, rtol=1e-9)
    assert np.allclose(null_weight_cross_check(g), m_found, rtol=1e-6)


def test_decompose_symmetric_graph_has_no_one_way_part(rng):
    g = random_symmetric_graph(rng, 7, weighted=True)
    split = decompose_laplacian(g)
    assert not np.any(split.LI)
    assert np.array_equal(split.L0, build_matrices(g)[2])


def test_decompose_pure_one_way():
    g = from_edges([("1", "2", 1.0)])
    split = decompose_laplacian(g)
    assert not np.any(split.L0)
    assert np.array_equal(split.LI, build_matrices(g)[2])


def test_decompose_ring_with_weak_reverse():
    edges = []
    for i, j in ((1, 2), (2, 3), (3, 1)):
        edges.append((str(i), str(j), 1.0))
        edges.append((str(j), str(i), 0.5))
    g = from_edges(edges)
    split = decompose_laplacian(g)
    _, _, L = build_matrices(g)
    # symmetric 0.5 per pair, one-way 0.5 residual on forward links
    A0 = -split.L0 + np.diag(np.diag(split.L0))
    assert np.allclose(A0[A0 > 0], 0.5)
    assert np.array_equal(split.L0 + split.LI, L)


def test_split_sums_exactly_and_one_way_certificate(rng):
    for _ in range(20):
        g = random_digraph(rng, int(rng.integers(3, 12)))
        split = decompose_laplacian(g)
        _, _, L = build_matrices(g)
        assert np.array_equal(split.L0 + split.LI, L)
        AI = -split.LI + np.diag(np.diag(split.LI))
        assert np.all(AI * AI.T == 0)


def test_symmetrize_two_node():
    sd = symmetrize(decompose_laplacian(sym2()))  # L0 = [[1, -1], [-1, 1]], m = 1
    assert np.allclose(sd.eigenvalues, [0.0, 2.0])
    r = 1 / np.sqrt(2)
    assert np.allclose(np.abs(sd.P), [[r, r], [r, r]])
    assert np.allclose(sd.P.T @ sd.P, np.eye(2), atol=1e-10)


def test_symmetrize_zero_matrix_uses_identity_basis():
    sd = symmetrize(decompose_laplacian(ring3()))  # no reciprocal link: L0 = 0
    assert np.array_equal(sd.P, np.eye(3))
    assert np.array_equal(sd.eigenvalues, np.zeros(3))


def test_symmetrize_weighted_pair_hand_values():
    g = asym2()
    m = check_symmetrizable(g)
    _, _, L = build_matrices(g)
    sd = symmetrize(decompose_laplacian(g))
    expected_S0 = np.array([[2.0, -np.sqrt(2.0)], [-np.sqrt(2.0), 1.0]])
    assert np.allclose(symmetrized_form(L, m), expected_S0, atol=1e-12)
    assert np.allclose(sd.P @ np.diag(sd.eigenvalues) @ sd.P.T, expected_S0, atol=1e-12)
    assert np.allclose(sd.eigenvalues, [0.0, 3.0], atol=1e-12)


def test_mode_round_trip(rng):
    g = random_detailed_balance_graph(rng, 8)
    _, sd = spectral_decomposition(g)
    x = rng.standard_normal(8)
    assert np.allclose(sd.P @ to_modes(x, sd) / np.sqrt(sd.m), x, atol=1e-10)  # M^{-1/2} P psi


def test_mode_transform_hand_value():
    _, sd = spectral_decomposition(sym2())
    psi = to_modes(np.array([1.0, 0.0]), sd)
    assert np.allclose(np.abs(psi), [1 / np.sqrt(2)] * 2)


def test_mode_of_basis_vector(rng):
    g = random_detailed_balance_graph(rng, 6)
    _, sd = spectral_decomposition(g)
    e2 = np.zeros(6)
    e2[2] = 1.0
    x = sd.P[:, 2] / np.sqrt(sd.m)                 # x = M^{-1/2} P e2
    assert np.allclose(to_modes(x, sd), e2)


def test_mode_dimension_mismatch(rng):
    _, sd = spectral_decomposition(sym2())
    with pytest.raises(DimensionMismatch):
        to_modes(np.zeros(3), sd)


def test_interaction_matrix_zero_for_symmetrizable(rng):
    g = random_detailed_balance_graph(rng, 6)
    split, sd = spectral_decomposition(g)
    lam_I = mode_interaction_matrix(split.LI, sd)
    # exact +0.0, as the two products would give, without running them
    assert lam_I.dtype == np.float64 and lam_I.shape == (6, 6)
    assert np.array_equal(lam_I, sd.P.T @ split.LI @ sd.P)
    assert not np.any(lam_I) and not np.any(np.signbit(lam_I))


def test_interaction_matrix_identity_basis_for_pure_one_way():
    g = from_edges([("1", "2", 1.0)])
    split, sd = spectral_decomposition(g)
    _, _, L = build_matrices(g)
    assert np.array_equal(mode_interaction_matrix(split.LI, sd), L)


def test_conjugation_consistency(rng):
    for _ in range(5):
        g = random_digraph(rng, 5)
        split, sd = spectral_decomposition(g)
        lam_I = mode_interaction_matrix(split.LI, sd)
        _, _, L = build_matrices(g)
        m_sqrt = np.sqrt(split.m)
        conj = sd.P.T @ ((L * np.outer(m_sqrt, 1 / m_sqrt))) @ sd.P
        assert np.allclose(np.diag(sd.eigenvalues) + lam_I, conj, atol=1e-9)
        # spectral sanity
        assert sd.eigenvalues.min() >= -1e-9
        S0 = symmetrized_form(split.L0, split.m)
        assert abs(sd.eigenvalues.sum() - np.trace(S0)) <= 1e-9
        assert np.allclose(sd.P.T @ S0 @ sd.P, np.diag(sd.eigenvalues), atol=1e-9)


def ring_with_back_links(rng, n):
    """A directed n-ring (n >= 3) whose links run back at random, weights at random: L0
    links some nodes, maybe none or all."""
    back = rng.random(n) < rng.uniform(0.0, 0.5)
    edges = []
    for i in range(n):
        j = str((i + 1) % n)
        edges.append((str(i), j, float(rng.uniform(0.5, 2.0))))
        if back[i]:
            edges.append((j, str(i), float(rng.uniform(0.5, 2.0))))
    return from_edges(edges)


def test_mode_interaction_matrix_leaves_l_i_unchanged(rng):
    # the unit-weight gather path of a one-way graph, and the M^{1/2} scaling of a balanced
    # eigensystem (m != 1) applied to an arbitrary L_I
    split, sd = spectral_decomposition(ring_with_back_links(rng, 12))
    _, sd_balanced = spectral_decomposition(random_detailed_balance_graph(rng, 12))
    for LI, eig in ((split.LI, sd), (rng.standard_normal((12, 12)), sd_balanced)):
        before = LI.copy()
        mode_interaction_matrix(LI, eig)
        assert LI.tobytes() == before.tobytes()


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30))
def test_unit_weights_skip_the_scaling_bit_for_bit(seed, n):
    # a one-way split has m = 1; Lambda_I and H skip M^{+-1/2}, which scales by exact ones
    g = ring_with_back_links(np.random.default_rng(seed), n)
    split, sd = spectral_decomposition(g)
    assume(not split.is_pure_symmetrizable)
    r = np.sqrt(split.m)
    assert np.all(r == 1.0) and sd.m_sqrt is None
    lam_I = mode_interaction_matrix(split.LI, sd)
    scaled = _conjugate((r[:, None] * split.LI) * (1.0 / r), sd, into_modes=True)
    assert lam_I.tobytes() == scaled.tobytes()
    b = build_bundle(g)
    for op in (b.Omega, b.Omega0):
        scaled = _conjugate(op, sd, into_modes=False) * np.outer(1.0 / r, r)
        assert b._to_nodes(op).tobytes() == scaled.tobytes()
    assert b.H.flags.c_contiguous  # H @ H rounds by its layout


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))
def test_row_by_row_scaling_is_the_outer_product_bit_for_bit(seed, n):
    # a balanced eigensystem (m != 1): H scales P Omega P^T one row at a time
    b = build_bundle(random_detailed_balance_graph(np.random.default_rng(seed), n))
    r = np.sqrt(b.sd.m)
    scaled = _conjugate(b.Omega, b.sd, into_modes=False) * np.outer(1.0 / r, r)
    assert b.H.tobytes() == scaled.tobytes()
    assert b.H.flags.c_contiguous


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 30),
    kind=st.sampled_from(["ring", "balanced"]),
)
def test_deflated_basis(seed, n, kind):
    rng = np.random.default_rng(seed)
    g = ring_with_back_links(rng, n) if kind == "ring" else random_detailed_balance_graph(rng, n)
    split = decompose_laplacian(g)
    sd, S0 = symmetrize(split), split.symmetric_form()
    S0 = np.zeros((n, n)) if S0 is None else S0
    P, lam, eps = sd.P, sd.eigenvalues, np.finfo(float).eps
    assert np.linalg.norm(P.T @ P - np.eye(n)) <= 16 * eps * np.sqrt(n)
    # the backward error of eigh itself reaches 12 eps ||S0||_F at n = 23 on balanced graphs
    assert np.linalg.norm(P * lam @ P.T - S0) <= 16 * eps * np.sqrt(n) * np.linalg.norm(S0)
    assert np.all(np.diff(lam) >= 0)
    unlinked = np.flatnonzero(~S0.any(axis=1))
    modes = np.argmax(P[unlinked], axis=1)
    assert np.all(np.diff(modes) > 0)
    assert np.array_equal(P[:, modes], np.eye(n)[:, unlinked])

    # the gathered rotations are the dense products within rounding
    r = np.sqrt(split.m)
    X = (r[:, None] * split.LI) * (1.0 / r)
    lam_I = mode_interaction_matrix(split.LI, sd)
    assert np.abs(lam_I - P.T @ X @ P).max() <= 16 * eps * np.linalg.norm(X)
    b = build_bundle(g)
    to_nodes = np.outer(1.0 / r, r)
    assert np.abs(b.H - P @ b.Omega @ P.T * to_nodes).max() <= 16 * eps * np.linalg.norm(b.Omega)

    # node-space operators do not depend on the basis: a full eigh gives the same H, and
    # H0 within the root of eigh's rounding at each of S0's n eigenvalues
    lam_full, P_full = np.linalg.eigh(S0)
    root0 = np.sqrt(lam_full.clip(min=0.0))
    Lambda = np.diag(lam_full.clip(min=0.0)) + P_full.T @ X @ P_full
    Omega = principal_sqrt(Lambda) if np.any(X) else np.diag(root0)
    H, H0 = P_full @ Omega @ P_full.T * to_nodes, P_full * root0 @ P_full.T * to_nodes
    bound = 64 * eps * np.sqrt(n) * np.linalg.norm(H)
    bound0 = to_nodes.max() * np.sqrt(16 * eps * n * np.linalg.norm(S0))
    assert np.linalg.norm(b.H - H) <= bound
    assert np.linalg.norm(b.H0 - H0) <= bound0
    assert np.linalg.norm(b.HI - (H - H0)) <= bound + bound0


def scan_graph(rng, n, kind):
    """A random graph of one kind for the scan-equivalence property."""
    if kind == "digraph":
        return random_digraph(rng, n)
    if kind == "wide":  # a tree whose reverse weights are down to 1e-200: m may overflow
        edges = []
        for i, j in random_undirected_skeleton(rng, n, extra=0):
            w = float(rng.uniform(0.5, 2.0))
            edges += [(str(i), str(j), w), (str(j), str(i), w * 10.0 ** rng.uniform(-200, 0))]
        return from_edges(edges)
    g = random_detailed_balance_graph(rng, n)
    edges = [(g.labels[s], g.labels[d], w) for s, d, w in g.edges]
    k = int(rng.integers(len(edges)))
    if kind == "one_way":
        del edges[k]
    elif kind == "inconsistent":  # breaks detailed balance when the pair lies on a cycle
        edges[k] = edges[k][:2] + (edges[k][2] * (1 + 10.0 ** rng.uniform(-11, -1)),)
    return from_edges(edges)


def outcome(f, g):
    """(None, f(g)), or (the package error's class, reason, edge and message, None)."""
    try:
        return None, f(g)
    except NetoscError as exc:
        error = type(exc), getattr(exc, "reason", None), getattr(exc, "edge", None), str(exc)
        return error, None


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    kind=st.sampled_from(["digraph", "balanced", "one_way", "inconsistent", "wide"]),
)
def test_array_scans_match_the_edge_loops(seed, n, kind):
    rng = np.random.default_rng(seed)
    g = scan_graph(rng, n, kind)
    A = np.zeros((g.n, g.n))
    for s, d, w in g.edges:
        A[s, d] = w
    assert same_bits(g.adjacency(), A)

    error, m = outcome(check_symmetrizable, g)
    want_error, want_m = outcome(check_symmetrizable_loops, g)
    assert error == want_error
    assert error or same_bits(m, want_m)
    error, split = outcome(decompose_laplacian, g)
    want_error, want = outcome(decompose_laplacian_loops, g)
    assert error == want_error
    if error:
        return
    for name in ("L0", "LI", "m"):
        assert same_bits(getattr(split, name), getattr(want, name)), name

    S0 = symmetrized_form(split.L0, split.m)
    for P in (np.linalg.eigh(0.5 * (S0 + S0.T))[1], rng.standard_normal((g.n, g.n))):
        assert same_bits(_fix_signs(P), fix_signs_loops(P))



def dense_stage_graph(rng, n, kind):
    """A random graph for the dense-stage property: balanced, balanced with one link
    removed, with sinks (nodes of out-degree 0), or with no reciprocal link at all."""
    if kind in ("balanced", "one_way"):
        return scan_graph(rng, n, kind)
    pairs = {(i, j) for i, j in rng.integers(0, n, size=(2 * n, 2)).tolist() if i != j}
    if kind == "sinks":
        sinks = set(rng.choice(n, size=max(1, n // 4), replace=False).tolist())
        pairs = {(i, j) for i, j in pairs if i not in sinks}
    else:
        pairs = {(i, j) for i, j in pairs if i < j or (j, i) not in pairs}
    edges = [(str(i), str(j), float(rng.uniform(0.5, 2.0))) for i, j in sorted(pairs or {(0, 1)})]
    return from_edges(edges)


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    kind=st.sampled_from(["balanced", "one_way", "sinks", "no_reciprocal"]),
)
def test_dense_stages_match_the_dense_construction(seed, n, kind):
    # every matrix scattered from the links is bitwise the dense formula it replaced
    g = dense_stage_graph(np.random.default_rng(seed), n, kind)
    for got, want in zip(build_matrices(g), build_matrices_dense(g)):
        assert same_bits(got, want)
    split, want = decompose_laplacian(g), decompose_laplacian_loops(g)
    for name in ("L0", "LI", "m"):
        assert same_bits(getattr(split, name), getattr(want, name)), name
    S, lam = split.symmetric_form(), symmetrized_eigenvalues(split)
    if not np.any(want.L0):
        assert S is None and same_bits(lam, np.zeros(g.n))
        return
    assert same_bits(S, symmetric_form_dense(want.L0, want.m))
    # unlinked nodes deflate to exact zeros; the rest is the full solve within rounding
    bound = 16 * np.finfo(float).eps * np.linalg.norm(S)
    assert np.abs(lam - np.linalg.eigvalsh(S)).max() <= bound
    assert np.sum(lam == 0) >= np.sum(~S.any(axis=1))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    kind=st.sampled_from(["balanced", "one_way", "digraph"]),
)
def test_split_invariants(seed, n, kind):
    g = scan_graph(np.random.default_rng(seed), n, kind)
    split, L = decompose_laplacian(g), build_matrices(g)[2]
    eps = np.finfo(float).eps
    # LI = L - L0 and the sum back each round once: eps |L| entrywise, with a factor 2 spare
    assert np.all(np.abs(split.L0 + split.LI - L) <= 2 * eps * np.abs(L))
    # zero row sums to rounding on L's scale: L0 and LI take their roundings from L's entries
    for X in (L, split.L0, split.LI):
        assert np.all(np.abs(X.sum(axis=1)) <= n * eps * np.abs(L).sum(axis=1))
    AI = np.diag(np.diag(split.LI)) - split.LI
    assert np.all(AI >= 0)
    assert not np.any(AI * AI.T)  # each linked pair keeps its one-way rest in one direction


def test_check_builds_no_dense_matrix():
    # a bidirected ring with 4000 nodes: one dense n x n array would be 128 MB
    n = 4000
    edges = [(str(i), str((i + 1) % n), 1.0 + i % 3) for i in range(n)]
    g = from_edges(edges + [(d, s, w) for s, d, w in edges])
    tracemalloc.start()
    try:
        m = check_symmetrizable(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(m, np.ones(n))
    assert peak < 4 * 1024**2
