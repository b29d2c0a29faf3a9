"""Symmetrizability detection, Laplacian decomposition, and mode coordinates.

A digraph is symmetrizable when positive node weights m exist with
m_i w_ij = m_j w_ji on every linked pair; then M^{1/2} L M^{-1/2} is a
symmetric matrix sharing the Laplacian spectrum.  Non-symmetrizable graphs
are split into a symmetrizable part plus a one-way-link remainder.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSymmetrizable, NumericalFailure
from .graph import WeightedDigraph, laplacian, link_laplacian, out_degrees

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of the symmetrized form S0 = M^{1/2} L0 M^{-1/2}.  The modes `block` are
    eigh of S0's block of linked rows, nodes[block]; every other mode p is the unit vector of
    the unlinked node nodes[p] (a zero row of S0), in node order."""

    eigenvalues: np.ndarray      # ascending, eigenvalues[0] ~ 0
    P: np.ndarray                # orthogonal, columns are eigenvectors
    m: np.ndarray                # symmetrizing node weights
    nodes: np.ndarray            # a permutation: the node of each mode, as above
    block: np.ndarray            # the block's modes, ascending

    @functools.cached_property
    def m_sqrt(self) -> np.ndarray | None:
        """sqrt(m), or None when every weight is 1 and M^{+-1/2} is the identity."""
        return None if np.all(self.m == 1.0) else np.sqrt(self.m)


@dataclass(frozen=True)
class LaplacianSplit:
    """L = L0 + LI with L0 symmetrizable (under m) and LI one-way; L0 is the Laplacian of
    the links (src, dst, w0) of g, link k's reverse at rev[k].  L0 and LI are lazy."""

    g: WeightedDigraph
    links: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # (src, dst, w0, rev)
    m: np.ndarray
    is_pure_symmetrizable: bool  # LI = 0

    @functools.cached_property
    def L0(self) -> np.ndarray:
        return link_laplacian(self.g.n, *self.links[:3])

    @functools.cached_property
    def LI(self) -> np.ndarray:
        """L - L0 entrywise, L scattered and L0 subtracted in its buffer: +0.0 throughout
        on a symmetrizable graph, whose L0 is L."""
        LI = laplacian(self.g)
        LI -= self.L0
        return LI

    def symmetric_form(self) -> np.ndarray | None:
        """0.5 (S0 + S0^T) for S0 = M^{1/2} L0 M^{-1/2}, or None when L0 = 0, filled from the
        links into one n x n array: S0_ij = (sqrt(m_i) L0_ij) (1 / sqrt(m_j)), bitwise the
        dense formula.  An asymmetry above DEFAULT_TOL * max|S0| is a NumericalFailure."""
        src, dst, w0, rev = self.links
        if not len(src):
            return None
        S = link_laplacian(self.g.n, src, dst, w0)
        r = np.sqrt(self.m)
        s = (r[src] * -w0) * (1.0 / r)[dst]
        diag = (r * S.diagonal()) * (1.0 / r)
        asym = np.abs(s - s[rev]).max()
        if asym > DEFAULT_TOL * max(np.abs(s).max(), np.abs(diag).max()):
            raise NumericalFailure(f"symmetrized form is not symmetric (residual {asym:.3e})")
        S[src, dst] = 0.5 * (s + s[rev])
        S.flat[:: self.g.n + 1] = 0.5 * (diag + diag)
        return S


def check_symmetrizable(g: WeightedDigraph) -> np.ndarray:
    """Symmetrizing weights m, normalized to min(m) = 1, or raise NotSymmetrizable.

    m is propagated over a spanning forest of the reciprocal-link structure
    (root weight 1), then every edge is checked for the detailed-balance
    residual |m_i w_ij - m_j w_ji| <= DEFAULT_TOL * max(m_i w_ij, m_j w_ji).
    That bounds |S0_ij - S0_ji| by DEFAULT_TOL * max|S0|, the test symmetrize
    applies.  A propagated m that is non-finite or below the smallest normal float
    (too few bits for that test), or an m that leaves the float range when
    normalized, raises NumericalFailure.
    """
    src, dst, w = g.edge_arrays
    rev = g.reverse
    one_way = np.flatnonzero(rev < 0)
    if len(one_way):
        e = one_way[0]
        raise NotSymmetrizable("one_way_edge", edge=(g.labels[src[e]], g.labels[dst[e]]))
    w_rev = w[rev]
    # each node's out-links in edge order, as plain lists for the traversal
    by_src = np.argsort(src, kind="stable")
    start = np.searchsorted(src[by_src], np.arange(g.n + 1)).tolist()
    adj, w_out, w_in = dst[by_src].tolist(), w[by_src].tolist(), w_rev[by_src].tolist()
    m = [None] * g.n
    for root in range(g.n):
        if m[root] is None:
            m[root], stack = 1.0, [root]
            while stack:
                i = stack.pop()
                for k in range(start[i], start[i + 1]):
                    if m[adj[k]] is None:
                        # detailed balance forces m_j = m_i w_ij / w_ji; floats overflow to inf
                        m[adj[k]] = m[i] * w_out[k] / w_in[k]
                        stack.append(adj[k])
    m = np.array(m)
    if not np.all((m >= np.finfo(float).tiny) & (m < np.inf)):
        raise NumericalFailure("symmetrizing weights m fall outside the float range")
    with np.errstate(all="ignore"):
        lhs, rhs = m[src] * w, m[dst] * w_rev
        bad = np.flatnonzero(np.abs(lhs - rhs) > DEFAULT_TOL * np.maximum(lhs, rhs))
        if len(bad):
            e = bad[0]
            raise NotSymmetrizable("cycle_inconsistent", edge=(g.labels[src[e]], g.labels[dst[e]]))
        m /= m.min()
    if not np.all(np.isfinite(m)):
        raise NumericalFailure("symmetrizing weights m fall outside the float range")
    return m


def decompose_laplacian(g: WeightedDigraph) -> LaplacianSplit:
    """Split L into a symmetrizable part L0 and a one-way remainder LI, O(edges).

    Symmetrizable input keeps L whole (LI = 0).  Otherwise m is fixed to 1 and each
    linked pair contributes min(w_ij, w_ji) symmetrically to L0; the residual weight
    goes one-way into LI, so LI = L - L0 entrywise.  The ||L||_F gate comes first.
    """
    out_degrees(g)
    src, dst, w = g.edge_arrays
    try:
        return LaplacianSplit(g, (src, dst, w, g.reverse), check_symmetrizable(g), True)
    except NotSymmetrizable:
        pass
    pairs = np.flatnonzero(g.reverse >= 0)
    rev = g.reverse[pairs]
    links = src[pairs], dst[pairs], np.minimum(w[pairs], w[rev]), np.searchsorted(pairs, rev)
    return LaplacianSplit(g, links, np.ones(g.n), False)


def _fix_signs(P: np.ndarray) -> np.ndarray:
    """Deterministic sign: largest-magnitude component of each column positive."""
    top = P[np.argmax(np.abs(P), axis=0), np.arange(P.shape[1])]
    return P * np.where(top < 0, -1.0, 1.0)


def _eigen(split: LaplacianSplit, vectors: bool):
    """eigh (vectors) or eigvalsh of split.symmetric_form() on its linked rows alone.  Each
    zero row and column holds an exact eigenvalue 0 with the node's unit vector as its mode;
    those zeros go first and one stable ascending sort merges them in, so unlinked nodes keep
    node order.  With vectors, also the block's sign-fixed eigenvectors Q, the node of each
    mode (the linked nodes, ascending, for the block's) and the block's modes."""
    S, n = split.symmetric_form(), split.g.n
    linked = np.zeros(n, dtype=bool) if S is None else S.any(axis=1)
    live = np.flatnonzero(linked)
    k = len(live)
    lam, Q = np.zeros(0), np.zeros((0, 0))
    if k:
        S = S if k == n else S[np.ix_(live, live)]
        try:
            if vectors:
                lam, Q = np.linalg.eigh(S)
                Q = _fix_signs(Q)
            else:
                lam = np.linalg.eigvalsh(S)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    lam = np.concatenate([np.zeros(n - k), lam])
    order = np.argsort(lam, kind="stable")
    if not vectors:
        return lam[order]
    nodes = np.concatenate([np.flatnonzero(~linked), live])[order]
    return lam[order], Q, nodes, np.flatnonzero(order >= n - k)


def symmetrize(split: LaplacianSplit) -> SpectralDecomposition:
    """Eigendecompose S0 = M^{1/2} L0 M^{-1/2} of a split (see _eigen).  P holds the block's
    eigenvectors on its linked rows and a 1 at each unlinked node's row and mode; L0 = 0 is
    the empty block, and P the identity."""
    lam, Q, nodes, block = _eigen(split, vectors=True)
    n = len(lam)
    P = np.zeros((n, n))
    P[nodes, np.arange(n)] = 1.0
    P[np.ix_(nodes[block], block)] = Q
    return SpectralDecomposition(eigenvalues=lam, P=P, m=split.m, nodes=nodes, block=block)


def symmetrized_eigenvalues(split: LaplacianSplit) -> np.ndarray:
    """Ascending eigenvalues of S0 alone, as symmetrize's but without eigenvectors."""
    return _eigen(split, vectors=False)


def spectral_decomposition(g: WeightedDigraph):
    """Convenience: split the graph and eigendecompose its symmetrizable part."""
    split = decompose_laplacian(g)
    return split, symmetrize(split)


def to_modes(x: np.ndarray, sd: SpectralDecomposition) -> np.ndarray:
    """Node coordinates -> mode coordinates, psi = P^T M^{1/2} x."""
    x = np.asarray(x)
    if x.shape != (sd.P.shape[0],):
        raise DimensionMismatch(f"state length {x.shape} vs n={sd.P.shape[0]}")
    return sd.P.T @ (np.sqrt(sd.m) * x)


def mode_interaction_matrix(LI: np.ndarray, sd: SpectralDecomposition) -> np.ndarray:
    """Lambda_I = P^T (M^{1/2} L_I M^{-1/2}) P (see _conjugate); exact zeros when L_I is zero.
    Where m is all ones the scaling is skipped (sd.m_sqrt is None), which is bitwise the same."""
    if LI.shape != sd.P.shape:
        raise DimensionMismatch(f"LI shape {LI.shape} vs {sd.P.shape}")
    if not np.any(LI):
        return np.zeros(LI.shape)
    if sd.m_sqrt is not None:
        LI = (sd.m_sqrt[:, None] * LI) * (1.0 / sd.m_sqrt)
    return _conjugate(LI, sd, into_modes=True)


def _conjugate(X: np.ndarray, sd: SpectralDecomposition, into_modes: bool) -> np.ndarray:
    """P^T X P (into_modes) or P X P^T, the left product first.  Each unit mode is a gather
    and only the k x k block Q multiplies; with every node linked Q is all of P and this is
    the dense product, bit for bit."""
    P, block = sd.P, sd.block
    if len(block) == len(X):
        return P.T @ X @ P if into_modes else P @ X @ P.T
    live = sd.nodes[block]
    Q = P[np.ix_(live, block)]
    # P^T takes node nodes[p] to mode p and P mode p back to its node: one gather, then
    # the block's rows through Q^T (or Q); the right factor does the same to the columns
    idx, b_in, b_out, A = (sd.nodes, live, block, Q.T) if into_modes else (
        np.argsort(sd.nodes), block, live, Q)
    W = X[idx]
    W[b_out] = A @ X[b_in]
    out = np.take(W, idx, axis=1)                    # C-ordered, as the dense product is
    out[:, b_out] = W[:, b_in] @ A.T
    return out
