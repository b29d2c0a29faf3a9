"""Weighted directed graphs and the matrices derived from them.

Edge-list text format: one edge per line, ``src,dst,weight`` (comma or tab
separated), ``#`` starts a comment, weight defaults to 1.0 and must be positive
and finite, and there must be at least one edge.  Node labels are arbitrary
strings remapped to dense indices in order of first appearance; the label
table travels with the graph.  The (src, dst[, weight]) tuples of from_edges
follow the same rules through the same validator.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeOverflow,
    DuplicateEdge,
    EmptyGraph,
    NonPositiveWeight,
    NotUtf8,
    ParseError,
    SelfLoop,
)


@dataclass(frozen=True)
class WeightedDigraph:
    """Simple directed graph: no self-loops, no duplicate links, finite weights > 0.

    Build it with from_edges or parse_edge_list, which enforce these rules.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[str, ...]

    @functools.cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, w) arrays of the edges, in edge order; shared, so never written to."""
        flat = np.fromiter(itertools.chain.from_iterable(self.edges), float, 3 * len(self.edges))
        src, dst, w = flat.reshape(-1, 3).T.copy()
        return src.astype(np.intp), dst.astype(np.intp), w

    def adjacency(self) -> np.ndarray:
        src, dst, w = self.edge_arrays
        A = np.zeros((self.n, self.n))
        A[src, dst] = w
        return A


def _build(rows) -> WeightedDigraph:
    """Validate (line_no, raw, fields) rows and build the graph.

    fields is (src, dst) or (src, dst, weight); labels become strings, and a
    weight is anything float() accepts.  raw is what a ParseError quotes.
    """
    index: dict[str, int] = {}
    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw, fields in rows:
        is_row = isinstance(fields, Sequence) and not isinstance(fields, (str, bytes))
        if not is_row or len(fields) not in (2, 3):
            raise ParseError(line_no, raw)
        src_label, dst_label = str(fields[0]), str(fields[1])
        try:
            w = float(fields[2]) if len(fields) == 3 else 1.0
        except (TypeError, ValueError):
            raise ParseError(line_no, raw) from None
        if src_label == dst_label:
            raise SelfLoop(src_label)
        if not 0 < w < math.inf:
            raise NonPositiveWeight(line_no, w)
        src = index.setdefault(src_label, len(index))
        dst = index.setdefault(dst_label, len(index))
        if (src, dst) in seen:
            raise DuplicateEdge(src_label, dst_label)
        seen.add((src, dst))
        edges.append((src, dst, w))
    if not edges:
        raise EmptyGraph()
    return WeightedDigraph(n=len(index), edges=tuple(edges), labels=tuple(index))


def from_edges(labeled_edges) -> WeightedDigraph:
    """Build a graph from (src_label, dst_label[, weight]) tuples.

    Tuples follow the edge-list rules; the k-th tuple counts as line k.
    """
    return _build((k, e, e) for k, e in enumerate(labeled_edges, start=1))


def parse_edge_list(text: str) -> WeightedDigraph:
    """Parse edge-list text (see module docstring for the format)."""

    def rows():
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                parts = [p.strip() for p in line.replace("\t", ",").split(",")]
                yield line_no, raw, [p for p in parts if p]

    return _build(rows())


def load_edge_list(path) -> WeightedDigraph:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise NotUtf8(path, exc) from None
    return parse_edge_list(text)


def build_matrices(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (A, D, L) with L = D - A and D the out-degree diagonal.

    ||L||_F must be finite, which also bounds every degree; DegreeOverflow
    names the node whose row first takes the running sum of squares past it.
    """
    A = g.adjacency()
    with np.errstate(over="ignore"):
        d = A.sum(axis=1)
        norm_sq = np.cumsum(d * d + np.einsum("ij,ij->i", A, A))
    overflow = np.flatnonzero(np.isinf(norm_sq))
    if len(overflow):
        raise DegreeOverflow(g.labels[overflow[0]])
    D = np.diag(d)
    return A, D, D - A


def laplacian(g: WeightedDigraph) -> np.ndarray:
    return build_matrices(g)[2]
