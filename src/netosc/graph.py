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
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeOverflow,
    DuplicateEdge,
    EmptyGraph,
    GraphTooLarge,
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

    @functools.cached_property
    def reverse(self) -> np.ndarray:
        """Each edge's reverse link as an edge index, or -1; shared, so never written to."""
        src, dst, _ = self.edge_arrays
        keys, reverse_keys = src * self.n + dst, dst * self.n + src
        order = np.argsort(keys)
        rev = order[np.searchsorted(keys, reverse_keys, sorter=order).clip(max=len(keys) - 1)]
        return np.where(keys[rev] == reverse_keys, rev, -1)

    def adjacency(self) -> np.ndarray:
        return dense(self.n, *self.edge_arrays)


def _floats(values) -> tuple[np.ndarray, int]:
    """float() of each value, stopped before the first one float() refuses:
    (those floats, the index of that value or len(values))."""
    try:
        return np.fromiter(map(float, values), float, len(values)), len(values)
    except (TypeError, ValueError):
        pass
    done = []
    for value in values:  # only a faulty column gets here, to find its first fault
        try:
            done.append(float(value))
        except (TypeError, ValueError):
            break
    return np.array(done), len(done)


def _build(src, dst, weights, line_no, raw, truncated) -> WeightedDigraph:
    """Validate edge rows given as columns and build the graph; the one validator.

    Row k is (src[k], dst[k], weights[k]): two label strings and anything float()
    accepts.  line_no[k] numbers row k and raw(k) is what its ParseError quotes;
    `truncated` says that the rows stop before one without that shape.  The first
    faulty row raises; within a row the checks run ParseError, SelfLoop,
    NonPositiveWeight, DuplicateEdge.
    """
    w, rows = _floats(weights)
    src, dst = src[:rows], dst[:rows]
    ends = [None] * (2 * rows)
    ends[::2], ends[1::2] = src, dst
    labels = tuple(dict.fromkeys(ends))  # in order of first appearance
    index = dict(zip(labels, range(len(labels))))
    # the dict's own int objects, shared by every edge of a node
    s_ids, d_ids = list(map(index.__getitem__, src)), list(map(index.__getitem__, dst))
    s, d = np.array(s_ids, dtype=np.intp), np.array(d_ids, dtype=np.intp)
    # a stable sort of the (s, d) keys puts every repeat right after an earlier row
    keys = s * len(labels) + d
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    firsts = (
        [rows] if rows < len(weights) or truncated else [],  # ParseError
        np.flatnonzero(s == d)[:1],  # SelfLoop
        np.flatnonzero(~((w > 0) & (w < math.inf)))[:1],  # NonPositiveWeight
        np.sort(repeats)[:1],  # DuplicateEdge
    )
    faults = [(int(k), check) for check, first in enumerate(firsts) for k in first]
    if faults:
        k, check = min(faults)
        if check == 0:
            raise ParseError(int(line_no[k]), raw(k))
        if check == 1:
            raise SelfLoop(src[k])
        if check == 2:
            raise NonPositiveWeight(int(line_no[k]), float(w[k]))
        raise DuplicateEdge(src[k], dst[k])
    if not rows:
        raise EmptyGraph()
    g = WeightedDigraph(n=len(labels), edges=tuple(zip(s_ids, d_ids, w.tolist())), labels=labels)
    g.__dict__["edge_arrays"] = s, d, w  # the cached property's value, already built
    return g


def from_edges(labeled_edges) -> WeightedDigraph:
    """Build a graph from (src_label, dst_label[, weight]) tuples.

    Tuples follow the edge-list rules; the k-th tuple counts as line k.
    """
    rows = list(labeled_edges)
    cut = next(
        (k for k, e in enumerate(rows)
         if isinstance(e, (str, bytes)) or not isinstance(e, Sequence) or len(e) not in (2, 3)),
        len(rows),
    )
    shaped = rows[:cut]
    return _build(
        [str(e[0]) for e in shaped],
        [str(e[1]) for e in shaped],
        [e[2] if len(e) == 3 else 1.0 for e in shaped],
        range(1, len(rows) + 1),
        rows.__getitem__,
        cut < len(rows),
    )


# from a '#' to the end of its line: the class excludes every str.splitlines boundary;
# re compiles it on first use, so importing the module does not pay for it
_COMMENT = r"#[^\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029]*"


def parse_edge_list(text: str) -> WeightedDigraph:
    """Parse edge-list text (see module docstring for the format).

    Whole-text passes cut it into stripped fields: comments go, and one split of the
    joined lines, tabs made commas, yields every field.  A row is a line that holds
    a nonempty field or a comma; its nonempty fields are (src, dst[, weight]).
    """
    lines = re.sub(_COMMENT, " ", text).splitlines()  # " ": no "\r" meets a "\n"

    def count(sep):
        return np.fromiter(map(str.count, lines, itertools.repeat(sep)), np.intp, len(lines))

    def pick(where):
        return list(map(fields.__getitem__, where.tolist()))

    commas = count(",")
    seps = commas + count("\t") if "\t" in text else commas
    fields = list(map(str.strip, ",".join(lines).replace("\t", ",").split(",")))
    kept = np.flatnonzero(np.fromiter(map(bool, fields), bool, len(fields)))
    size = np.bincount(np.repeat(np.arange(len(lines)), seps + 1)[kept], minlength=len(lines))
    row_lines = np.flatnonzero(size | commas)
    size = size[row_lines]
    misshapen = np.flatnonzero((size < 2) | (size > 3))
    rows = misshapen[0] if len(misshapen) else len(row_lines)
    size = size[:rows]
    first = np.cumsum(size) - size  # each row's first field, as a position in kept
    fields.append(1.0)  # the weight of a two-field row
    third = np.where(size == 3, kept[(first + 2).clip(max=len(kept) - 1)], -1)
    return _build(
        pick(kept[first]),
        pick(kept[first + 1]),
        pick(third),
        row_lines + 1,
        lambda k: text.splitlines()[row_lines[k]],
        len(misshapen) > 0,
    )


def load_edge_list(path) -> WeightedDigraph:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise NotUtf8(path, exc) from None
    return parse_edge_list(text)


DENSE_BYTES = 2**30  # the largest n x n float64 array the package builds: n <= 11585


def dense(n, rows, cols, values) -> np.ndarray:
    """A zeroed n x n float64 array with `values` at (rows, cols), the scatter behind every
    matrix built from a graph's links.  GraphTooLarge above DENSE_BYTES, before allocating."""
    if 8 * n * n > DENSE_BYTES:
        raise GraphTooLarge(f"{n} nodes: an n x n matrix takes {8 * n * n} bytes > {DENSE_BYTES}")
    X = np.zeros((n, n))
    X[rows, cols] = values
    return X


def link_laplacian(n, rows, cols, w) -> np.ndarray:
    """The Laplacian of the links (rows, cols) of weights w: -w off the diagonal, the row
    sums d on it.  d sums each dense row, in the order of A.sum(axis=1), so the result is
    bitwise diag(A.sum(axis=1)) - A, signed zeros included (0.0 - +0.0 is +0.0)."""
    L = dense(n, rows, cols, -w)
    with np.errstate(over="ignore"):
        L.flat[:: n + 1] = 0.0 - L.sum(axis=1)
    return L


def out_degrees(g: WeightedDigraph) -> np.ndarray:
    """The out-degrees d from the edge arrays, O(edges), and the gate of every Laplacian:
    DegreeOverflow unless ||L||_F^2 = sum_i (d_i^2 + sum_j A_ij^2) is finite, naming the
    node whose row first takes the running sum past it."""
    src, _, w = g.edge_arrays
    with np.errstate(over="ignore"):
        d = np.bincount(src, w, g.n)
        overflow = np.flatnonzero(np.isinf(np.cumsum(d * d + np.bincount(src, w * w, g.n))))
    if len(overflow):
        raise DegreeOverflow(g.labels[overflow[0]])
    return d


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """L = D - A, scattered from the edge arrays (see link_laplacian and out_degrees)."""
    out_degrees(g)
    return link_laplacian(g.n, *g.edge_arrays)


def build_matrices(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (A, D, L) with L = D - A and D the out-degree diagonal (see laplacian)."""
    L = laplacian(g)
    return g.adjacency(), np.diag(L.diagonal()), L
