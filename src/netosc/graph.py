"""Weighted directed graphs and the matrices derived from them.

Edge-list text format: one edge per line, ``src,dst,weight`` (comma or tab
separated), ``#`` starts a comment, weight defaults to 1.0 and must be positive
and finite, and there must be at least one edge.  Node labels are arbitrary
strings remapped to dense indices in order of first appearance; the label
table travels with the graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
    """Simple directed graph: no self-loops, no duplicate links, finite weights > 0."""

    n: int
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for src, dst, w in self.edges:
            if src == dst:
                raise SelfLoop(self.labels[src])
            if (src, dst) in seen:
                raise DuplicateEdge(self.labels[src], self.labels[dst])
            if not 0 < w < math.inf:
                raise NonPositiveWeight(-1, w)
            seen.add((src, dst))

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        for src, dst, w in self.edges:
            A[src, dst] = w
        return A

    def to_json(self) -> str:
        """Stable-key JSON export of the graph."""
        payload = {
            "edges": [[self.labels[s], self.labels[d], w] for s, d, w in sorted(self.edges)],
            "labels": list(self.labels),
            "n": self.n,
        }
        return json.dumps(payload, sort_keys=True)

    def to_edge_list(self) -> str:
        """Canonical edge-list text: sorted by dense (src, dst) index."""
        lines = [
            f"{self.labels[s]},{self.labels[d]},{w:.12g}" for s, d, w in sorted(self.edges)
        ]
        return "\n".join(lines) + "\n"


def from_edges(labeled_edges, default_weight=1.0) -> WeightedDigraph:
    """Build a graph from (src_label, dst_label[, weight]) tuples."""
    labels: list[str] = []
    index: dict[str, int] = {}

    def node(label):
        label = str(label)
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    edges = []
    for e in labeled_edges:
        if len(e) == 2:
            src, dst = e
            w = default_weight
        else:
            src, dst, w = e
        edges.append((node(src), node(dst), float(w)))
    return WeightedDigraph(n=len(labels), edges=tuple(edges), labels=tuple(labels))


def parse_edge_list(text: str) -> WeightedDigraph:
    """Parse edge-list text (see module docstring for the format)."""
    labels: list[str] = []
    index: dict[str, int] = {}

    def node(label):
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.replace("\t", ",").split(",") if p.strip()]
        if len(parts) not in (2, 3):
            raise ParseError(line_no, raw)
        src_label, dst_label = parts[0], parts[1]
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(line_no, raw) from None
        else:
            w = 1.0
        if src_label == dst_label:
            raise SelfLoop(src_label)
        if not 0 < w < math.inf:
            raise NonPositiveWeight(line_no, w)
        src, dst = node(src_label), node(dst_label)
        if (src, dst) in seen:
            raise DuplicateEdge(src_label, dst_label)
        seen.add((src, dst))
        edges.append((src, dst, w))
    if not edges:
        raise EmptyGraph()
    return WeightedDigraph(n=len(labels), edges=tuple(edges), labels=tuple(labels))


def load_edge_list(path) -> WeightedDigraph:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise NotUtf8(path, exc) from None
    return parse_edge_list(text)


def build_matrices(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (A, D, L) with L = D - A and D the out-degree diagonal."""
    A = g.adjacency()
    with np.errstate(over="ignore"):
        d = A.sum(axis=1)
    overflow = np.flatnonzero(np.isinf(d))
    if len(overflow):
        raise DegreeOverflow(g.labels[overflow[0]])
    D = np.diag(d)
    return A, D, D - A


def laplacian(g: WeightedDigraph) -> np.ndarray:
    return build_matrices(g)[2]
