"""Deterministic JSON serialization for CLI reports.

Floats are rounded to 12 significant digits before encoding and keys are
sorted, so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import json

import numpy as np


def _normalize(obj):
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim == 0:
            return _normalize(obj.tolist())
        if obj.ndim > 1:
            return [_normalize(row) for row in obj]
        return [float(f"{x:.12g}") for x in obj.tolist()]  # the float branch below, in one pass
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_normalize(obj.real), _normalize(obj.imag)]
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_normalize(obj), sort_keys=True, separators=(",", ":"))

