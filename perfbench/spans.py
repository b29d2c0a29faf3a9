"""Outside-in span tracer: wraps the public functions of netosc's modules.

Nothing in the program changes.  ``Tracer.install`` replaces every public
function of the seven layers (and every public method of their classes) with
a wrapper that records a span; names rebound by ``from ... import`` in another
module and the CLI's command table are wrapped too, so every call path is
seen.  A span is attributed to the layer that defines the function.
``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("graph", "symmetry", "sqrt_ops", "dynamics", "doubled", "reporting", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, same thread; None at a thread's root
    request: int | None
    thread: int
    raised: bool = False
    info: dict = field(default_factory=dict)


def _steps(traj):
    return len(traj.times) - 1, traj.states.shape[1]


def _wave_info(traj):
    steps, n = _steps(traj)
    return {"steps": steps, "node_steps": steps * n, "diverged": int("diverged_at" in traj.meta)}


def _fundamental_info(traj):
    steps, n = _steps(traj)
    return {"steps": steps, "node_steps": steps * n}


def _doubled_info(traj):
    steps, dim = _steps(traj)
    # computed, not measured: one dense complex dim x dim matvec per step
    return {"steps": steps, "matvec_flops": steps * 8 * dim * dim}


# Counts read from a call's result; the result itself is not kept.
RESULT_INFO = {
    "graph.parse_edge_list": lambda g: {"edges_parsed": len(g.edges)},
    "dynamics.integrate_wave": _wave_info,
    "dynamics.integrate_fundamental": _fundamental_info,
    "dynamics.product_form_solve": lambda r: _fundamental_info(r[0]),
    "doubled.integrate_doubled": _doubled_info,
}


class Tracer:
    """Records spans in memory while installed; ``request`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []  # (owner, key, original)

    # ---------------------------------------------------------------- wrapping

    def _wrap(self, fn, name):
        tracer = self
        info_of = RESULT_INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                        tracer.request, threading.get_ident())
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info_of is not None:
                span.info = info_of(result)
            return result

        return wrapper

    def _patch(self, owner, key, new):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def install(self):
        """Wrap the public functions of every layer module of netosc."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"netosc.{layer}") for layer in LAYERS]
        owned = {module.__name__: layer for module, layer in zip(modules, LAYERS)}
        wrappers = {}  # original function -> wrapper, shared by every name bound to it

        def wrapper_for(fn, name):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, name)
            return wrappers[fn]

        for module in modules:
            for key, obj in list(vars(module).items()):
                if key.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in owned:
                    name = f"{owned[obj.__module__]}.{obj.__name__}"
                    self._patch(module, key, wrapper_for(obj, name))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            name = f"{owned[module.__name__]}.{obj.__name__}.{attr}"
                            self._patch(obj, attr, wrapper_for(member, name))
        # tables that hold function references, e.g. the CLI's command map
        for module in modules:
            for obj in list(vars(module).values()):
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patch(obj, key, wrappers[value])
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    @property
    def patched(self):
        """(owner, key, original) for every replaced binding."""
        return list(self._patches)

    # ------------------------------------------------------------- aggregation

    def summary(self, start=0, end=None):
        """Per-span-name totals over ``spans[start:end]``.

        Each row holds calls, raised, total_s, self_s and the summed counts of
        RESULT_INFO.  Self time is a span's duration minus the durations of
        its children, which run nested and in sequence on the same thread.  A
        call into a worker thread is not a child: while it runs the caller is
        waiting, and that wait is the caller's own.  The slice must hold whole
        requests, so that every parent lies inside it.
        """
        spans = self.spans[start:end]
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child[s.parent - start] += s.end - s.start
        rows = defaultdict(lambda: defaultdict(float))
        for s, inner in zip(spans, child):
            row = rows[s.name]
            row["calls"] += 1
            row["raised"] += s.raised
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - inner
            for key, value in s.info.items():
                row[key] += value
        return rows
