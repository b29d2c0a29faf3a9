"""One BLAS thread per OpenBLAS pool for the span of a CLI command, and the
deferred import of scipy.linalg.

The numpy and scipy wheels each bundle their own OpenBLAS, each with a thread
pool as wide as the machine.  At n up to a few hundred the two pools contend
for the same cores and a command runs faster with one thread per pool; near
n = 1000 two threads win again.  The pools are found in /proc/self/maps on the
first call; MKL, Accelerate or a system without /proc yields no pool and the
scope does nothing.

scipy is imported by `linalg()` on its first call, never at import.  Only
`sqrt_ops` calls it, for the Schur form and `dtrsyl`: `sqrt`, `fundamental`
and `product-form` load scipy on first use, and `info`, `check`, `decompose`,
`spectrum`, `centrality`, `flaming`, `simulate`, `doubled` and `verify` never
do.  The import maps scipy's own OpenBLAS, so `linalg()` reads the pools
again; inside an open scope the new pool is set to one thread and restored
with the others on exit.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

_SYMBOLS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]

# library path -> (set, saved count) of each pool the open scope set to one
# thread; None outside a scope.  The pools are process-wide, and so is this.
_scope: dict | None = None


@functools.cache
def _pools(maps="/proc/self/maps"):
    """(library path, get, set) of every OpenBLAS loaded in this process."""
    try:
        with open(maps, encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return ()
    pools = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(handle, get_name) and hasattr(handle, set_name):
                get, put = getattr(handle, get_name), getattr(handle, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((lib, get, put))
                break
    return tuple(pools)


def _join_scope():
    """Set each pool the open scope has not set yet to one thread, saving its count."""
    for lib, get, put in _pools():
        if lib not in _scope:
            _scope[lib] = (put, get())
            put(1)


@contextlib.contextmanager
def single_threaded():
    """Set every OpenBLAS pool to one thread; restore the saved counts on exit.

    A pool loaded while the scope is open joins it through `linalg()`.
    """
    global _scope
    _scope = {}
    try:
        _join_scope()
        yield
    finally:
        saved, _scope = _scope, None
        for put, count in saved.values():
            put(count)


@functools.cache
def linalg():
    """scipy.linalg, imported on the first call."""
    import scipy.linalg

    _pools.cache_clear()
    if _scope is not None:
        _join_scope()
    return scipy.linalg
