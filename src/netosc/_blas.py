"""One BLAS thread per OpenBLAS pool for the span of a CLI command.

The numpy and scipy wheels each bundle their own OpenBLAS, each with a thread
pool as wide as the machine.  At n up to a few hundred the two pools contend
for the same cores and a command runs faster with one thread per pool; near
n = 1000 two threads win again.  The pools are found in /proc/self/maps on the
first call; MKL, Accelerate or a system without /proc yields no pool and the
scope does nothing.
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


@functools.cache
def _pools(maps="/proc/self/maps"):
    """(get, set) thread-count functions of every OpenBLAS loaded in this process."""
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
                pools.append((get, put))
                break
    return tuple(pools)


@contextlib.contextmanager
def single_threaded():
    """Set every OpenBLAS pool to one thread; restore the saved counts on exit."""
    pools = _pools()
    saved = [get() for get, _ in pools]
    try:
        for _, put in pools:
            put(1)
        yield
    finally:
        for (_, put), count in zip(pools, saved):
            put(count)
