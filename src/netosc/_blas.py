"""Where LAPACK comes from, and one BLAS thread per OpenBLAS pool for the span
of a CLI command.

The Schur square root needs two LAPACK routines, `dgees` and `dtrsyl`.  numpy's
wheel maps an OpenBLAS that exports both through LAPACKE, so `schur` and
`trsyl` call them there with ctypes, and no command imports scipy.  Where no
mapped library exports them (MKL, Accelerate, a system without /proc), the same
two functions call scipy.linalg instead, imported by `linalg()` on its first
call, never at import.  The choice follows from what the process has mapped;
there is no setting.

Each mapped OpenBLAS has a thread pool as wide as the machine.  At n up to a
few hundred the extra threads buy no time: without the scope the benchmark's
spectral and verify workloads took the same wall time for about twice the CPU
time (2 vCPUs, numpy 2.4 wheel).  Near n = 1000 two threads win again (ROADMAP
item 7).  The pools are found in /proc/self/maps on the first call; MKL,
Accelerate or a system without /proc yields no pool and the scope does nothing.
Importing scipy maps its own OpenBLAS, so `linalg()` reads the pools again;
inside an open scope the new pool is set to one thread and restored with the
others on exit.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math

import numpy as np

from .errors import NumericalFailure

_SYMBOLS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]
_LAPACKE = [
    (f"{prefix}LAPACKE_dgees{suffix}", f"{prefix}LAPACKE_dtrsyl{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
]
_CONFIG = [
    f"{prefix}openblas_get_config{suffix}" for prefix in ("scipy_", "") for suffix in ("64_", "")
]
_COL_MAJOR = 102

# dgees info beyond n, as scipy words it
_GEES_FAILURES = {
    1: "Eigenvalues could not be separated for reordering.",
    2: "Leading eigenvalues do not satisfy sort condition.",
}

# library path -> (set, saved count) of each pool the open scope set to one
# thread; None outside a scope.  The pools are process-wide, and so is this.
_scope: dict | None = None


def _mapped():
    """(library path, ctypes handle) of every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return []
    handles = []
    for lib in libs:
        with contextlib.suppress(OSError):
            handles.append((lib, ctypes.CDLL(lib)))
    return handles


@functools.cache
def _pools():
    """(library path, get, set) of every OpenBLAS loaded in this process."""
    pools = []
    for lib, handle in _mapped():
        for get_name, set_name in _SYMBOLS:
            if hasattr(handle, get_name) and hasattr(handle, set_name):
                get, put = getattr(handle, get_name), getattr(handle, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((lib, get, put))
                break
    return tuple(pools)


@functools.cache
def _lapacke():
    """(dgees, dtrsyl, select type, integer type) of the first mapped OpenBLAS
    that exports both routines and its build configuration; None if there is none."""
    for _, handle in _mapped():
        config = next((getattr(handle, name) for name in _CONFIG if hasattr(handle, name)), None)
        routines = next((pair for pair in _LAPACKE if all(hasattr(handle, f) for f in pair)), None)
        if config is None or routines is None:
            continue
        config.argtypes, config.restype = [], ctypes.c_char_p
        # the integer width is the build's, whatever the symbol suffix says
        int_t = ctypes.c_int64 if b"USE64BITINT" in config().split() else ctypes.c_int32
        ptr, dbl = ctypes.c_void_p, ctypes.POINTER(ctypes.c_double)
        select_t = ctypes.CFUNCTYPE(int_t, dbl, dbl)
        dgees, dtrsyl = (getattr(handle, name) for name in routines)
        dgees.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, select_t, int_t, ptr, int_t,
                          ctypes.POINTER(int_t), ptr, ptr, ptr, int_t]
        dtrsyl.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, int_t, int_t, int_t,
                           ptr, int_t, ptr, int_t, ptr, int_t, dbl]
        dgees.restype = dtrsyl.restype = int_t
        return dgees, dtrsyl, select_t, int_t
    return None


def schur(mat: np.ndarray, keep: float):
    """Real Schur form T = Z^T mat Z of a finite real square matrix, with the
    eigenvalues of modulus above `keep` sorted first: (T, Z, k), k of them.

    A failed or unsorted decomposition raises NumericalFailure.
    """
    # with a numpy float the callback would return numpy.bool, which ctypes refuses
    keep = float(keep)
    lapack = _lapacke()
    if lapack is None:
        la = linalg()
        try:
            return la.schur(mat, output="real", sort=lambda re, im: math.hypot(re, im) > keep)
        except (la.LinAlgError, ValueError) as exc:
            raise NumericalFailure(f"Schur decomposition failed: {exc}") from exc
    dgees, _, select_t, int_t = lapack
    n = mat.shape[0]
    T = np.array(mat, dtype=float, order="F")
    Z = np.empty((n, n), order="F")
    wr, wi = np.empty(n), np.empty(n)
    k = int_t()
    # compares floats only: an exception here could not reach the caller
    select = select_t(lambda re, im: math.hypot(re[0], im[0]) > keep)
    info = dgees(_COL_MAJOR, b"V", b"S", select, n, T.ctypes.data, max(n, 1), ctypes.byref(k),
                 wr.ctypes.data, wi.ctypes.data, Z.ctypes.data, max(n, 1))
    if info < 0:
        raise NumericalFailure(f"Schur decomposition failed: illegal argument {-info} of dgees")
    if info > 0:
        reason = _GEES_FAILURES.get(info - n, "Schur form not found. Possibly ill-conditioned.")
        raise NumericalFailure(f"Schur decomposition failed: {reason}")
    return T, Z, k.value


def trsyl(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve A X + X B = C for upper quasi-triangular A and B in Schur form."""
    lapack = _lapacke()
    if lapack is None:
        X, scale, info = linalg().lapack.dtrsyl(A, B, C)
    else:
        dtrsyl, m, n = lapack[1], *C.shape
        A, B = np.asfortranarray(A, dtype=float), np.asfortranarray(B, dtype=float)
        X = np.array(C, dtype=float, order="F")
        out = ctypes.c_double()
        info = dtrsyl(_COL_MAJOR, b"N", b"N", 1, m, n, A.ctypes.data, max(m, 1),
                      B.ctypes.data, max(n, 1), X.ctypes.data, max(m, 1), ctypes.byref(out))
        scale = out.value
    if info != 0:
        raise NumericalFailure(f"Sylvester solve failed (dtrsyl info {info})")
    # dtrsyl scales X down only to avoid overflow; almost always scale = 1
    return X if scale == 1.0 else X / scale


def _join_scope():
    """Set each pool the open scope has not set yet to one thread, saving its count."""
    for lib, get, put in _pools():
        if lib not in _scope:
            _scope[lib] = (put, get())
            put(1)


@contextlib.contextmanager
def single_threaded():
    """Set every OpenBLAS pool to one thread; restore the saved counts on exit.

    A pool loaded while the scope is open joins it through `linalg()`.  A scope
    opened inside an open one does nothing: the outermost saves and restores.
    """
    global _scope
    if _scope is not None:
        yield
        return
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
