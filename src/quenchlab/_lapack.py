"""The LAPACK eigensolvers of the OpenBLAS that numpy ships, called in place.

Every eigenproblem quenchlab solves is real symmetric: a sector block of a
chain, or the GOE partner's tridiagonal model. np.linalg solves the first
by dsyevd, on a private copy and into a fresh output array, and exposes no
tridiagonal solver. Here eigh takes dsyevd's own steps one by one, so a
caller that wants V^T y alone stops short of V. A numpy wheel links one
ILP64 OpenBLAS, numpy.libs/libscipy_openblas64_*.so, whose LAPACK symbols
carry the prefix scipy_ and the suffix 64_ and take 64-bit integers. This
module opens that library (the one numpy has loaded, so dlopen hands back
the same copy), resolves the routines of ROUTINES, and calls them through
ctypes on arrays numpy owns.

A numpy built against another LAPACK (MKL, Accelerate, or 32-bit integers)
has no such file or symbol: the first solve raises LapackUnavailable, naming
the routines and the library searched. No np.linalg route stands in for it.
"""
from __future__ import annotations

import ctypes
import functools
import threading
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure, LapackUnavailable

# routine: (arguments, character arguments). Fortran takes every argument by
# reference, info last; each character argument adds a hidden length, by
# value, after them.
ROUTINES = {
    "dsytrd": (10, 1),
    "dstedc": (11, 1),
    "dormtr": (13, 3),
    "dsterf": (4, 0),
}
_PATTERN = "libscipy_openblas64_*.so"


def _ref(value: int) -> object:
    """A 64-bit LAPACK integer argument, passed by reference."""
    return ctypes.byref(ctypes.c_int64(value))


@functools.lru_cache(maxsize=None)
def library() -> Path:
    """The ILP64 OpenBLAS file next to the numpy package."""
    where = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(where.glob(_PATTERN))
    if not found:
        raise LapackUnavailable(
            f"{', '.join(ROUTINES)}: no {_PATTERN} in {where}; quenchlab calls LAPACK "
            "through the ILP64 OpenBLAS of a numpy wheel"
        )
    return found[0]


def _symbol(name: str, symbol: str):
    """symbol in the library; LapackUnavailable, naming what needs it, where it is missing."""
    path = library()
    try:
        return getattr(ctypes.CDLL(str(path)), symbol)
    except AttributeError:
        raise LapackUnavailable(f"{name}: {symbol} not found in {path}") from None


@functools.lru_cache(maxsize=None)
def _routine(name: str):
    fn = _symbol(name, f"scipy_{name}_64_")
    args, strings = ROUTINES[name]
    fn.argtypes = [ctypes.c_void_p] * args + [ctypes.c_size_t] * strings
    fn.restype = None
    return fn


def describe() -> str:
    """The library file and the symbols resolved in it."""
    return f"{library()} ({', '.join(_routine(name).__name__ for name in ROUTINES)})"


def threads() -> int:
    """The number of threads the library's BLAS and LAPACK calls run on."""
    fn = _symbol("blas threads", "scipy_openblas_get_num_threads64_")
    fn.argtypes, fn.restype = [], ctypes.c_int
    return fn()


def workers(tasks: int) -> int:
    """The threads that share runs tasks on: threads(), at least 1 and at most tasks."""
    return max(1, min(threads(), tasks))


def share(tasks: int, task: Callable[[int, int], None]) -> None:
    """task(w, k) for k in range(tasks), round-robin on worker w of workers(tasks) threads.

    The seeded draws fill their buffers here, between BLAS calls. The calling
    thread is worker 0, and allocates what the tasks fill, so that each task
    only starts a fill that releases the GIL. Whatever a worker raised is
    raised again once all have joined. The other workers get cores because
    BLAS's idle threads park within 2**20 cycles of their last job (the
    OPENBLAS_THREAD_TIMEOUT that importing quenchlab sets); at OpenBLAS's
    default 2**28, as where numpy was imported first, they spin for about
    0.1 s after every BLAS call and a second worker gains nothing.
    """
    count, errors = workers(tasks), []

    def run(w: int) -> None:
        try:
            for k in range(w, tasks, count):
                task(w, k)
        except BaseException as exc:  # raised again by the calling thread
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(w,)) for w in range(1, count)]
    for thread in pool:
        thread.start()
    run(0)
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


def _call(name: str, *args) -> None:
    """routine(*args, info) with its hidden lengths; a nonzero info raises."""
    info = ctypes.c_int64(0)
    _routine(name)(*args, ctypes.byref(info), *[1] * ROUTINES[name][1])
    if info.value != 0:
        raise ConvergenceFailure(f"LAPACK {name} returned info = {info.value}")


def _with_workspace(name: str, head: tuple, kinds: tuple) -> None:
    """routine(*head, then a buffer and its size per kind), sized by its lwork = -1 query."""

    def call(work: list[np.ndarray], query: bool) -> None:
        sized = [x for buf in work for x in (buf.ctypes, _ref(-1 if query else buf.size))]
        _call(name, *head, *sized)

    query = [np.empty(1, kind) for kind in kinds]
    call(query, query=True)
    sizes = [int(buf[0].real) for buf in query]
    # Held while the workspace was allocated, the query buffers left the
    # second sector block's workspace resident in glibc's heap after its
    # solve in some runs: a 10-site relax run peaked at 59.4 MB instead of
    # 55.6 MB in 11 of 64 runs that differed only in path lengths, and in
    # none of 64 with the buffers released first.
    del query
    call([np.empty(size, kind) for size, kind in zip(sizes, kinds)], query=False)


def _check(a: np.ndarray, ndim: int) -> None:
    """Refuse an array that LAPACK would read or write out of its bounds."""
    if not (a.ndim == ndim and (ndim == 1 or a.shape[0] == a.shape[1]) and a.dtype == float
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(
            f"LAPACK takes a writable C-contiguous {'square ' * (ndim == 2)}"
            f"{ndim}-d array of float64, got {a.dtype} {a.shape}"
        )


def eigh(
    at: np.ndarray, vectors: bool = False, y: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues of a real symmetric A solved in at, and V^T y or None.

    at is C-contiguous float and holds A^T: its memory is A in column-major
    order, the layout np.linalg hands to LAPACK, which reads A's lower
    triangle (uplo = 'L'). The solve takes dsyevd's own steps, so it equals
    np.linalg.eigh and eigvalsh to the bit, also where A is symmetric only to
    rounding. dsytrd reduces A = Q T Q^T; for the eigenvalues alone dsterf
    solves T. Otherwise dstedc solves T = Z E Z^T by divide and conquer, and
    - with vectors, dormtr forms V = Q Z, copied into at as its columns in C
      order, as np.linalg returns them. dstedc and dormtr share dsyevd's
      workspace: with less, dormqr narrows its blocks and the bits of V move;
    - given y, a float or complex vector of A's dimension, dormtr first
      applies Q^T to y alone, with its own queried workspace; a complex y
      goes through as two real columns. Q's reflectors are then dead, and
      dstedc writes Z over them into at, which has Z's column-major n x n
      layout, so V^T y = Z^T (Q^T y) costs one n^2 of workspace beyond at.
    at is destroyed unless it holds V. dsyevd's prescaling of a matrix whose
    largest entry lies outside about [1e-146, 1e146] is left out.
    """
    _check(at, 2)
    n = at.shape[0]
    if vectors and y is not None:
        raise ValueError("eigh forms V or V^T y, not both")
    if y is not None and y.shape != (n,):
        raise ValueError(f"a vector of {y.shape} does not fit a matrix of dimension {n}")
    d, e, tau = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(n - 1, 1))
    lead = _ref(max(n, 1))
    _with_workspace("dsytrd", (b"L", _ref(n), at.ctypes, lead, d.ctypes, e.ctypes, tau.ctypes),
                    (float,))
    if not vectors and y is None:
        return sterf(d, e), None
    size, iwork = 1 + 4 * n + n * n, np.empty(3 + 5 * n, np.int64)
    if vectors:
        # Z (column-major, so Z^T in C order) and dstedc's workspace in one
        # buffer, as dsyevd lays them out: as two arrays, a 12-site relax
        # run with local Paulis peaked at 207 MB instead of 197 MB.
        buf = np.empty(n * n + size)
        z, work = buf[: n * n].reshape(n, n), buf[n * n:]
    else:
        # C rows are the Fortran columns of an n x k matrix with leading dimension n
        cols = np.array([y.real, y.imag] if np.iscomplexobj(y) else [y], dtype=float)
        _with_workspace("dormtr", (b"L", b"L", b"T", _ref(n), _ref(len(cols)), at.ctypes, lead,
                                   tau.ctypes, cols.ctypes, lead), (float,))
        z, work = at, np.empty(size)
    _call("dstedc", b"I", _ref(n), d.ctypes, e.ctypes, z.ctypes, lead,
          work.ctypes, _ref(work.size), iwork.ctypes, _ref(iwork.size))
    if vectors:
        _call("dormtr", b"L", b"L", b"N", _ref(n), _ref(n), at.ctypes, lead, tau.ctypes,
              z.ctypes, lead, work.ctypes, _ref(work.size))
        at[...] = z.T
        return d, None
    out = cols @ z.T
    return d, (out[0] + 1j * out[1] if len(out) == 2 else out[0])


def sterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal (d, e), written into d.

    d holds the diagonal and e the off-diagonal (length len(d) - 1), both
    contiguous floats; e is destroyed.
    """
    for a in (d, e):
        _check(a, 1)
    if e.size < d.size - 1:
        raise ValueError(f"an off-diagonal of {e.size} does not fit a diagonal of {d.size}")
    _call("dsterf", _ref(d.size), d.ctypes, e.ctypes)
    return d
