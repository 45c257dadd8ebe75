"""The LAPACK eigensolvers of the OpenBLAS that numpy ships, called in place.

Every eigenproblem quenchlab solves is real symmetric: a sector block of a
chain, or the GOE partner's tridiagonal model. np.linalg solves the first
with dsyevd, but on a private copy and into a fresh output array, and it
does not expose the tridiagonal solvers. A numpy wheel links one ILP64
OpenBLAS, numpy.libs/libscipy_openblas64_*.so, whose LAPACK symbols carry
the prefix scipy_ and the suffix 64_ and take 64-bit integers. This module
opens that library (the one numpy has loaded, so dlopen hands back the same
copy), resolves the routines of ROUTINES, and calls them through ctypes on
arrays numpy owns, with the workspace sizes of the lwork = -1 query, as
numpy does.

A numpy built against another LAPACK (MKL, Accelerate, or 32-bit integers)
has no such file or symbol: the first solve raises LapackUnavailable, naming
the routines and the library searched. No np.linalg route stands in for it.
"""
from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from .core import _transpose
from .errors import ConvergenceFailure, LapackUnavailable

# routine: (arguments, character arguments). Fortran takes every argument by
# reference, info last; each character argument adds a hidden length, by
# value, after them.
ROUTINES = {
    "dsyevd": (11, 2),
    "dsytrd": (10, 1),
    "dstedc": (11, 1),
    "dsterf": (4, 0),
    "dormtr": (13, 3),
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


@functools.lru_cache(maxsize=None)
def _routine(name: str):
    path = library()
    symbol = f"scipy_{name}_64_"
    try:
        fn = getattr(ctypes.CDLL(str(path)), symbol)
    except AttributeError:
        raise LapackUnavailable(f"{name}: {symbol} not found in {path}") from None
    args, strings = ROUTINES[name]
    fn.argtypes = [ctypes.c_void_p] * args + [ctypes.c_size_t] * strings
    fn.restype = None
    return fn


def describe() -> str:
    """The library file and the symbols resolved in it."""
    return f"{library()} ({', '.join(_routine(name).__name__ for name in ROUTINES)})"


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


def eigh(at: np.ndarray, vectors: bool) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric A, solved by dsyevd in at, which holds A^T.

    at is C-contiguous float and holds A^T: its memory is A in column-major
    order, the layout np.linalg hands to LAPACK, which reads A's lower
    triangle (uplo = 'L'). The solve then equals np.linalg.eigh and eigvalsh
    to the bit, also where A is symmetric only to rounding. With vectors, at
    is overwritten by the eigenvectors as its columns, C order as np.linalg
    returns them (LAPACK leaves them column-major, and they are transposed
    in place); without, at is destroyed.
    """
    _check(at, 2)
    n = at.shape[0]
    w = np.empty(n)
    _with_workspace(
        "dsyevd",
        (b"V" if vectors else b"N", b"L", _ref(n), at.ctypes, _ref(max(n, 1)), w.ctypes),
        (float, np.int64),
    )
    if vectors:
        _transpose(at)
    return w


def eigh_values(at: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues eigh(at, vectors=True) returns, to the bit, and V^T y, with no V.

    at is laid out as for eigh, and is destroyed; y is a float or complex
    vector of A's dimension. dsyevd with eigenvectors reduces A = Q T Q^T
    (dsytrd), solves T = Z E Z^T by divide and conquer (dstedc) and
    back-transforms V = Q Z (dormtr on all n columns, 2 n^3 flops); its
    eigenvalues are dstedc's. Here dormtr applies Q^T to y alone, O(n^2), and
    V^T y = Z^T (Q^T y); a complex y goes through as two real columns. That
    is about two thirds of dsyevd's time at n = 1056. dsyevd without
    eigenvectors solves T by dsterf instead, whose eigenvalues differ from
    dstedc's in the last bits.
    """
    _check(at, 2)
    n = at.shape[0]
    if y.shape != (n,):
        raise ValueError(f"a vector of {y.shape} does not fit a matrix of dimension {n}")
    d, e, tau = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(n - 1, 1))
    lead = _ref(max(n, 1))
    _with_workspace("dsytrd", (b"L", _ref(n), at.ctypes, lead, d.ctypes, e.ctypes, tau.ctypes),
                    (float,))
    z = np.empty((n, n))  # Z column-major, so Z^T in C order
    _with_workspace("dstedc", (b"I", _ref(n), d.ctypes, e.ctypes, z.ctypes, lead),
                    (float, np.int64))
    # C rows are the Fortran columns of an n x k matrix with leading dimension n
    cols = np.array([y.real, y.imag] if np.iscomplexobj(y) else [y], dtype=float)
    _with_workspace(
        "dormtr",
        (b"L", b"L", b"T", _ref(n), _ref(len(cols)), at.ctypes, lead, tau.ctypes, cols.ctypes,
         lead),
        (float,),
    )
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
