"""The LAPACK eigensolvers of the OpenBLAS that numpy ships, called in place.

Every eigenproblem quenchlab solves is real symmetric: a sector block of a
chain, or the GOE partner's tridiagonal model. np.linalg solves the first
by dsyevd, on a private copy and into a fresh output array, and exposes no
tridiagonal solver. Here eigh takes dsyevd's own steps one by one, so a
caller that wants V^T y alone stops short of V, and from TEAR on short of
the tridiagonal's eigenvectors too (see _torn). A numpy wheel links one
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
import math
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
    "dlaed0": (12, 0),
    "dlaed4": (8, 0),
}
# eigh's V^T y tears T from this dimension on (see _torn); below it, dstedc
# solves the whole T into the block with an n^2 workspace of its own. The
# whole solve measured clearly faster up to n = 272, the two even at n = 496
# and the torn one even or faster from 528 on (2 BLAS threads); its halves
# and their workspace fit the block from n = 6 on.
TEAR = 512
# Rows of dlaed4's deltas that _secular reads per step
_ROWS = 32
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
    triangle (uplo = 'L'). dsytrd reduces A = Q T Q^T; for the eigenvalues
    alone dsterf solves T, as eigvalsh does. Otherwise:
    - with vectors, dstedc solves T = Z E Z^T by divide and conquer, and
      dormtr forms V = Q Z, copied into at as its columns in C order, as
      np.linalg returns them. dstedc and dormtr share dsyevd's workspace:
      with less, dormqr narrows its blocks and the bits of V move. These
      two requests take dsyevd's own steps, so they equal np.linalg.eigh and
      eigvalsh to the bit, also where A is symmetric only to rounding;
    - given y, a float or complex vector of A's dimension, dormtr first
      applies Q^T to y alone, with its own queried workspace; a complex y
      goes through as two real columns. Q's reflectors are then dead. From
      dimension TEAR on, _torn solves T in at's memory and reads V^T y =
      Z^T (Q^T y) off the roots of dstedc's last merge, with no Z: the
      solve holds O(n) beyond at, its eigenvalues are np.linalg's to the
      bit but where _torn says, and V^T y differs from np.linalg's V^T y
      only by the order of its products. A smaller T, where tearing
      measured slower, is solved whole by dstedc, which writes Z over at
      with one n^2 of workspace beyond it. A non-finite T is refused on
      either path.
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
    if vectors:
        size, iwork = 1 + 4 * n + n * n, np.empty(3 + 5 * n, np.int64)
        # Z (column-major, so Z^T in C order) and dstedc's workspace in one
        # buffer, as dsyevd lays them out: as two arrays, a 12-site relax
        # run with local Paulis peaked at 207 MB instead of 197 MB.
        buf = np.empty(n * n + size)
        z, work = buf[: n * n].reshape(n, n), buf[n * n:]
        _stedc(d, e, z, work, iwork)
        _call("dormtr", b"L", b"L", b"N", _ref(n), _ref(n), at.ctypes, lead, tau.ctypes,
              z.ctypes, lead, work.ctypes, _ref(work.size))
        at[...] = z.T
        return d, None
    if not (np.isfinite(d).all() and np.isfinite(e[: n - 1]).all()):
        # dstedc on the whole T returns NaN with info = 0
        raise ConvergenceFailure("LAPACK dsytrd returned a non-finite tridiagonal")
    # C rows are the Fortran columns of an n x k matrix with leading dimension n
    cols = np.array([y.real, y.imag] if np.iscomplexobj(y) else [y], dtype=float)
    _with_workspace("dormtr", (b"L", b"L", b"T", _ref(n), _ref(len(cols)), at.ctypes, lead,
                               tau.ctypes, cols.ctypes, lead), (float,))
    if n < TEAR:
        _stedc(d, e, at, np.empty(1 + 4 * n + n * n), np.empty(3 + 5 * n, np.int64))
        out = cols @ at.T
    else:
        d, out = _torn(d, e, cols, at.reshape(-1))
    return d, (out[0] + 1j * out[1] if len(out) == 2 else out[0])


def _stedc(d: np.ndarray, e: np.ndarray, z: np.ndarray, work: np.ndarray,
           iwork: np.ndarray) -> None:
    """dstedc('I') on the tridiagonal (d, e): eigenvalues into d, Z^T in C order into z."""
    _call("dstedc", b"I", _ref(d.size), d.ctypes, e.ctypes, z.ctypes, _ref(max(d.size, 1)),
          work.ctypes, _ref(work.size), iwork.ctypes, _ref(iwork.size))


def _torn(d: np.ndarray, e: np.ndarray, cols: np.ndarray,
          dead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the tridiagonal T = (d, e), and Z^T cols for T's eigenvectors Z
    (cols holds its columns as C rows), with no Z formed: every n^2 array is a view of dead.

    This is dstedc('I') up to its last merge, and that merge without its
    eigenvectors. T is scaled as dstedc scales it and torn at m = n // 2 as
    dlaed0 tears it: T = diag(T1, T2) + |rho| v v^T, rho = e[m-1], v =
    e_(m-1) + sign(rho) e_m. dlaed0 solves T1, then T2, into dead, as it
    solves them inside dstedc, and of each Zi only Zi^T cols_i and its row
    at the tear are kept. The merge D + 2|rho| z z^T, with z those rows
    joined and normalized, is then dlaed2's and dlaed3's with the projected
    rows in place of Q: a negligible component of z, or a close pair of D,
    deflates (the pair by a Givens rotation, which turns the rows too),
    dlaed4 finds each remaining root, and root j's eigenvector is the
    Gu-Eisenstat z_i / (D_i - lambda_j), normalized, from its deltas, which
    are written into dead. The eigenvalues are dstedc's to the bit, and the
    rows differ from Z^T cols only by the order of their products, except
    where dstedc first splits T at a negligible off-diagonal entry, or at
    n = 50 * 2^j + 1, where dlaed0 halves T1 once more on its way to 25-row
    leaves inside dstedc than on its own (no sector block has such an n).
    """
    n, m = d.size, d.size // 2
    if n < 2 or dead.size < 4 * (n - m) + 2 * (n - m) ** 2:
        raise ValueError(f"the halves of a tridiagonal of {n} do not fit {dead.size} doubles")
    norm = max(np.abs(d).max(), np.abs(e).max())
    if norm == 0:
        return d, cols  # dstedc's Z is the identity
    scale = 1.0 / norm  # dstedc's scaling, as dlascl applies it
    d *= scale
    e *= scale
    rho = e[m - 1]
    d[m - 1] -= abs(rho)
    d[m] -= abs(rho)
    iwork = np.empty(3 + 5 * (n - m), np.int64)
    rows, z = np.empty_like(cols), np.empty(n)
    for lo, hi, tear in ((0, m, -1), (m, n, 0)):
        k = hi - lo
        zt = dead[: k * k].reshape(k, k)
        zt.fill(0.0)
        work = dead[k * k : 4 * k + 2 * k * k]
        _call("dlaed0", _ref(2), _ref(k), _ref(k), d[lo:hi].ctypes, e[lo : hi - 1].ctypes,
              zt.ctypes, _ref(k), work.ctypes, _ref(k), work.ctypes, iwork.ctypes)
        rows[:, lo:hi] = cols[:, lo:hi] @ zt.T
        z[lo:hi] = zt[:, tear]
    # dlaed2's z and rho, to the bit
    if rho < 0:
        z[m:] *= -1.0
    z *= 1.0 / math.sqrt(2.0)
    rho = abs(2.0 * rho)
    order = np.argsort(d, kind="stable")
    d, z, rows = d[order], z[order], rows[:, order]
    # dlaed2's deflation tolerance, with LAPACK's epsilon 2^-53
    tol = 8.0 * 2.0**-53 * max(np.abs(d).max(), np.abs(z).max())
    keep = rho * np.abs(z) > tol
    # the scan below in one pass, which is all of it where no pair is close
    kept = np.flatnonzero(keep)
    zp, zn = z[kept[:-1]], z[kept[1:]]
    tau = _lapy2(zn, zp)
    if np.any(np.abs((d[kept[1:]] - d[kept[:-1]]) * (zn / tau) * (-zp / tau)) <= tol):
        _rotate_close_pairs(d, z, rows, keep, tol)
    lam, projected = _secular(d[keep], z[keep], rho, rows[:, keep], dead)
    values = np.concatenate([lam, d[~keep]])
    order = np.argsort(values, kind="stable")
    return values[order] * norm, np.concatenate([projected, rows[:, ~keep]], axis=1)[:, order]


def _rotate_close_pairs(d: np.ndarray, z: np.ndarray, rows: np.ndarray, keep: np.ndarray,
                        tol: float) -> None:
    """dlaed2's scan: each kept pair closer than tol is rotated so that its first member deflates.

    The rotation that zeroes the first member's z is applied to both
    members' projected rows, as dlaed2 applies it to Q's columns.
    """
    kept = np.flatnonzero(keep)
    pj = kept[0]
    for nj in kept[1:]:
        tau = _lapy2(z[nj], z[pj])
        c, s = z[nj] / tau, -z[pj] / tau
        if abs((d[nj] - d[pj]) * c * s) <= tol:
            z[nj], z[pj], keep[pj] = tau, 0.0, False
            rows[:, pj], rows[:, nj] = c * rows[:, pj] + s * rows[:, nj], c * rows[:, nj] - s * rows[:, pj]
            d[pj], d[nj] = d[pj] * c**2 + d[nj] * s**2, d[pj] * s**2 + d[nj] * c**2
        pj = nj


def _lapy2(x, y):
    """dlapy2's sqrt(x^2 + y^2), elementwise, to the bit for finite x and y."""
    big, small = np.maximum(np.abs(x), np.abs(y)), np.minimum(np.abs(x), np.abs(y))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(small == 0, big, big * np.sqrt(1.0 + (small / big) ** 2))


def _secular(dl: np.ndarray, z: np.ndarray, rho: float, rows: np.ndarray,
             dead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots of 1 + rho sum z_i^2 / (dl_i - x) = 0, and U^T applied to rows, as dlaed3 forms U.

    dl ascends strictly. dlaed4 writes root j's deltas dl - lambda_j as row
    j of a k x k view of dead (for k = 2, the eigenvector itself; for k = 1,
    1). From k = 3 on, the z that makes the computed roots exact (Gu and
    Eisenstat) replaces z, and row j becomes z / delta_j.
    """
    k = dl.size
    delta, lam = dead[: k * k].reshape(k, k), np.empty(k)
    # one argument tuple, whose pointers move from root to root: a Python
    # int per call would cost ctypes a conversion
    root, at, out, info = ctypes.c_int64(0), ctypes.c_void_p(), ctypes.c_void_p(), ctypes.c_int64(0)
    args = (_ref(k), ctypes.byref(root), ctypes.c_void_p(dl.ctypes.data), ctypes.c_void_p(z.ctypes.data),
            at, ctypes.byref(ctypes.c_double(rho)), out, ctypes.byref(info))
    solve, deltas, roots = _routine("dlaed4"), delta.ctypes.data, lam.ctypes.data
    for j in range(k):
        root.value, at.value, out.value = j + 1, deltas + 8 * k * j, roots + 8 * j
        solve(*args)
        if info.value != 0:
            raise ConvergenceFailure(f"LAPACK dlaed4 returned info = {info.value}")
    if k > 2:
        w = np.ones(k)
        for lo in range(0, k, _ROWS):
            j = np.arange(lo, min(lo + _ROWS, k))
            ratio = np.subtract(dl, dl[j, None])
            ratio[j - lo, j] = 1.0  # so that delta_jj itself is the factor
            np.divide(delta[lo : j[-1] + 1], ratio, out=ratio)
            w *= ratio.prod(axis=0)
        z = np.copysign(np.sqrt(-w), z)
    projected = np.empty((len(rows), k))
    for lo in range(0, k, _ROWS):
        u = z / delta[lo : lo + _ROWS] if k > 2 else delta[lo : lo + _ROWS]
        projected[:, lo : lo + _ROWS] = (rows @ u.T) / np.sqrt(np.einsum("ij,ij->i", u, u))
    return lam, projected


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
