"""The three observable classes of a quench and relaxation-time estimation.

Typical and slow observables live in the quench-aligned eigenbasis, where
each overlap <n|psi0> is real and nonnegative, and read the spectral data
alone. Typical observables are entrywise positive there and dephase within
a few Boltzmann times. The slow observable couples adjacent occupied
levels; its expectation is a sum of neighboring-gap cosines and survives
until the Heisenberg time. Local observables are single-site Paulis, read
in the site basis off the evolved states and the eigenvectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _lapack
from .core import PureState, _freeze, _n_sites
from .dynamics import (
    EVOLVE_BLOCK,
    TimeGrid,
    TimeSeries,
    _phase_blocks,
    _state_blocks,
)
from .errors import ConvergenceFailure, SiteOutOfBounds
from .hamiltonian import _sz_signs
from .params import DEFAULT_THRESHOLD_FRACTION, DEFAULT_WEIGHT_FLOOR
from .spectral import EigenSystem, HouseholderVectors, SectorVectors, SpectralData

_DRAW_TILE = 256  # rows and columns of the tiles an observable is kept in
_DRAW_STRIP = 16  # rows of a tile that one worker draws at a time
_SQRT_HALF = math.sqrt(0.5)
_PERRON_RTOL = 1e-14
_PERRON_MAX_ITER = 10_000


@dataclass(frozen=True, init=False)
class ObservableMatrix:
    """Hermitian observable in an eigenbasis, kept as its upper block rows.

    rows[k] is O[r : r + _DRAW_TILE, r:] with r = _DRAW_TILE k: the diagonal
    tile and the tiles right of it. Each tile below the diagonal is the
    conjugate transpose of one above it, and is not kept. Only the library
    builds one (typical_observable and _weighted_block, through _of_rows),
    so it takes no constructor arguments.
    """

    rows: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.rows[0].shape[1]

    def diagonal(self) -> np.ndarray:
        """The eigenstate expectations O_nn, read off the diagonal tiles."""
        return np.concatenate([np.diagonal(row) for row in self.rows])


def _of_rows(rows: list[np.ndarray]) -> ObservableMatrix:
    """ObservableMatrix of upper block rows, frozen; the caller builds them
    finite and Hermitian."""
    obs = object.__new__(ObservableMatrix)
    object.__setattr__(obs, "rows", tuple(_freeze(row) for row in rows))
    return obs


@dataclass(frozen=True)
class RelaxationReport:
    """First sustained entry of a series into its equilibrium band.

    relaxation_time is None when the series never settles into the band
    within the grid (not relaxed). A zero initial deviation reports time 0
    with the flag set.
    """

    relaxation_time: float | None
    equilibrium_value: float
    initial_deviation: float
    threshold_fraction: float
    zero_initial_deviation: bool = False

    @property
    def relaxed(self) -> bool:
        return self.relaxation_time is not None


def slow_series(
    spec: SpectralData, grid: TimeGrid, weight_floor: float = DEFAULT_WEIGHT_FLOOR
) -> TimeSeries:
    """Series of O[a, b] = O[b, a] = 1 over adjacent occupied levels a < b.

    With the aligned overlaps c it is 2 sum c_a c_b cos((eps_b - eps_a) t),
    and its diagonal ensemble is 0. Levels below the weight floor carry no
    dynamical weight and are skipped.
    """
    occ = np.nonzero(spec.occupied_mask(weight_floor))[0]
    c = spec.amplitudes()
    pairs = 2.0 * c[occ[:-1]] * c[occ[1:]]
    values = np.empty(len(grid))
    # each pair is one phase column of its gap; the real parts are the cosines
    for block, phi in _phase_blocks(np.diff(spec.eigenvalues[occ]), pairs, grid):
        values[block] = phi.sum(axis=0).real
    return TimeSeries(grid, values)


def _typical_draw(dim: int, seed: int) -> list[np.ndarray]:
    """The upper block rows of |S|, for the seeded symmetric Gaussian S of the typical law.

    Tile pair k of the pairs (a, b) with a <= b is a standard normal tile t
    from child k of SeedSequence(seed), written into block row a: (t + t^T) / 2
    on the diagonal and t sqrt(1/2) right of it, the law of (G + G^T) / 2.
    t is drawn _DRAW_STRIP rows at a time, in the order of a whole-tile draw,
    and scaled in a worker's scratch strip; a diagonal tile is then made
    symmetric one strip of rows and the matching columns at a time, each
    strip reading no entry an earlier one wrote. Halving is exact, so that
    is (t + t^T) / 2 to the bit. Arithmetic runs on contiguous scratch only,
    since numpy buffers a ufunc on a strided view. The pairs are shared among
    the _lapack.share workers, whose number never moves a bit; the rows and
    the scratch are allocated by the calling thread.
    """
    rows = [np.empty((min(_DRAW_TILE, dim - r), dim - r)) for r in range(0, dim, _DRAW_TILE)]
    pairs = [(a, b) for a in range(len(rows)) for b in range(a, len(rows))]
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(pairs))]
    scratch = [np.empty((2, _DRAW_STRIP * _DRAW_TILE)) for _ in range(_lapack.workers(len(pairs)))]

    def fill(w: int, k: int) -> None:
        a, b = pairs[k]
        tile = rows[a][:, (b - a) * _DRAW_TILE :][:, :_DRAW_TILE]
        for start in range(0, len(tile), _DRAW_STRIP):
            part = tile[start : start + _DRAW_STRIP]
            t = scratch[w][0, : part.size].reshape(part.shape)
            rngs[k].standard_normal(out=t)
            t *= 0.5 if a == b else _SQRT_HALF
            part[...] = t if a == b else np.abs(t, out=t)
        for start in range(0, len(tile) if a == b else 0, _DRAW_STRIP):
            cols = slice(start, start + _DRAW_STRIP)
            strip = tile[cols, start:]
            mean, lower = (buf[: strip.size].reshape(strip.shape) for buf in scratch[w])
            mean[...], lower[...] = strip, tile[start:, cols].T
            mean += lower
            strip[...] = np.abs(mean, out=mean)
            tile[start:, cols] = mean.T

    _lapack.share(len(pairs), fill)
    return rows


def typical_observable(dim: int, seed: int) -> ObservableMatrix:
    """Random entrywise-positive symmetric observable with unit operator norm.

    The entries are the magnitudes |S| of a seeded Gaussian-orthogonal draw
    S (see _typical_draw). In the aligned eigenbasis every term of the t = 0
    double sum then starts positive, giving the observable a macroscopic
    initial deviation that dephases on the Boltzmann time. A bare zero-mean
    draw would start at a value statistically identical to its late-time
    fluctuations, with no deviation to relax. The norm of the positive |S|
    is its Perron root. Building it holds the upper block rows, about half
    a dense matrix.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    rows = _typical_draw(dim, seed)
    root = _perron_root(rows)
    for row in rows:
        row /= root
    return _of_rows(rows)


def _weighted_block(obs: ObservableMatrix, levels: np.ndarray) -> ObservableMatrix:
    """obs at the rows and columns of the increasing levels, as block rows.

    New block row j reads each entry (u, v), u <= v, of obs off the old
    block row of u, and its diagonal tile's lower triangle is the conjugate
    transpose of its upper one. Since the levels increase, it reads no old
    row before the one of its first level, and each old row is released
    once no later new row reads it: the rows are compacted one at a time,
    with no dense matrix. obs gives up its rows and must not be read again.
    """
    old, dtype = list(obs.rows), obs.rows[0].dtype
    object.__setattr__(obs, "rows", ())
    rows = []
    for start in range(0, levels.size, _DRAW_TILE):
        p, q = levels[start : start + _DRAW_TILE], levels[start:]
        row = np.empty((p.size, q.size), dtype=dtype)
        for a in range(p[0] // _DRAW_TILE, p[-1] // _DRAW_TILE + 1):
            r = a * _DRAW_TILE
            lo, hi = np.searchsorted(p, [r, r + _DRAW_TILE])
            for first in range(lo, hi, EVOLVE_BLOCK):
                last = min(first + EVOLVE_BLOCK, hi)
                row[first:last, first:] = old[a][np.ix_(p[first:last] - r, q[first:] - r)]
        tile = row[:, : p.size]
        lower = np.tril_indices(p.size, -1)
        tile[lower] = tile.T[lower].conj()
        rows.append(row)
        # every later new row starts at or past the old row of levels[start + _DRAW_TILE]
        done = len(old) if start + p.size >= levels.size else int(levels[start + p.size]) // _DRAW_TILE
        old[:done] = [None] * done
    return _of_rows(rows)


def _perron_root(rows: list[np.ndarray]) -> float:
    """Largest eigenvalue of an entrywise-positive symmetric matrix, kept as
    its upper block rows, by power iteration.

    For any positive x the Perron root lies between the smallest and the
    largest of (a x)_i / x_i (Collatz-Wielandt). Iterating from the all-ones
    vector narrows that bracket; its upper end is returned once it is
    _PERRON_RTOL wide relative to it. Each block row gives a x its own rows
    and, through its transpose, the rows below it.
    """
    dim = rows[0].shape[1]
    x = np.ones(dim)
    for _ in range(_PERRON_MAX_ITER):
        y = np.zeros(dim)
        for row in rows:
            h, r = row.shape[0], dim - row.shape[1]
            y[r : r + h] += row @ x[r:]
            y[r + h :] += x[r : r + h] @ row[:, h:]
        ratio = y / x
        low, high = float(ratio.min()), float(ratio.max())
        # written so that a NaN or infinite ratio never passes
        if low >= (1.0 - _PERRON_RTOL) * high:
            return high
        x = y / np.max(y)
    raise ConvergenceFailure(
        f"Perron root bracket wider than {_PERRON_RTOL} relative "
        f"after {_PERRON_MAX_ITER} iterations"
    )


def _pauli_rows(x: np.ndarray, paulis: Sequence[tuple[int, str]], signs: np.ndarray) -> np.ndarray:
    """pauli_expectations of one block of columns x."""
    out = np.empty((len(paulis), x.shape[1]))
    left = x.conj() if np.iscomplexobj(x) else x
    idx = np.arange(x.shape[0])
    for k, (site, axis) in enumerate(paulis):
        if axis == "z":
            out[k] = signs[:, site] @ np.abs(x) ** 2
            continue
        pair = x[idx ^ (1 << site)]
        pair *= left
        out[k] = pair.real.sum(axis=0) if axis == "x" else signs[:, site] @ pair.imag
    return out


def pauli_expectations(
    columns: np.ndarray | SectorVectors | HouseholderVectors,
    paulis: Sequence[tuple[int, str]],
    levels: np.ndarray | None = None,
) -> np.ndarray:
    """<x|sigma|x> of each single-site Pauli (site, axis) for each site-basis column x.

    columns is an array of site-basis columns, or the eigenvectors of an
    EigenSystem, whose columns of V it reads through eigenvectors.columns.
    Given levels, only those columns are read, in that order. Row k reads
    paulis[k]. With s_i the sigma-z sign of basis state i and m = 2^site
    (site 0 is the low bit): <z> = sum s_i |x_i|^2,
    <x> = Re sum x_i^* x_{i^m} and <y> = sum s_i Im(x_i^* x_{i^m}). Columns
    are read EVOLVE_BLOCK at a time, so the temporaries stay the size of
    one block of evolved states.
    """
    dim, count = columns.shape
    n = _n_sites(dim)
    for site, axis in paulis:
        if not 0 <= site < n:
            raise SiteOutOfBounds(f"site {site} outside chain of {n}")
        if axis not in ("x", "y", "z"):
            raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    signs = _sz_signs(n)
    read = (lambda block: columns[:, block]) if isinstance(columns, np.ndarray) else columns.columns
    picked = np.arange(count) if levels is None else np.asarray(levels)
    out = np.empty((len(paulis), picked.size))
    for start in range(0, picked.size, EVOLVE_BLOCK):
        block = slice(start, min(start + EVOLVE_BLOCK, picked.size))
        out[:, block] = _pauli_rows(read(block if levels is None else picked[block]), paulis, signs)
    return out


def local_series(
    eig: EigenSystem, psi0: PureState, paulis: Sequence[tuple[int, str]], grid: TimeGrid
) -> list[TimeSeries]:
    """Series of each single-site Pauli (site, axis), read off one pass of the states."""
    values = np.empty((len(paulis), len(grid)))
    for block, states in _state_blocks(eig, psi0, grid):
        values[:, block] = pauli_expectations(states, paulis)
    return [TimeSeries(grid, row) for row in values]


def relaxation_time(
    series: TimeSeries,
    equilibrium: float,
    threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION,
) -> RelaxationReport:
    """Earliest grid time after which the series stays inside the band.

    The band is threshold_fraction times the initial deviation around the
    equilibrium value; the entry must be sustained through the end of the
    grid, since oscillatory series cross the band many times before settling.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError("threshold_fraction must be in (0, 1)")
    v = series.values
    dev0 = abs(float(v[0]) - equilibrium)
    if dev0 < 1e-12:
        return RelaxationReport(0.0, equilibrium, dev0, threshold_fraction, True)
    inside = np.abs(v - equilibrium) <= threshold_fraction * dev0
    outside = np.nonzero(~inside)[0]
    k = 0 if outside.size == 0 else int(outside[-1]) + 1
    if k >= len(v):
        return RelaxationReport(None, equilibrium, dev0, threshold_fraction)
    return RelaxationReport(
        float(series.times[k]), equilibrium, dev0, threshold_fraction
    )
