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
from .core import PureState, _freeze, _hermitian, _n_sites, _tile_pairs
from .dynamics import (
    EVOLVE_BLOCK,
    TimeGrid,
    TimeSeries,
    _phase_blocks,
    _state_blocks,
)
from .errors import ConvergenceFailure, SiteOutOfBounds
from .hamiltonian import _sz_signs
from .spectral import (
    DEFAULT_WEIGHT_FLOOR,
    EigenSystem,
    HouseholderVectors,
    SectorVectors,
    SpectralData,
)

_DRAW_TILE = 256  # rows and columns of the tiles a typical draw fills
_SQRT_HALF = math.sqrt(0.5)
_PERRON_RTOL = 1e-14
_PERRON_MAX_ITER = 10_000


@dataclass(frozen=True)
class ObservableMatrix:
    """Hermitian observable in an eigenbasis."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _hermitian(self.matrix, "observable"))


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


def _typical_draw(dim: int, seed: int) -> np.ndarray:
    """|S| for the seeded symmetric Gaussian S of the typical law, drawn by tiles.

    Tile pair k of the pairs (a, b) with a <= b is a standard normal tile t
    from child k of SeedSequence(seed): (t + t^T) / 2 on the diagonal, t
    times sqrt(1/2) above it, mirrored below. That is the law of
    (G + G^T) / 2, and t_ij + t_ji rounds as t_ji + t_ij, so S is symmetric
    to the bit. The pairs are shared among the _lapack.share workers (BLAS
    is idle meanwhile), whose number never moves a bit. Their scratch tiles
    are allocated by the calling thread, so no worker allocates.
    """
    m = np.empty((dim, dim))
    pairs = _tile_pairs(dim, _DRAW_TILE)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(pairs))]
    scratch = [np.empty(_DRAW_TILE**2) for _ in range(_lapack.workers(len(pairs)))]

    def fill(w: int, k: int) -> None:
        rows, cols = pairs[k]
        upper = m[rows, cols]
        t = scratch[w][: upper.size].reshape(upper.shape)
        rngs[k].standard_normal(out=t)
        if rows == cols:
            np.add(t, t.T, out=upper)
            upper *= 0.5
            np.abs(upper, out=upper)
        else:
            np.multiply(t, _SQRT_HALF, out=upper)
            np.abs(upper, out=upper)
            m[cols, rows] = upper.T

    _lapack.share(len(pairs), fill)
    return m


def typical_observable(dim: int, seed: int) -> ObservableMatrix:
    """Random entrywise-positive symmetric observable with unit operator norm.

    The entries are the magnitudes |S| of a seeded Gaussian-orthogonal draw
    S (see _typical_draw). In the aligned eigenbasis every term of the t = 0
    double sum then starts positive, giving the observable a macroscopic
    initial deviation that dephases on the Boltzmann time. A bare zero-mean
    draw would start at a value statistically identical to its late-time
    fluctuations, with no deviation to relax. The norm of the positive |S|
    is its Perron root. Building it holds one dense matrix and a scratch
    tile per worker, and skips the Hermitian check: it is symmetric by
    construction.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    m = _typical_draw(dim, seed)
    m /= _perron_root(m)
    return _symmetric(m)


def _symmetric(m: np.ndarray) -> ObservableMatrix:
    """ObservableMatrix(m) for a finite m that is real symmetric by
    construction, frozen without the Hermitian check."""
    obs = object.__new__(ObservableMatrix)
    object.__setattr__(obs, "matrix", _freeze(m))
    return obs


def _weighted_block(obs: ObservableMatrix, levels: np.ndarray) -> ObservableMatrix:
    """obs at the rows and columns of the increasing levels, compacted over
    the head of obs's own buffer, which a typical_observable draw owns.

    Block row r comes from row levels[r] >= r, so no block row is written
    over a row still to be read, and no second dense matrix is made. obs is
    overwritten and must not be read again.
    """
    m = obs.matrix
    m.flags.writeable = True
    k = levels.size
    block = m.reshape(-1)[: k * k].reshape(k, k)
    for start in range(0, k, EVOLVE_BLOCK):
        rows = levels[start : start + EVOLVE_BLOCK]
        block[start : start + rows.size] = m[np.ix_(rows, levels)]
    return _symmetric(block)


def _perron_root(a: np.ndarray) -> float:
    """Largest eigenvalue of an entrywise-positive matrix, by power iteration.

    For any positive x the Perron root lies between the smallest and the
    largest of (a x)_i / x_i (Collatz-Wielandt). Iterating from the all-ones
    vector narrows that bracket; its upper end is returned once it is
    _PERRON_RTOL wide relative to it.
    """
    x = np.ones(a.shape[0])
    for _ in range(_PERRON_MAX_ITER):
        y = a @ x
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
    threshold_fraction: float = 1.0 / math.e,
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
