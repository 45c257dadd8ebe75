"""Time evolution and expectation-value series.

Eigenbasis readers take the spectral data alone. In the quench-aligned
eigenbasis every overlap c_n = <n|psi0> is sqrt(weights[n]), and for an
observable O expressed in that eigenbasis

    <O(t)> = sum_{n,m} c_n O_{nm} c_m e^{i(eps_n - eps_m) t}

evaluated here as phi(t)^dag O phi(t) with phi_n(t) = c_n e^{-i eps_n t},
which is the same double sum organized as one product of O with the real
and imaginary parts of phi over each block of EVOLVE_BLOCK grid times.
Site-basis readers take the eigensystem and psi0, and read blocks of the
states psi(t) = V (c * e^{-i E t}) with c = V^dag psi0.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import PureState, _freeze
from .errors import DimensionMismatch
from .spectral import EigenSystem, SpectralData, Timescales, _overlaps

if TYPE_CHECKING:  # avoids a runtime cycle with the observables module
    from .observables import ObservableMatrix

_IMAG_TOL = 1e-10

# Levels the gap check of diagonal_ensemble reads: those above this weight
# (the weights sum to 1). A level that a symmetry leaves empty picks up a
# rounding weight, below 1e-25 on the 8-site Neel ring.
GAP_WEIGHT_FLOOR = 1e-20

# Grid times per block of the evolution kernel; a block of states holds
# dim * EVOLVE_BLOCK complex amplitudes (16 MB at 14 sites).
EVOLVE_BLOCK = 64

RELAX_GRID_POINTS = 400
RELAX_GRID_SPAN = 20.0  # in units of the Boltzmann time
SLOW_GRID_LOG_POINTS = 150
SLOW_GRID_SPAN = 25.0  # in units of the Heisenberg time


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing, nonnegative sample times."""

    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.ascontiguousarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("times must be a nonempty 1d sequence")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        if t[0] < 0:
            raise ValueError("times must start at or after 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", _freeze(t))

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class TimeSeries:
    """Real expectation values sampled on a grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.shape != (len(self.grid),):
            raise DimensionMismatch("values length must match the grid")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def times(self) -> np.ndarray:
        return self.grid.times


def linear_grid(t_max: float, n_points: int) -> TimeGrid:
    return TimeGrid(np.linspace(0.0, t_max, n_points))


def default_relax_grid(ts: Timescales) -> TimeGrid:
    """Linear grid resolving dephasing: 400 points over 20 Boltzmann times."""
    return linear_grid(RELAX_GRID_SPAN * ts.boltzmann_time, RELAX_GRID_POINTS)


def default_slow_grid(ts: Timescales) -> TimeGrid:
    """Composite grid for slowly relaxing observables.

    The linear section resolves the initial dephasing window; a logarithmic
    tail extends to 25 Heisenberg times, far enough past 1/delta_eps that a
    sustained entry into the equilibrium band is observable at every chain
    size rather than cut off mid-decay.
    """
    lin = np.linspace(0.0, RELAX_GRID_SPAN * ts.boltzmann_time, RELAX_GRID_POINTS)
    end = SLOW_GRID_SPAN * ts.heisenberg_time
    if end > lin[-1]:
        # np.unique by hand, which imports numpy.ma (about 9 ms): sorted, and
        # each time kept once
        times = np.sort(np.concatenate([lin, np.geomspace(lin[-1], end, SLOW_GRID_LOG_POINTS)]))
        times = times[np.diff(times, prepend=-1.0) > 0]
    else:
        times = lin
    return TimeGrid(times)


def _phase_blocks(energies: np.ndarray, c: np.ndarray, grid: TimeGrid):
    """Yield (block, phi) with phi[:, j] = c e^{-i eps t_j} for each time of a block.

    The real cosines and sines are written straight into phi's parts, the
    bits of np.exp(-1j eps t), and c multiplies from the left, as c * phases.
    """
    c = c[:, None]
    for start in range(0, len(grid), EVOLVE_BLOCK):
        block = slice(start, start + EVOLVE_BLOCK)
        arg = np.multiply.outer(energies, grid.times[block])
        phi = np.empty(arg.shape, dtype=complex)
        np.cos(arg, out=phi.real)
        np.negative(np.sin(arg, out=phi.imag), out=phi.imag)
        del arg  # nothing but phi is held across the yield
        yield block, np.multiply(c, phi, out=phi)


def _state_blocks(eig: EigenSystem, psi0: PureState, grid: TimeGrid):
    """Yield (block, states): the normalized evolved state at each time of a block.

    The phases are released once applied, and the states normalized in
    place, so a block holds no temporary across its yield.
    """
    for block, phi in _phase_blocks(eig.eigenvalues, _overlaps(eig, psi0), grid):
        amp = eig.eigenvectors.apply(phi)
        del phi
        amp /= np.linalg.norm(amp, axis=0)
        yield block, amp


def expectation_series(
    spec: SpectralData,
    obs: ObservableMatrix,
    grid: TimeGrid,
) -> TimeSeries:
    """Expectation values of an eigenbasis observable along the quench.

    Each block of times t_j is built as real, C-contiguous rows
    x_j = c cos(eps t_j) and y_j = c sin(eps t_j), so phi(t_j) = x_j - i y_j.
    Each block row of O (see ObservableMatrix) takes one product with its
    columns of the stacked rows, and each term of
    phi^dag O phi = x O x + y O y + i (y O x - x O y) is a row dot product.
    A diagonal tile counts once; a tile right of it also stands for its
    conjugate transpose below, so it counts as twice its term's real part.
    The imaginary part, from the diagonal tiles alone and zero for Hermitian
    O, is the residue checked.
    """
    dim = obs.rows[0].shape[1]
    if dim != spec.dim:
        raise DimensionMismatch(f"observable dimension {dim} does not match {spec.dim}")
    dots = lambda a, b: np.einsum("jk,jk->j", a, b)  # row by row, no temporary

    def term(ox, oy, x, y):
        return dots(ox, x) + dots(oy, y) + 1j * (dots(oy, x) - dots(ox, y))

    c = spec.amplitudes()
    values = np.empty(len(grid))
    for start in range(0, len(grid), EVOLVE_BLOCK):
        block = slice(start, start + EVOLVE_BLOCK)
        t = grid.times[block]
        n = t.size
        xy = np.empty((2 * n, dim))
        x, y = xy[:n], xy[n:]
        np.multiply.outer(t, spec.eigenvalues, out=y)
        np.cos(y, out=x)
        np.sin(y, out=y)
        xy *= c
        val = np.zeros(n, dtype=complex)
        for row in obs.rows:
            h, r = row.shape[0], dim - row.shape[1]
            prod = xy[:, r : r + h] @ row
            ox, oy, xr, yr = prod[:n], prod[n:], x[:, r:], y[:, r:]
            val += term(ox[:, :h], oy[:, :h], xr[:, :h], yr[:, :h])
            # the real part of the other tiles' term; for a real row its cross
            # dots, times i, are imaginary, so only a complex row reads them
            ox, oy, xr, yr = ox[:, h:], oy[:, h:], xr[:, h:], yr[:, h:]
            re = dots(ox, xr) + dots(oy, yr)
            if np.iscomplexobj(row):
                re = re.real - (dots(oy, xr) - dots(ox, yr)).imag
            val += 2.0 * re
        residue = float(np.max(np.abs(val.imag)))
        if residue > _IMAG_TOL:
            raise ValueError(f"imaginary residue {residue!r} exceeds {_IMAG_TOL}")
        # divided by the squared norm, as _state_blocks normalizes its
        # states: SpectralData admits weights summing to 1 within 1e-10, and
        # the series is read in the normalized state either way
        values[block] = val.real / (dots(x, x) + dots(y, y))
    return TimeSeries(grid, values)


def diagonal_ensemble(spec: SpectralData, diagonal: np.ndarray) -> float:
    """Infinite-time average sum_n |c_n|^2 O_nn of the eigenstate expectations O_nn.

    It assumes nondegenerate gaps: off-diagonal contributions from exactly
    degenerate pairs never dephase, so a warning flags numerically zero gaps.
    Only a pair of levels that both carry weight has such a term, of size at
    most 2 sqrt(w_a w_b) |O_ab|, so only gaps between levels above
    GAP_WEIGHT_FLOOR count; the average itself is taken over every level.
    """
    if np.shape(diagonal) != (spec.dim,):
        raise DimensionMismatch("observable does not match the spectrum")
    gaps = np.diff(spec.eigenvalues[spec.weights > GAP_WEIGHT_FLOOR])
    if gaps.size and float(np.min(gaps)) < 1e-12:
        warnings.warn(
            "spectrum contains gaps below 1e-12; the diagonal ensemble ignores "
            "their non-dephasing off-diagonal terms",
            stacklevel=2,
        )
    return float(np.sum(spec.weights * diagonal).real)
