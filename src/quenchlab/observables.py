"""The three observable classes of a quench and relaxation-time estimation.

Every observable is built in the quench-aligned eigenbasis, where each
overlap <n|psi0> is real and nonnegative. Typical observables are
entrywise positive there and dephase within a few Boltzmann times. The
slow observable couples adjacent occupied levels; its expectation is a sum
of cosines of neighboring-gap frequencies and survives until the
Heisenberg time. Local observables are single-site Paulis: a Pauli acts on
the site basis as a sign per basis state (sigma-z) or a one-bit flip
(sigma-x, sigma-y), so sigma V is the eigenvector matrix V with its rows
signed and permuted, and one product V^dag (sigma V) gives the observable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _hermitian
from .dynamics import TimeSeries, _state_spec
from .errors import ConvergenceFailure, SiteOutOfBounds
from .hamiltonian import _sz_signs
from .spectral import DEFAULT_WEIGHT_FLOOR, EigenSystem, SpectralData

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


def slow_observable(
    spec: SpectralData, weight_floor: float = DEFAULT_WEIGHT_FLOOR
) -> ObservableMatrix:
    """Real symmetric coupling of consecutive occupied levels.

    For occupied levels a < b adjacent in the sorted occupied spectrum the
    matrix carries O[a, b] = O[b, a] = 1. In the aligned eigenbasis each
    pair contributes c_a c_b = |c_a||c_b| at t = 0, so
    <O(0)> = 2 sum |c_n||c_{n+1}|. Levels below the weight floor carry no
    dynamical weight and are skipped.
    """
    dim = spec.eigenvalues.size
    occ = np.nonzero(spec.occupied_mask(weight_floor))[0]
    mat = np.zeros((dim, dim))
    mat[occ[:-1], occ[1:]] = 1.0
    mat[occ[1:], occ[:-1]] = 1.0
    return ObservableMatrix(mat)


def typical_observable(dim: int, seed: int) -> ObservableMatrix:
    """Random entrywise-positive symmetric observable with unit operator norm.

    The entries are the magnitudes |G| of a seeded Gaussian-ensemble draw.
    In the aligned eigenbasis every term of the t = 0 double sum then starts
    positive, giving the observable a macroscopic initial deviation that
    dephases on the Boltzmann time. A bare zero-mean draw would start at a
    value statistically identical to its late-time fluctuations, with no
    deviation to relax. The norm of the positive |G| is its Perron root.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    m = np.abs((a + a.T) / 2.0)
    return ObservableMatrix(m / _perron_root(m))


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


def local_observable(eig: EigenSystem, site: int, axis: str) -> ObservableMatrix:
    """Single-site Pauli in the eigenbasis, V^dag sigma V.

    Site 0 is the low bit of a basis index. sigma-z signs the rows of V,
    sigma-x swaps the rows that differ in the site's bit, and sigma-y does
    both and carries a factor -i, applied after the product, so a real V
    gives real x and z observables from one real product.
    """
    n = _state_spec(eig.dim).n_sites
    if not 0 <= site < n:
        raise SiteOutOfBounds(f"site {site} outside chain of {n}")
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    v = eig.eigenvectors
    rows = v if axis == "z" else v[np.arange(eig.dim) ^ (1 << site)]
    if axis != "x":
        rows = _sz_signs(n)[:, site, None] * rows
    m = v.conj().T @ rows
    if axis != "y":
        return ObservableMatrix((m + m.conj().T) / 2.0)
    # Hermitian part of -i m, taken as -i times the anti-Hermitian part of m
    # so a real m is symmetrized before it becomes complex
    return ObservableMatrix(-1j * ((m - m.conj().T) / 2.0))


def identity_observable(dim: int) -> ObservableMatrix:
    return ObservableMatrix(np.eye(dim))


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
