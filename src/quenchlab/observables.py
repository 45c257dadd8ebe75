"""The three observable classes of a quench and relaxation-time estimation.

Typical observables dephase within a few Boltzmann times. The slow
observable couples adjacent occupied levels with phase factors chosen so
every term starts aligned; its expectation is a sum of cosines of
neighboring-gap frequencies and survives until the Heisenberg time. Local
observables are single-site Paulis. Every observable is built in the
eigenbasis of the eigensystem it belongs to: a Pauli acts on the site basis
as a sign per basis state (sigma-z) or a one-bit flip (sigma-x, sigma-y),
so sigma V is the eigenvector matrix V with its rows signed and permuted,
and one product V^dag (sigma V) gives the observable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _freeze
from .dynamics import TimeSeries, _state_spec
from .errors import ConvergenceFailure, SiteOutOfBounds
from .hamiltonian import _sz_signs
from .spectral import DEFAULT_WEIGHT_FLOOR, EigenSystem, SpectralData

_HERM_TOL = 1e-12
_PERRON_RTOL = 1e-14
_PERRON_MAX_ITER = 10_000


@dataclass(frozen=True)
class ObservableMatrix:
    """Hermitian observable in an eigenbasis."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("observable has non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
            raise ValueError("observable is not Hermitian within 1e-12")
        object.__setattr__(self, "matrix", _freeze(m))


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
    """Hermitian coupling of consecutive occupied levels with aligned phases.

    For occupied levels a < b adjacent in the sorted occupied spectrum the
    matrix carries O[a, b] = e^{i(phi_a - phi_b)} and the conjugate below the
    diagonal, so each pair contributes |c_a||c_b| with zero initial phase and
    <O(0)> = 2 sum |c_n||c_{n+1}|. Levels below the weight floor carry no
    dynamical weight and are skipped.
    """
    dim = spec.eigenvalues.size
    occ = np.nonzero(spec.occupied_mask(weight_floor))[0]
    mat = np.zeros((dim, dim), dtype=complex)
    ph = spec.phases
    for a, b in zip(occ[:-1], occ[1:]):
        mat[a, b] = np.exp(1j * (ph[a] - ph[b]))
        mat[b, a] = np.conj(mat[a, b])
    return ObservableMatrix(mat)


def typical_observable(
    dim: int, seed: int, phases: np.ndarray | None = None
) -> ObservableMatrix:
    """Random Gaussian-ensemble Hermitian observable with unit operator norm.

    With phases given (the initial-state phases of a quench), the entries are
    the magnitudes of a Gaussian draw dressed as e^{i phi_n}|G_nm|e^{-i phi_m}.
    Every term of the t = 0 double sum then starts positive, giving the
    observable a macroscopic initial deviation that dephases on the Boltzmann
    time. A bare zero-mean draw starts at a value statistically identical to
    its late-time fluctuations, so there is no deviation to relax; the
    dressed form is what the dephasing experiments use.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    m = (a + a.T) / 2.0
    if phases is None:
        # the bare spectrum is symmetric about 0, with no dominant eigenvalue
        # for a power iteration to settle on
        norm = float(np.max(np.abs(np.linalg.eigvalsh(m))))
    else:
        ph = np.asarray(phases, dtype=float)
        if ph.shape != (dim,):
            raise ValueError(f"phases shape {ph.shape} does not match dim {dim}")
        m = np.abs(m)
        # the dressing D|G|D^dag, D = diag(e^{i phi}), is unitarily similar to
        # the entrywise-positive |G|, whose norm is its Perron root
        norm = _perron_root(m)
        unit = np.exp(1j * ph)
        m = unit[:, None] * m * np.conj(unit)[None, :]
    return ObservableMatrix(m / norm)


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
