"""Diagonalization, Haar scrambling, occupied-spectrum statistics, and timescales.

A quench from |psi0> occupies the spectrum with weights |c_n|^2 where
c_n = <n|psi0>; eigenbasis readers take the weights alone and work in the
quench-aligned eigenbasis, where every c_n is sqrt(weights[n]). Two times
govern the subsequent dynamics: the Boltzmann time 1/Delta_E set by the
occupied energy width, and the Heisenberg time 1/delta_eps set by the mean
spacing of occupied levels, which shrinks exponentially with system size.
Units are hbar = k_B = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PureState, _freeze, _matmul
from .errors import (
    ConvergenceFailure,
    DegenerateWidth,
    DimensionMismatch,
    TooFewOccupied,
)
from .hamiltonian import HermitianOperator, haar_unitary

DEFAULT_WEIGHT_FLOOR = 1e-8
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the unitary matrix of eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        ev = np.ascontiguousarray(self.eigenvalues, dtype=float)
        vec = np.ascontiguousarray(self.eigenvectors)
        if vec.shape != (ev.size, ev.size):
            raise DimensionMismatch(
                f"eigenvector matrix {vec.shape} does not match {ev.size} eigenvalues"
            )
        if not (np.all(np.isfinite(ev)) and np.all(np.isfinite(vec))):
            raise ValueError("eigenvalues and eigenvectors must be finite")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", _freeze(ev))
        object.__setattr__(self, "eigenvectors", _freeze(vec))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class SpectralData:
    """Occupied-spectrum weights of an initial state.

    weights[n] = |c_n|^2 with c_n = <n|psi0>. In the quench-aligned
    eigenbasis, where every c_n is real and nonnegative, the overlaps
    themselves are sqrt(weights).
    """

    eigenvalues: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        ev = np.ascontiguousarray(self.eigenvalues, dtype=float)
        w = np.ascontiguousarray(self.weights, dtype=float)
        if ev.shape != w.shape:
            raise DimensionMismatch("eigenvalues and weights must share a shape")
        if not (np.all(np.isfinite(ev)) and np.all(np.isfinite(w))):
            raise ValueError("eigenvalues and weights must be finite")
        total = w.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {total!r}, expected 1 within 1e-10")
        object.__setattr__(self, "eigenvalues", _freeze(ev))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def amplitudes(self) -> np.ndarray:
        """The aligned overlaps c_n = sqrt(weights[n])."""
        return np.sqrt(self.weights)

    def occupied_mask(self, weight_floor: float) -> np.ndarray:
        return self.weights > weight_floor


@dataclass(frozen=True)
class Timescales:
    """Energy width and the two characteristic times of a quench."""

    energy_mean: float
    energy_width: float
    boltzmann_time: float
    mean_occupied_spacing: float
    heisenberg_time: float


@dataclass(frozen=True)
class GaussianFit:
    """Weighted moments of the occupied density of states and a normal-CDF sup distance."""

    mean: float
    sigma: float
    skewness: float
    excess_kurtosis: float
    max_cdf_deviation: float


def diagonalize(h: HermitianOperator) -> EigenSystem:
    """Full dense eigendecomposition.

    Real symmetric input takes the real LAPACK path automatically, which is
    several times faster than the complex one at the largest chain sizes.
    """
    try:
        ev, vec = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return EigenSystem(ev, vec)


def scramble(eig: EigenSystem, seed: int) -> EigenSystem:
    """Eigensystem of U H U^dag for a seeded Haar unitary U.

    Same spectrum, no locality left. With H = V E V^dag, U H U^dag =
    (U V) E (U V)^dag, so the scrambled eigenvectors are the product U V and
    the dense conjugated operator is never formed or diagonalized.
    """
    u = haar_unitary(eig.dim, np.random.default_rng(seed))
    return EigenSystem(eig.eigenvalues, u @ eig.eigenvectors)


def _overlaps(eig: EigenSystem, psi0: PureState) -> np.ndarray:
    """c = V^dag psi0, read as (V^T psi0^*)^* so V is never copied."""
    if eig.dim != psi0.spec.dim:
        raise DimensionMismatch(
            f"eigensystem dimension {eig.dim} does not match state {psi0.spec.dim}"
        )
    return _matmul(eig.eigenvectors.T, psi0.amplitudes.conj()).conj()


def occupied_spectrum(eig: EigenSystem, psi0: PureState) -> SpectralData:
    """The eigenvalues and the gauge-free weights |<n|psi0>|^2 of a quench."""
    w = np.abs(_overlaps(eig, psi0)) ** 2
    return SpectralData(eig.eigenvalues, w / w.sum())


def timescales(
    spec: SpectralData, weight_floor: float = DEFAULT_WEIGHT_FLOOR
) -> Timescales:
    """Energy width, Boltzmann time, occupied level spacing, Heisenberg time.

    The width is the full weighted spectral standard deviation; the spacing
    averages only over levels carrying weight above weight_floor, since
    levels without weight never contribute to dephasing.
    """
    e, w = spec.eigenvalues, spec.weights
    mean = float(np.sum(w * e))
    var = float(np.sum(w * (e - mean) ** 2))
    width = math.sqrt(max(var, 0.0))
    if width < 1e-12:
        raise DegenerateWidth(
            "energy width is numerically zero (eigenstate initial condition)"
        )
    occ = spec.occupied_mask(weight_floor)
    count = int(occ.sum())
    if count < 2:
        raise TooFewOccupied(f"only {count} levels above weight floor {weight_floor}")
    eo = e[occ]
    spacing = float(eo.max() - eo.min()) / (count - 1)
    return Timescales(
        energy_mean=mean,
        energy_width=width,
        boltzmann_time=1.0 / width,
        mean_occupied_spacing=spacing,
        heisenberg_time=1.0 / spacing,
    )


def _ndtr(z: float) -> float:
    """Standard normal CDF with the branches of the Cephes ndtr.

    With x = z / sqrt(2), the center |x| < 1/sqrt(2) uses 0.5 + 0.5 erf(x);
    the tails use 0.5 erfc(|x|), reflected for x > 0, so far-left values
    keep their size instead of cancelling to 0 in 0.5 + 0.5 erf(x).
    """
    x = z * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def dos_fit(spec: SpectralData, weight_floor: float = DEFAULT_WEIGHT_FLOOR) -> GaussianFit:
    """Gaussianity diagnostics of the occupied density of states.

    Weighted skewness and excess kurtosis of rho(E) = sum_n |c_n|^2
    delta(E - eps_n), plus the sup-norm distance between the weighted
    empirical CDF and the normal CDF with the fitted mean and sigma, the
    latter evaluated level by level through the Cephes branches of _ndtr.
    """
    occ = spec.occupied_mask(weight_floor)
    if int(occ.sum()) < 10:
        raise TooFewOccupied(
            f"need at least 10 occupied levels, found {int(occ.sum())}"
        )
    e = spec.eigenvalues[occ]
    w = spec.weights[occ]
    w = w / w.sum()

    mean = float(np.sum(w * e))
    var = float(np.sum(w * (e - mean) ** 2))
    sigma = math.sqrt(max(var, 0.0))
    if sigma == 0.0:
        raise DegenerateWidth("occupied spectrum has zero width")
    z = (e - mean) / sigma
    skew = float(np.sum(w * z**3))
    kurt = float(np.sum(w * z**4) - 3.0)

    order = np.argsort(e, kind="stable")
    zs = z[order]
    cum = np.cumsum(w[order])
    fitted = np.array([_ndtr(v) for v in zs.tolist()])
    # the empirical CDF jumps at each level: compare both jump sides
    below = np.concatenate([[0.0], cum[:-1]])
    dev = float(max(np.max(np.abs(cum - fitted)), np.max(np.abs(below - fitted))))
    return GaussianFit(
        mean=mean,
        sigma=sigma,
        skewness=skew,
        excess_kurtosis=kurt,
        max_cdf_deviation=dev,
    )
