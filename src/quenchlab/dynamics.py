"""Time evolution and expectation-value series.

The spectral propagator is the reference path: with c_n = <n|psi0>, the
evolved state is |psi(t)> = sum_n c_n e^{-i eps_n t} |n>, and for an
observable O expressed in the eigenbasis

    <O(t)> = sum_{n,m} |c_n| O_{nm} |c_m| e^{i(eps_n - eps_m) t} e^{i(phi_m - phi_n)}

evaluated here as phi(t)^dag O phi(t) with phi_n(t) = c_n e^{-i eps_n t},
which is the same double sum organized as matrix products over blocks of
EVOLVE_BLOCK grid times, the kernel that also serves entropy scans and light cones.
A Lanczos propagator covers sizes where a full diagonalization is not
worth its cost; it exponentiates its small real tridiagonal matrix through
that matrix's own eigendecomposition, so the module needs numpy alone.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import HilbertSpec, PureState, _freeze
from .errors import DimensionMismatch
from .hamiltonian import HermitianOperator
from .spectral import EigenSystem, SpectralData, Timescales

if TYPE_CHECKING:  # avoids a runtime cycle with the observables module
    from .observables import ObservableMatrix

_IMAG_TOL = 1e-10

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
    spacing: str = "linear"

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
        if self.spacing not in ("linear", "logarithmic"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
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
    return TimeGrid(np.linspace(0.0, t_max, n_points), "linear")


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
        log = np.geomspace(lin[-1], end, SLOW_GRID_LOG_POINTS)
        times = np.unique(np.concatenate([lin, log]))
    else:
        times = lin
    return TimeGrid(times, "logarithmic")


def _state_spec(dim: int) -> HilbertSpec:
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise DimensionMismatch(f"dimension {dim} is not a power of two")
    return HilbertSpec(n)


def evolve_spectral(eig: EigenSystem, spec: SpectralData, t: float) -> PureState:
    """Exact evolved state at time t via per-level phase rotation."""
    phi = spec.amplitudes() * np.exp(-1j * spec.eigenvalues * t)
    amp = eig.eigenvectors @ phi
    amp = amp / np.linalg.norm(amp)
    return PureState(amp, _state_spec(eig.dim))


def _matmul(mat: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """mat @ phi, without the complex copy numpy makes of a real mat."""
    if np.iscomplexobj(mat):
        return mat @ phi
    return mat @ phi.real + 1j * (mat @ phi.imag)


def _phase_blocks(spec: SpectralData, grid: TimeGrid):
    """Yield (block, phi) with phi[:, j] = c e^{-i eps t_j} for each time of a block."""
    c = spec.amplitudes()[:, None]
    for start in range(0, len(grid), EVOLVE_BLOCK):
        block = slice(start, start + EVOLVE_BLOCK)
        yield block, c * np.exp(-1j * np.outer(spec.eigenvalues, grid.times[block]))


def _state_blocks(eig: EigenSystem, spec: SpectralData, grid: TimeGrid):
    """Yield (block, states): the normalized evolved state at each time of a block."""
    for block, phi in _phase_blocks(spec, grid):
        amp = _matmul(eig.eigenvectors, phi)
        yield block, amp / np.linalg.norm(amp, axis=0)


def expectation_series(
    eig: EigenSystem,
    spec: SpectralData,
    obs: ObservableMatrix,
    grid: TimeGrid,
) -> TimeSeries:
    """Expectation values of an eigenbasis observable along the quench.

    Each block of times takes one product of the observable with the phase
    columns.
    """
    mat = obs.matrix
    if mat.shape[0] != eig.dim:
        raise DimensionMismatch(
            f"observable dimension {mat.shape[0]} does not match {eig.dim}"
        )
    values = np.empty(len(grid))
    for block, phi in _phase_blocks(spec, grid):
        val = np.sum(phi.conj() * _matmul(mat, phi), axis=0)
        residue = float(np.max(np.abs(val.imag)))
        if residue > _IMAG_TOL:
            raise ValueError(f"imaginary residue {residue!r} exceeds {_IMAG_TOL}")
        # divided by the squared norm, as evolve_spectral normalizes its
        # states; the identity then reads exactly 1
        values[block] = val.real / np.sum(phi.conj() * phi, axis=0).real
    return TimeSeries(grid, values)


def diagonal_ensemble(spec: SpectralData, obs: ObservableMatrix) -> float:
    """Infinite-time average sum_n |c_n|^2 O_nn, assuming nondegenerate gaps.

    Off-diagonal contributions from exactly degenerate pairs never dephase;
    a warning flags spectra where any gap is numerically zero.
    """
    if obs.matrix.shape[0] != spec.eigenvalues.size:
        raise DimensionMismatch("observable does not match the spectrum")
    gaps = np.diff(spec.eigenvalues)
    if gaps.size and float(np.min(gaps)) < 1e-12:
        warnings.warn(
            "spectrum contains gaps below 1e-12; the diagonal ensemble ignores "
            "their non-dephasing off-diagonal terms",
            stacklevel=2,
        )
    return float(np.sum(spec.weights * np.diagonal(obs.matrix).real))


def _lanczos(mat: np.ndarray, v0: np.ndarray, m: int):
    """Lanczos tridiagonalization: returns basis Q, diagonals, and the exit beta."""
    dim = v0.size
    q = np.empty((m, dim), dtype=complex)
    alpha = np.empty(m)
    beta = np.empty(m)  # beta[k] couples step k to k+1
    q[0] = v0
    prev = np.zeros(dim, dtype=complex)
    b_prev = 0.0
    k = 0
    for k in range(m):
        w = mat @ q[k]
        a = np.vdot(q[k], w).real
        alpha[k] = a
        w = w - a * q[k] - b_prev * prev
        # one reorthogonalization pass keeps the basis usable at this scale
        coeffs = q[: k + 1].conj() @ w
        w = w - q[: k + 1].T @ coeffs
        b = np.linalg.norm(w)
        beta[k] = b
        if b < 1e-13 or k == m - 1:
            return q[: k + 1], alpha[: k + 1], beta[: k + 1], b
        prev = q[k]
        b_prev = b
        q[k + 1] = w / b
    raise AssertionError("unreachable: the loop returns on its last iteration")


def _krylov_step(mat: np.ndarray, psi: np.ndarray, dt: float, m: int):
    """One Lanczos-propagated step; returns (state, residual estimate).

    The Lanczos matrix T is real symmetric, so with T = W diag(lam) W^T the
    small propagator is e^{-i dt T} = W diag(e^{-i dt lam}) W^T; only its
    first column, W (e^{-i dt lam} * W[0, :]), enters the step.
    """
    q, alpha, beta, b_exit = _lanczos(mat, psi, m)
    k = alpha.size
    lam, w = np.linalg.eigh(_tridiag(alpha, beta[: k - 1]))
    y = w @ (np.exp(-1j * dt * lam) * w[0])
    err = 0.0 if b_exit < 1e-13 else float(b_exit * abs(y[-1]))
    out = q.T @ y
    return out / np.linalg.norm(out), err


def _tridiag(alpha: np.ndarray, off: np.ndarray) -> np.ndarray:
    t = np.diag(alpha)
    if off.size:
        t += np.diag(off, 1) + np.diag(off, -1)
    return t


def krylov_evolve(
    h: HermitianOperator,
    psi: PureState,
    dt: float,
    subspace_dim: int = 30,
) -> PureState:
    """Lanczos approximation to e^{-iH dt} psi with adaptive step halving.

    The step is split in half until the subspace residual estimate of every
    substep drops below 1e-10. A Lanczos breakdown means the Krylov space
    closed on an invariant subspace, where the propagated result is exact.
    """
    if subspace_dim < 2:
        raise ValueError("subspace_dim must be at least 2")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if h.dim != psi.spec.dim:
        raise DimensionMismatch("operator and state dimensions differ")

    mat = h.matrix
    n_sub = 1
    for _ in range(40):
        step = dt / n_sub
        vec = psi.amplitudes.astype(complex)
        ok = True
        for _ in range(n_sub):
            vec, err = _krylov_step(mat, vec, step, subspace_dim)
            if err > 1e-10:
                ok = False
                break
        if ok:
            return PureState(vec, psi.spec)
        n_sub *= 2
    raise RuntimeError("step halving failed to reach the residual target")
