"""Entanglement entropy scans, growth fits, and correlation light cones.

Under a local Hamiltonian a separable initial state builds entanglement
across a cut at a rate set by the cut's boundary, so in a chain every
interior cut grows at nearly the same rate and the profile stays flat in
the cut position. A scrambled Hamiltonian has no notion of locality and
fills every bipartition toward its maximal entropy within a Boltzmann
time, so the profile scales with the smaller block. Connected two-point
correlators expose the finite propagation speed of the local dynamics.

Both scans read blocks of evolved states from the dynamics kernel: the
entropies through the spectra of the smaller side's reduced density
matrices, one batched Gram product and one batched eigvalsh per cut, the
sigma-z correlators through products of the evolved probabilities with the
sign table of the basis states.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PureState, _freeze, _n_sites
from .dynamics import TimeGrid, _state_blocks
from .errors import NoFrontDetected, RegionOutOfBounds
from .hamiltonian import _sz_signs
from .params import DEFAULT_FRONT_THRESHOLD
from .spectral import EigenSystem

# reduced-density-matrix eigenvalues below this are rounding of the Gram
# product (about 1e-16 each) and count as zero
_EIG_CLIP = 1e-14


@dataclass(frozen=True)
class EntanglementProfile:
    """Entropy in nats for prefix cuts [0, l) sampled over a time grid."""

    cuts: tuple[int, ...]
    grid: TimeGrid
    entropies: np.ndarray  # shape (n_cuts, n_times)

    def __post_init__(self) -> None:
        s = np.ascontiguousarray(self.entropies, dtype=float)
        if s.shape != (len(self.cuts), len(self.grid)):
            raise ValueError(
                f"entropies shape {s.shape} does not match "
                f"({len(self.cuts)}, {len(self.grid)})"
            )
        object.__setattr__(self, "cuts", tuple(int(c) for c in self.cuts))
        object.__setattr__(self, "entropies", _freeze(s))


@dataclass(frozen=True)
class CutGrowth:
    """Linear-growth fit for one cut."""

    cut: int
    rate: float
    intercept: float
    r_squared: float
    fit_window: tuple[float, float]
    saturation_value: float
    window_too_small: bool


@dataclass(frozen=True)
class GrowthFit:
    fits: tuple[CutGrowth, ...]
    saturation_fraction: float

    def for_cut(self, cut: int) -> CutGrowth:
        for f in self.fits:
            if f.cut == cut:
                return f
        raise KeyError(f"no fit for cut {cut}")


@dataclass(frozen=True)
class CorrelationFront:
    """Connected sigma-z correlator magnitudes C[r][t] and the fitted front."""

    radii: tuple[int, ...]
    grid: TimeGrid
    correlator: np.ndarray  # shape (n_radii, n_times)
    arrival_times: np.ndarray  # nan where the threshold is never crossed
    velocity: float
    threshold: float

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.correlator, dtype=float)
        if c.shape != (len(self.radii), len(self.grid)):
            raise ValueError("correlator shape does not match radii and grid")
        if self.velocity < 0:
            raise ValueError("velocity must be nonnegative")
        object.__setattr__(self, "correlator", _freeze(c))
        object.__setattr__(
            self, "arrival_times", _freeze(np.asarray(self.arrival_times, float))
        )


def entropy_scan(
    eig: EigenSystem,
    psi0: PureState,
    cuts: Sequence[int],
    grid: TimeGrid,
) -> EntanglementProfile:
    """Entropy of every prefix cut [0, l) at every grid time.

    A cut l splits the N sites into [0, l) and [l, N), so it must lie in
    [1, N - 1]; any other raises RegionOutOfBounds. Site 0 is the low bit,
    so a block of states reshaped to (times, 2^(N-l), 2^l) holds each
    state's Schmidt matrix M across the cut. The reduced density matrix of
    the smaller side is M^dag M (the prefix, when 2l <= N) or M M^dag (the
    rest), up to a complex conjugation that leaves its spectrum alone, and
    one batched eigvalsh of these Gram products gives the Schmidt weights of
    every time in the block.
    """
    cuts = tuple(int(c) for c in cuts)
    n = _n_sites(eig.dim)
    for c in cuts:
        if not 1 <= c < n:
            raise RegionOutOfBounds(f"cut {c} must lie in [1, {n - 1}] for {n} sites")
    out = np.empty((len(cuts), len(grid)))
    for block, states in _state_blocks(eig, psi0, grid):
        # one state per row, so that each cut's Schmidt matrices are contiguous
        states = np.ascontiguousarray(states.T)
        for i, cut in enumerate(cuts):
            m = states.reshape(-1, 2 ** (n - cut), 2**cut)
            if 2 * cut <= n:  # the prefix is the smaller side
                rho = m.conj().swapaxes(1, 2) @ m
            else:
                rho = m @ m.conj().swapaxes(1, 2)
            lam = np.linalg.eigvalsh(rho)
            lam = np.where(lam > _EIG_CLIP, lam, 1.0)  # clipped weights add 1 log 1 = 0
            out[i, block] = -np.sum(lam * np.log(lam), axis=1)
    return EntanglementProfile(cuts, grid, out)


def growth_fit(profile: EntanglementProfile, saturation_fraction: float = 0.8) -> GrowthFit:
    """Least-squares line per cut over the pre-saturation window.

    The plateau is the mean entropy over the last 10% of grid times; the fit
    window runs from the first nonzero point to the first point exceeding
    saturation_fraction of the plateau. Cuts whose window holds fewer than
    5 points are flagged rather than fitted.
    """
    if not 0.0 < saturation_fraction < 1.0:
        raise ValueError("saturation_fraction must be in (0, 1)")
    t = profile.grid.times
    n_t = t.size
    tail_start = min(n_t - 1, int(np.ceil(0.9 * n_t)))
    fits = []
    for i, cut in enumerate(profile.cuts):
        s = profile.entropies[i]
        plateau = float(np.mean(s[tail_start:]))
        nonzero = np.nonzero(s > 1e-12)[0]
        i0 = int(nonzero[0]) if nonzero.size else n_t
        above = np.nonzero(s > saturation_fraction * plateau)[0]
        i1 = int(above[0]) if above.size else n_t
        if i1 - i0 < 5:
            fits.append(CutGrowth(cut, 0.0, 0.0, 0.0, (0.0, 0.0), plateau, True))
            continue
        tw, sw = t[i0:i1], s[i0:i1]
        a = np.vstack([tw, np.ones_like(tw)]).T
        coef, *_ = np.linalg.lstsq(a, sw, rcond=None)
        pred = a @ coef
        ss_res = float(np.sum((sw - pred) ** 2))
        ss_tot = float(np.sum((sw - sw.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
        fits.append(
            CutGrowth(
                cut,
                float(coef[0]),
                float(coef[1]),
                r2,
                (float(t[i0]), float(t[i1 - 1])),
                plateau,
                False,
            )
        )
    return GrowthFit(tuple(fits), saturation_fraction)


def fit_front(
    radii: Sequence[int],
    times: np.ndarray,
    correlator: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, float]:
    """Arrival times per radius and the least-squares front velocity.

    The arrival at radius r is the first grid time where C[r] reaches the
    threshold; the velocity is the slope of r against arrival time over the
    radii that ever arrive.
    """
    radii = np.asarray(radii, dtype=float)
    arrivals = np.full(radii.size, np.nan)
    for i in range(radii.size):
        hit = np.nonzero(correlator[i] >= threshold)[0]
        if hit.size:
            arrivals[i] = times[hit[0]]
    defined = ~np.isnan(arrivals)
    if int(defined.sum()) < 3:
        raise NoFrontDetected(
            f"only {int(defined.sum())} radii crossed threshold {threshold}"
        )
    ts = arrivals[defined]
    rs = radii[defined]
    a = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(a, rs, rcond=None)
    return arrivals, float(coef[0])


def light_cone(
    eig: EigenSystem,
    psi0: PureState,
    reference_site: int,
    grid: TimeGrid,
    threshold: float = DEFAULT_FRONT_THRESHOLD,
    periodic: bool = False,
) -> CorrelationFront:
    """Connected correlation front from a reference site.

    C[r][t] = |<sz_ref sz_{ref+r}> - <sz_ref><sz_{ref+r}>| for every radius
    that fits in the chain: the sites to the right of the reference on an
    open chain, and on a ring (periodic) the ring distances 1..N/2, site
    ref + r taken modulo N. Both operators are diagonal, so the correlators
    come from the evolved probability distribution directly. A front whose
    fitted velocity is not positive raises NoFrontDetected.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    n = _n_sites(eig.dim)
    if not 0 <= reference_site < n:
        raise ValueError(f"reference site {reference_site} outside chain of {n}")
    radii = tuple(range(1, n // 2 + 1 if periodic else n - reference_site))
    if not radii:
        raise ValueError("reference site has no sites to its right")
    sites = (reference_site + np.array(radii)) % n
    signs = _sz_signs(n)
    pair_signs = signs[:, reference_site, None] * signs[:, sites]
    out = np.empty((len(radii), len(grid)))
    for block, states in _state_blocks(eig, psi0, grid):
        p = np.abs(states) ** 2
        z = signs.T @ p
        zz = pair_signs.T @ p
        out[:, block] = np.abs(zz - z[reference_site] * z[sites])

    arrivals, velocity = fit_front(radii, grid.times, out, threshold)
    if not velocity > 0.0:
        raise NoFrontDetected(f"fitted front velocity {velocity!r} is not positive")
    return CorrelationFront(radii, grid, out, arrivals, velocity, threshold)
