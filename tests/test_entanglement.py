import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quenchlab as ql
from conftest import SCRAMBLE_SEED, neel_state
from oracles import (
    SiteRegion,
    dense_eigensystem,
    entropy,
    evolve_spectral,
    evolve_states,
    schmidt_entropy,
)
from quenchlab.errors import DimensionMismatch, NoFrontDetected, RegionOutOfBounds

UP = (1.0, 0.0)
LN2 = np.log(2.0)


def random_state(seed: int, n_sites: int) -> ql.PureState:
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(2**n_sites) + 1j * rng.standard_normal(2**n_sites)
    amp /= np.linalg.norm(amp)
    return ql.PureState(amp)


def ghz(n_sites: int) -> ql.PureState:
    amp = np.zeros(2**n_sites, dtype=complex)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
    return ql.PureState(amp)


def test_entropy_product_state_is_zero():
    rng = np.random.default_rng(7)
    locals_ = []
    for _ in range(5):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        locals_.append((v[0], v[1]))
    psi = ql.product_state(locals_)
    for cut in range(1, 5):
        assert entropy(psi, SiteRegion(0, cut, 5)) < 1e-12


def test_entropy_bell_pair():
    psi = ql.PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    assert entropy(psi, SiteRegion(0, 1, 2)) == pytest.approx(LN2, abs=1e-12)


def test_entropy_ghz_half_chain():
    psi = ghz(6)
    # any bipartition of a GHZ state carries exactly one shared bit
    for cut in (1, 3, 5):
        assert entropy(psi, SiteRegion(0, cut, 6)) == pytest.approx(LN2, abs=1e-12)


def test_entropy_interior_region():
    psi = ghz(6)
    assert entropy(psi, SiteRegion(2, 4, 6)) == pytest.approx(LN2, abs=1e-12)


@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_entropy_complementarity(seed, cut):
    psi = random_state(seed, 6)
    left = entropy(psi, SiteRegion(0, cut, 6))
    right = entropy(psi, SiteRegion(cut, 6, 6))
    assert abs(left - right) < 1e-9


@given(st.integers(0, 2**31 - 1), st.floats(-np.pi, np.pi))
@settings(max_examples=15, deadline=None)
def test_entropy_global_phase_invariance(seed, alpha):
    psi = random_state(seed, 5)
    rotated = ql.PureState(np.exp(1j * alpha) * psi.amplitudes)
    r = SiteRegion(0, 2, 5)
    assert abs(entropy(psi, r) - entropy(rotated, r)) < 1e-10


@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_entropy_bounds(seed, cut):
    psi = random_state(seed, 6)
    s = entropy(psi, SiteRegion(0, cut, 6))
    assert s >= -1e-10
    assert s <= min(cut, 6 - cut) * LN2 + 1e-9


def test_entropy_scan_initial_column_zero(quench8):
    grid = ql.linear_grid(1.0, 5)
    profile = ql.entropy_scan(quench8.eig, quench8.psi0, range(1, 8), grid)
    assert profile.entropies.shape == (7, 5)
    assert np.max(profile.entropies[:, 0]) < 1e-10  # separable start
    assert np.min(profile.entropies) >= -1e-12


def test_entropy_scan_bounds(quench8):
    grid = ql.linear_grid(2.0, 9)
    profile = ql.entropy_scan(quench8.eig, quench8.psi0, range(1, 8), grid)
    for i, cut in enumerate(profile.cuts):
        cap = min(cut, 8 - cut) * LN2 + 1e-9
        assert np.max(profile.entropies[i]) <= cap


@pytest.mark.parametrize("cut", [0, -1, 8])
def test_entropy_scan_refuses_a_cut_outside_the_chain(quench8, cut):
    # a cut l must leave sites on both sides, [0, l) and [l, 8)
    with pytest.raises(RegionOutOfBounds, match=rf"cut {cut} must lie in \[1, 7\]"):
        ql.entropy_scan(quench8.eig, quench8.psi0, [1, cut], ql.linear_grid(1.0, 3))


def test_entropy_scan_reflection_symmetry():
    # uniform open chain and a site-uniform initial state are both invariant
    # under reversing the site order, so the profile must mirror in the cut
    params = ql.ChainParams(n_sites=8)
    chain = ql.build_local_chain(params)
    psi0 = ql.product_state([UP] * 8)
    profile = ql.entropy_scan(ql.diagonalize(chain), psi0, range(1, 8), ql.linear_grid(2.0, 7))
    s = profile.entropies
    for i, cut in enumerate(profile.cuts):
        j = profile.cuts.index(8 - cut)
        assert np.max(np.abs(s[i] - s[j])) < 1e-9


# longer than one kernel block and not a multiple of it
KERNEL_POINTS = ql.dynamics.EVOLVE_BLOCK + 6


@pytest.mark.parametrize("system", ["quench8", "scrambled10"])
def test_entropy_scan_matches_per_state_oracle(request, system):
    # scrambled10 has complex eigenvectors, quench8 real ones
    q = request.getfixturevalue(system)
    n = int(np.log2(q.eig.dim))
    grid = ql.linear_grid(3.0, KERNEL_POINTS)
    cuts = tuple(range(1, n))
    profile = ql.entropy_scan(q.eig, q.psi0, cuts, grid)
    # the oracle's states at every time from one pass through its V
    for k, psi in enumerate(evolve_states(q.eig, q.psi0, grid.times)):
        for i, cut in enumerate(cuts):
            oracle = entropy(psi, SiteRegion(0, cut, n))
            assert abs(profile.entropies[i, k] - oracle) < 1e-12


@pytest.mark.parametrize("variant", ["local", "scrambled"])
@pytest.mark.parametrize("n", [9, 10])
def test_entropy_scan_matches_the_schmidt_values(n, variant):
    # cuts 1..n-1: the prefix is the smaller side, the middle cut (even n),
    # and the larger side, so both Gram products M^dag M and M M^dag run
    eig = ql.diagonalize(ql.build_local_chain(ql.ChainParams(n_sites=n)))
    if variant == "scrambled":
        eig = ql.scramble(eig, SCRAMBLE_SEED)
    psi0 = neel_state(n)
    grid = ql.linear_grid(4.0, 9)
    cuts = tuple(range(1, n))
    profile = ql.entropy_scan(eig, psi0, cuts, grid)
    assert np.max(profile.entropies) > 1.0  # the scan reaches entangled states
    for k, psi in enumerate(evolve_states(eig, psi0, grid.times)):
        for i, cut in enumerate(cuts):
            assert abs(profile.entropies[i, k] - schmidt_entropy(psi, cut)) < 1e-12


def rainbow(n: int) -> ql.PureState:
    """Bell pairs (|00> + |11>)/sqrt(2) on sites (j, n-1-j); an odd chain's middle site up."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    pairs = n // 2
    paired = np.all(bits[:, :pairs] == bits[:, ::-1][:, :pairs], axis=1)
    if n % 2:
        paired &= bits[:, pairs] == 0
    return ql.PureState(paired / np.sqrt(2.0**pairs))


@pytest.mark.parametrize("n", [8, 9])
def test_rainbow_state_entropy_counts_the_cut_pairs(n):
    # a cut at l severs min(l, n-l) Bell pairs, so the smaller side's reduced
    # density matrix is maximally mixed: 2^min(l, n-l) equal eigenvalues
    psi0 = rainbow(n)
    eig = ql.diagonalize(ql.build_local_chain(ql.ChainParams(n_sites=n)))
    cuts = tuple(range(1, n))
    profile = ql.entropy_scan(eig, psi0, cuts, ql.TimeGrid(np.array([0.0])))
    for i, cut in enumerate(cuts):
        assert abs(profile.entropies[i, 0] - min(cut, n - cut) * LN2) < 1e-12


def test_light_cone_matches_per_state_loop(quench8):
    grid = ql.linear_grid(3.0, KERNEL_POINTS)
    ref = 2
    front = ql.light_cone(quench8.eig, quench8.psi0, ref, grid)
    bits = (np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    for k, t in enumerate(grid.times):
        p = np.abs(evolve_spectral(quench8.eig, quench8.psi0, float(t)).amplitudes) ** 2
        z = signs.T @ p
        for i, r in enumerate(front.radii):
            zz = np.sum(p * signs[:, ref] * signs[:, ref + r])
            oracle = abs(zz - z[ref] * z[ref + r])
            assert abs(front.correlator[i, k] - oracle) < 1e-12


def test_scrambled_half_cut_reaches_page_value(scrambled10):
    t = 5.0 * scrambled10.ts.boltzmann_time
    psi = evolve_spectral(scrambled10.eig, scrambled10.psi0, t)
    s = entropy(psi, SiteRegion(0, 5, 10))
    page = 5.0 * LN2 - 0.5
    assert abs(s - page) < 0.2 * page


def test_growth_fit_linear_ramp():
    t = np.linspace(0.0, 10.0, 201)
    s = np.minimum(0.3 * t, 2.0)
    profile = ql.EntanglementProfile((1, 2), ql.TimeGrid(t), np.vstack([s, s]))
    fit = ql.growth_fit(profile, saturation_fraction=0.8)
    for cut in (1, 2):
        f = fit.for_cut(cut)
        assert not f.window_too_small
        assert f.rate == pytest.approx(0.3, abs=1e-9)
        assert f.r_squared > 1.0 - 1e-12
        assert f.saturation_value == pytest.approx(2.0, abs=1e-12)
        assert f.fit_window[0] == pytest.approx(t[1])
        assert f.fit_window[1] < 0.8 * 2.0 / 0.3 + 1e-9


def test_growth_fit_flat_profile_flagged():
    grid = ql.TimeGrid(np.linspace(0.0, 1.0, 20))
    profile = ql.EntanglementProfile((3,), grid, np.zeros((1, 20)))
    f = ql.growth_fit(profile).for_cut(3)
    assert f.window_too_small
    assert f.saturation_value == 0.0


def test_growth_fit_validation():
    grid = ql.TimeGrid(np.linspace(0.0, 1.0, 10))
    profile = ql.EntanglementProfile((1,), grid, np.zeros((1, 10)))
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            ql.growth_fit(profile, saturation_fraction=bad)
    with pytest.raises(KeyError):
        ql.growth_fit(profile).for_cut(9)


def test_growth_fit_on_chain_scan(quench8):
    grid = ql.linear_grid(3.0, 46)
    profile = ql.entropy_scan(quench8.eig, quench8.psi0, range(1, 8), grid)
    f = ql.growth_fit(profile).for_cut(4)
    assert not f.window_too_small
    assert 0.2 < f.rate < 2.0
    assert f.r_squared > 0.95


def test_fit_front_ballistic():
    radii = np.arange(1, 9)
    times = np.linspace(0.0, 6.0, 400)
    corr = np.exp(-np.maximum(0.0, radii[:, None] - 2.0 * times[None, :]) / 0.25)
    arrivals, velocity = ql.fit_front(radii, times, corr, threshold=0.5)
    assert not np.any(np.isnan(arrivals))
    assert np.all(np.diff(arrivals) > 0)
    assert abs(velocity - 2.0) < 0.2


def test_fit_front_partial_arrivals():
    radii = np.arange(1, 6)
    times = np.linspace(0.0, 2.0, 300)
    corr = np.exp(-np.maximum(0.0, radii[:, None] - 2.0 * times[None, :]) / 0.25)
    arrivals, velocity = ql.fit_front(radii, times, corr, threshold=0.9)
    assert np.isnan(arrivals[-1])  # radius 5 needs t ~ 2.5, past the grid
    assert np.sum(~np.isnan(arrivals)) >= 3
    assert velocity > 0


def test_fit_front_too_few_crossings():
    radii = np.arange(1, 6)
    times = np.linspace(0.0, 1.0, 50)
    corr = np.full((5, 50), 1e-6)
    with pytest.raises(NoFrontDetected):
        ql.fit_front(radii, times, corr, threshold=0.5)


def test_light_cone_chain(quench8):
    front = ql.light_cone(quench8.eig, quench8.psi0, 0, ql.linear_grid(3.0, 61))
    assert front.radii == tuple(range(1, 8))
    assert np.max(front.correlator[:, 0]) < 1e-10  # product state at t = 0
    defined = front.arrival_times[~np.isnan(front.arrival_times)]
    assert defined.size >= 4
    # the reflected front can promote the final site ahead of its neighbor,
    # so monotone arrivals are only guaranteed away from the open end
    assert np.all(np.diff(defined[:-1]) >= 0)
    assert 1.0 < front.velocity < 8.0


def test_ring_light_cone_reads_each_ring_distance_once():
    # on a ring, radius r is the site r steps round from the reference
    params = ql.ChainParams(n_sites=8, boundary="periodic")
    eig = ql.diagonalize(ql.build_local_chain(params))
    psi0 = ql.product_state([UP] * 8)
    grid = ql.linear_grid(3.0, 61)
    front = ql.light_cone(eig, psi0, 6, grid, periodic=True)
    assert front.radii == (1, 2, 3, 4)
    assert front.velocity > 0
    # all_up on a ring is translation invariant: every reference site reads
    # the same correlator
    for ref in (0, 3):
        other = ql.light_cone(eig, psi0, ref, grid, periodic=True)
        assert np.max(np.abs(other.correlator - front.correlator)) < 1e-12


def test_light_cone_threshold_never_reached(quench8):
    # connected correlators of unit-norm spins are bounded by 2
    with pytest.raises(NoFrontDetected):
        ql.light_cone(quench8.eig, quench8.psi0, 0, ql.linear_grid(2.0, 20), threshold=3.0)


def test_light_cone_reports_a_non_positive_front(quench8, monkeypatch):
    def receding(radii, times, correlator, threshold):
        return np.full(len(radii), np.nan), -0.75

    monkeypatch.setattr("quenchlab.entanglement.fit_front", receding)
    with pytest.raises(NoFrontDetected, match="-0.75"):
        ql.light_cone(quench8.eig, quench8.psi0, 0, ql.linear_grid(3.0, 61))


def test_scans_reject_a_dimension_that_is_not_a_chain():
    eig = dense_eigensystem(np.arange(6.0), np.eye(6))
    psi0 = ql.product_state([UP] * 3)
    grid = ql.linear_grid(1.0, 5)
    with pytest.raises(DimensionMismatch, match="not a power of two"):
        ql.entropy_scan(eig, psi0, [1], grid)
    with pytest.raises(DimensionMismatch, match="not a power of two"):
        ql.light_cone(eig, psi0, 0, grid)


def test_light_cone_validation(quench6):
    grid = ql.linear_grid(1.0, 5)
    with pytest.raises(ValueError):
        ql.light_cone(quench6.eig, quench6.psi0, 6, grid)
    with pytest.raises(ValueError):
        ql.light_cone(quench6.eig, quench6.psi0, 5, grid)  # nothing to the right
    with pytest.raises(ValueError):
        ql.light_cone(quench6.eig, quench6.psi0, 0, grid, threshold=0.0)


def test_profile_shape_validation():
    grid = ql.TimeGrid(np.linspace(0.0, 1.0, 4))
    with pytest.raises(ValueError):
        ql.EntanglementProfile((1, 2), grid, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        ql.CorrelationFront(
            (1, 2), grid, np.zeros((2, 3)), np.zeros(2), 1.0, 0.01
        )
    with pytest.raises(ValueError):
        ql.CorrelationFront(
            (1, 2), grid, np.zeros((2, 4)), np.zeros(2), -1.0, 0.01
        )