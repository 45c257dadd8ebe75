import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import quenchlab as ql
from quenchlab.errors import (
    DegenerateWidth,
    DimensionMismatch,
    TooFewOccupied,
)
from quenchlab.spectral import _ndtr, _overlaps


def two_level_data(omega: float) -> ql.SpectralData:
    return ql.SpectralData(np.array([-omega / 2, omega / 2]), np.array([0.5, 0.5]))


def test_eigen_system_requires_ascending():
    with pytest.raises(ValueError):
        ql.EigenSystem(np.array([2.0, 1.0]), np.eye(2))
    with pytest.raises(DimensionMismatch):
        ql.EigenSystem(np.array([1.0, 2.0]), np.eye(3))


def test_spectral_data_validation():
    with pytest.raises(ValueError):
        ql.SpectralData(np.zeros(2), np.array([0.7, 0.7]))
    with pytest.raises(DimensionMismatch):
        ql.SpectralData(np.zeros(3), np.array([0.5, 0.5]))


def test_diagonalize_diagonal_input():
    eig = ql.diagonalize(ql.HermitianOperator(np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
    # permutation eigenvectors up to sign
    assert np.allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_diagonalize_pauli_x():
    sx = ql.HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(ql.diagonalize(sx).eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_diagonalize_reconstruction_64():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    m = (a + a.conj().T) / 2
    eig = ql.diagonalize(ql.HermitianOperator(m))
    rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - m) / np.linalg.norm(m) < 1e-10


def test_eigenbasis_diagonalizes_chain(quench6):
    eig, h = quench6.eig, quench6.chain.matrix
    d = eig.eigenvectors.conj().T @ h @ eig.eigenvectors
    off = d - np.diag(np.diagonal(d))
    assert np.max(np.abs(off)) < 1e-9 * np.linalg.norm(h, 2)


def test_occupied_spectrum_eigenstate(quench6):
    k = 7
    psi = ql.PureState(quench6.eig.eigenvectors[:, k].astype(complex), ql.HilbertSpec(6))
    sdata = ql.occupied_spectrum(quench6.eig, psi)
    assert abs(sdata.weights[k] - 1.0) < 1e-12
    assert np.sum(sdata.weights > 1e-12) == 1


def test_occupied_spectrum_weights_oracle(quench8):
    c = quench8.eig.eigenvectors.conj().T @ quench8.psi0.amplitudes
    assert np.max(np.abs(quench8.sdata.weights - np.abs(c) ** 2)) < 1e-12
    assert abs(quench8.sdata.weights.sum() - 1.0) < 1e-10


def complex_product_state(n: int) -> ql.PureState:
    rng = np.random.default_rng(8)
    sites = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return ql.product_state(sites / np.linalg.norm(sites, axis=1, keepdims=True))


@pytest.mark.parametrize("variant", ["local", "scrambled"])
def test_occupied_spectrum_matches_complex_projection(quench8, variant):
    # real eigenvectors take two real products; the oracle casts V to complex
    eig = quench8.eig if variant == "local" else ql.scramble(quench8.eig, 3)
    for psi in (quench8.psi0, complex_product_state(8)):
        c = eig.eigenvectors.astype(complex).conj().T @ psi.amplitudes
        c = c / np.linalg.norm(c)
        sdata = ql.occupied_spectrum(eig, psi)
        assert np.max(np.abs(sdata.weights - np.abs(c) ** 2)) < 1e-15
        assert np.max(np.abs(sdata.amplitudes() - np.abs(c))) < 1e-15


def test_overlaps_of_a_complex_basis_match_the_conjugate_transpose(quench8):
    # psi0^dag V, conjugated, against the copied V^dag applied to psi0
    eig = ql.scramble(quench8.eig, 3)
    for psi in (quench8.psi0, complex_product_state(8)):
        want = eig.eigenvectors.conj().T @ psi.amplitudes
        assert np.max(np.abs(_overlaps(eig, psi) - want)) < 1e-15


PHASE_GRID = ql.linear_grid(3.0, ql.dynamics.EVOLVE_BLOCK + 6)


@pytest.mark.parametrize("variant", ["local", "scrambled"])
def test_site_readers_do_not_depend_on_the_eigenvector_gauge(quench8, variant):
    # V D with D a random unit diagonal is the same eigensystem in another
    # gauge: weights, entropy scans, light cones and local series agree
    eig = quench8.eig if variant == "local" else ql.scramble(quench8.eig, 3)
    unit = np.exp(1j * np.random.default_rng(9).uniform(-np.pi, np.pi, eig.dim))
    regauged = ql.EigenSystem(eig.eigenvalues, eig.eigenvectors * unit)
    cuts = range(1, 8)
    for psi in (quench8.psi0, complex_product_state(8)):
        readers = [
            lambda e: ql.occupied_spectrum(e, psi).weights,
            lambda e: ql.entropy_scan(e, psi, cuts, PHASE_GRID).entropies,
            lambda e: ql.light_cone(e, psi, 0, PHASE_GRID, threshold=1e-3).correlator,
        ]
        paulis = [(site, axis) for site in (0, 5) for axis in ("x", "y", "z")]
        readers.append(
            lambda e: np.array([s.values for s in ql.local_series(e, psi, paulis, PHASE_GRID)])
        )
        for read in readers:
            assert np.max(np.abs(read(regauged) - read(eig))) < 1e-14


def test_occupied_spectrum_dimension_mismatch(quench6):
    psi = ql.product_state([(1, 0)] * 4)
    with pytest.raises(DimensionMismatch):
        ql.occupied_spectrum(quench6.eig, psi)


def test_amplitudes_round_trip(quench6):
    c = quench6.eig.eigenvectors.conj().T @ quench6.psi0.amplitudes
    assert np.max(np.abs(quench6.sdata.amplitudes() - np.abs(c))) < 1e-10


def test_timescales_eigenstate_is_degenerate():
    data = ql.SpectralData(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    with pytest.raises(DegenerateWidth):
        ql.timescales(data)


def test_timescales_two_level():
    ts = ql.timescales(two_level_data(omega=3.0))
    assert abs(ts.energy_width - 1.5) < 1e-14
    assert ts.boltzmann_time == 1.0 / ts.energy_width
    assert abs(ts.boltzmann_time - 2.0 / 3.0) < 1e-14
    assert abs(ts.mean_occupied_spacing - 3.0) < 1e-14
    assert ts.heisenberg_time == 1.0 / ts.mean_occupied_spacing


def test_timescales_too_few_occupied():
    data = ql.SpectralData(
        np.array([0.0, 1.0, 5.0]),
        np.array([1.0 - 2e-9, 1e-9, 1e-9]),
    )
    with pytest.raises(TooFewOccupied):
        ql.timescales(data, weight_floor=1e-8)


def test_timescales_moment_oracle(quench10):
    h = quench10.chain.matrix
    psi = quench10.psi0.amplitudes
    hpsi = h @ psi
    mean = np.vdot(psi, hpsi).real
    width = np.sqrt(np.vdot(hpsi, hpsi).real - mean**2)
    assert abs(quench10.ts.energy_mean - mean) < 1e-8
    assert abs(quench10.ts.energy_width - width) < 1e-8


def test_timescales_variance_identity(quench8):
    e, w = quench8.sdata.eigenvalues, quench8.sdata.weights
    var = float(np.sum(w * e**2) - np.sum(w * e) ** 2)
    assert abs(quench8.ts.energy_width**2 - var) < 1e-9 * max(var, 1.0)


def test_dos_fit_synthetic_gaussian():
    e = np.linspace(-5.0, 5.0, 2001)
    w = np.exp(-(e**2) / 2.0)
    w /= w.sum()
    data = ql.SpectralData(e, w)
    fit = ql.dos_fit(data, weight_floor=0.0)
    assert abs(fit.mean) < 1e-12
    assert abs(fit.sigma - 1.0) < 1e-3
    assert abs(fit.skewness) < 0.02
    assert abs(fit.excess_kurtosis) < 0.05
    assert fit.max_cdf_deviation < 0.01


def test_dos_fit_bernoulli_kurtosis():
    # two energy values, ten levels, so the >= 10 occupied precondition holds
    e = np.array([-1.0] * 5 + [1.0] * 5)
    w = np.full(10, 0.1)
    fit = ql.dos_fit(ql.SpectralData(e, w), weight_floor=0.0)
    assert abs(fit.excess_kurtosis - (-2.0)) < 1e-12
    assert abs(fit.skewness) < 1e-12


def test_ndtr_matches_scipy_oracle():
    rng = np.random.default_rng(7)
    draws = rng.standard_normal(100000) * np.repeat([1.0, 8.0], 50000)
    z = np.concatenate([np.linspace(-40.0, 40.0, 200001), draws])
    ours = np.array([_ndtr(v) for v in z.tolist()])
    assert np.max(np.abs(ours - ndtr(z))) <= 4.5e-16


def test_dos_fit_too_few_levels():
    data = two_level_data(1.0)
    with pytest.raises(TooFewOccupied):
        ql.dos_fit(data)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_scrambling_invariance(seed):
    # conjugating H and co-rotating psi0 must leave all spectral data intact
    params = ql.ChainParams(n_sites=4)
    h = ql.build_local_chain(params)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    spec = ql.HilbertSpec(4)

    eig = ql.diagonalize(h)
    base = ql.occupied_spectrum(eig, ql.PureState(psi, spec))

    u = ql.haar_unitary(16, rng)
    m = u @ h.matrix @ u.conj().T
    eig2 = ql.diagonalize(ql.HermitianOperator((m + m.conj().T) / 2))
    rotated = ql.occupied_spectrum(eig2, ql.PureState(u @ psi, spec))

    assert np.max(np.abs(base.eigenvalues - rotated.eigenvalues)) < 1e-9
    assert np.max(np.abs(base.weights - rotated.weights)) < 1e-9
    t1, t2 = ql.timescales(base), ql.timescales(rotated)
    assert abs(t1.energy_width - t2.energy_width) < 1e-9
    assert abs(t1.mean_occupied_spacing - t2.mean_occupied_spacing) < 1e-9


def test_occupied_spacing_shrinks_with_size(quench6, quench8, quench10):
    d6 = quench6.ts.mean_occupied_spacing
    d8 = quench8.ts.mean_occupied_spacing
    d10 = quench10.ts.mean_occupied_spacing
    assert d6 > d8 > d10
    # the occupied span grows linearly while the count grows exponentially,
    # so the ratio over four added sites lands just above 0.1
    assert d10 / d6 < 0.11


def test_factored_scramble_matches_dense_conjugation(quench6):
    # oracle: the dense U H U^dag with the same seeded Haar unitary
    u = ql.haar_unitary(quench6.eig.dim, np.random.default_rng(5))
    dense = u @ quench6.chain.matrix @ u.conj().T
    s = ql.scramble(quench6.eig, seed=5)
    w = s.eigenvectors
    assert np.array_equal(s.eigenvalues, quench6.eig.eigenvalues)
    assert np.max(np.abs((w * s.eigenvalues[None, :]) @ w.conj().T - dense)) < 1e-10
    assert np.max(np.abs(w.conj().T @ w - np.eye(s.dim))) < 1e-12
    assert ql.scramble(quench6.eig, seed=5).eigenvectors.tobytes() == w.tobytes()
    assert not np.array_equal(ql.scramble(quench6.eig, seed=6).eigenvectors, w)


NAN = float("nan")
NAN_2X2 = np.full((2, 2), NAN)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ql.ChainParams(n_sites=3, J=NAN),
        lambda: ql.ChainParams(n_sites=3, h=float("inf")),
        lambda: ql.HermitianOperator(NAN_2X2),
        lambda: ql.ObservableMatrix(NAN_2X2),
        lambda: ql.SpectralData([0.0, 1.0], [NAN, NAN]),
        lambda: ql.SpectralData([0.0, NAN], [0.5, 0.5]),
        lambda: ql.EigenSystem([0.0, NAN], np.eye(2)),
        lambda: ql.EigenSystem([0.0, 1.0], NAN_2X2),
    ],
    ids=[
        "chain_J", "chain_h", "hermitian", "observable", "spectral_weights",
        "spectral_eigenvalues", "eigen_values", "eigen_vectors",
    ],
)
def test_value_objects_reject_non_finite(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def _bit_reversal(n: int) -> np.ndarray:
    return np.array([int(format(i, f"0{n}b")[::-1], 2) for i in range(2**n)])


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("n", range(2, 11))
def test_reflection_sectors_match_the_dense_eigh(n, boundary):
    # oracle: the dense eigh of the same matrix without the reflection mark
    chain = ql.build_local_chain(ql.ChainParams(n_sites=n, boundary=boundary))
    assert chain.reflection_sites == n
    eig = ql.diagonalize(chain)
    dense = ql.diagonalize(ql.HermitianOperator(chain.matrix))
    e, v, h = eig.eigenvalues, eig.eigenvectors, chain.matrix
    assert np.max(np.abs(e - dense.eigenvalues)) <= 1e-12 * np.max(np.abs(dense.eigenvalues))
    assert np.max(np.abs(h @ v - v * e)) < 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(eig.dim))) < 1e-12
    # every eigenvector is even or odd under the site reflection
    mirrored = v[_bit_reversal(n)]
    even = np.max(np.abs(mirrored - v), axis=0) == 0.0
    odd = np.max(np.abs(mirrored + v), axis=0) == 0.0
    assert np.all(even ^ odd)
    palindromes = 2 ** ((n + 1) // 2)
    assert int(even.sum()) == (eig.dim + palindromes) // 2


def _eigh_sizes(monkeypatch) -> list[int]:
    sizes = []
    eigh = np.linalg.eigh

    def recording(a):
        sizes.append(a.shape[0])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


@pytest.mark.parametrize(
    "build, sizes",
    [
        (lambda: ql.build_local_chain(ql.ChainParams(n_sites=7)), [72, 56]),
        (lambda: ql.build_local_chain(ql.ChainParams(n_sites=6, boundary="periodic")), [36, 28]),
        (lambda: ql.build_local_chain(ql.ChainParams(n_sites=7, disorder_width=0.5)), [128]),
        (lambda: ql.HermitianOperator(ql.build_local_chain(ql.ChainParams(n_sites=7)).matrix), [128]),
        (lambda: ql.build_goe(128, 0.0, 1.0, seed=3), [128]),
    ],
    ids=["clean_open", "clean_periodic", "disordered", "hand_built", "goe"],
)
def test_only_clean_chains_take_the_reflection_sectors(monkeypatch, build, sizes):
    op = build()
    calls = _eigh_sizes(monkeypatch)
    ql.diagonalize(op)
    assert calls == sizes


def test_reflection_mark_must_fit_the_dimension():
    with pytest.raises(ValueError, match="not a chain of 3 sites"):
        ql.HermitianOperator(np.eye(4), reflection_sites=3)
