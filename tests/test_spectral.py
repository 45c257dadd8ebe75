import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import quenchlab as ql
from oracles import (
    chain_matrix,
    dense_chain,
    dense_vectors,
    haar_unitary,
    householder_apply,
    householder_matrix,
    sector_matrix,
)
from quenchlab.errors import (
    DegenerateWidth,
    DimensionMismatch,
    TooFewOccupied,
)
from quenchlab.dynamics import _state_blocks
from quenchlab.spectral import _SQRT_HALF, _haar_reflectors, _ndtr, _overlaps


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
    assert np.allclose(np.abs(dense_vectors(eig)), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_diagonalize_pauli_x():
    sx = ql.HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(ql.diagonalize(sx).eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_diagonalize_reconstruction_64():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    m = (a + a.conj().T) / 2
    eig = ql.diagonalize(ql.HermitianOperator(m))
    v = dense_vectors(eig)
    rebuilt = v @ np.diag(eig.eigenvalues) @ v.conj().T
    assert np.linalg.norm(rebuilt - m) / np.linalg.norm(m) < 1e-10


def test_eigenbasis_diagonalizes_chain(quench6):
    eig, h = quench6.eig, quench6.chain.matrix
    v = dense_vectors(eig)
    d = v.conj().T @ h @ v
    off = d - np.diag(np.diagonal(d))
    assert np.max(np.abs(off)) < 1e-9 * np.linalg.norm(h, 2)


def test_occupied_spectrum_eigenstate(quench6):
    k = 7
    psi = ql.PureState(dense_vectors(quench6.eig)[:, k].astype(complex), ql.HilbertSpec(6))
    sdata = ql.occupied_spectrum(quench6.eig, psi)
    assert abs(sdata.weights[k] - 1.0) < 1e-12
    assert np.sum(sdata.weights > 1e-12) == 1


def test_occupied_spectrum_weights_oracle(quench8):
    c = dense_vectors(quench8.eig).conj().T @ quench8.psi0.amplitudes
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
        c = dense_vectors(eig).astype(complex).conj().T @ psi.amplitudes
        c = c / np.linalg.norm(c)
        sdata = ql.occupied_spectrum(eig, psi)
        assert np.max(np.abs(sdata.weights - np.abs(c) ** 2)) < 1e-15
        assert np.max(np.abs(sdata.amplitudes() - np.abs(c))) < 1e-15


def test_overlaps_of_a_complex_basis_match_the_conjugate_transpose(quench8):
    # psi0^dag V, conjugated, against the copied V^dag applied to psi0
    eig = ql.scramble(quench8.eig, 3)
    for psi in (quench8.psi0, complex_product_state(8)):
        want = dense_vectors(eig).conj().T @ psi.amplitudes
        assert np.max(np.abs(_overlaps(eig, psi) - want)) < 1e-15


PHASE_GRID = ql.linear_grid(3.0, ql.dynamics.EVOLVE_BLOCK + 6)


@pytest.mark.parametrize("variant", ["local", "scrambled"])
def test_site_readers_do_not_depend_on_the_eigenvector_gauge(monkeypatch, quench8, variant):
    # V D with D a random unit diagonal is the same eigensystem in another
    # gauge: weights, entropy scans, light-cone correlators and local series
    # agree. A scrambled chain has no front, and the fit of one may fail, so
    # the correlator is read with the front fit stubbed out.
    monkeypatch.setattr(ql.entanglement, "fit_front", lambda radii, *_: (np.zeros(len(radii)), 1.0))
    eig = quench8.eig if variant == "local" else ql.scramble(quench8.eig, 3)
    unit = np.exp(1j * np.random.default_rng(9).uniform(-np.pi, np.pi, eig.dim))
    regauged = ql.EigenSystem(eig.eigenvalues, dense_vectors(eig) * unit)
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
    c = dense_vectors(quench6.eig).conj().T @ quench6.psi0.amplitudes
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

    u = haar_unitary(16, rng)
    m = u @ chain_matrix(h) @ u.conj().T
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
    # oracle: the chain's dense H conjugated by U = W V^dag, with W the
    # seed's Haar basis multiplied out from its reflectors and V the chain's
    # eigenvectors
    w = householder_matrix(_haar_reflectors(quench6.eig.dim, 5, real=False))
    u = w @ dense_vectors(quench6.eig).conj().T
    dense = u @ quench6.chain.matrix @ u.conj().T
    s = ql.scramble(quench6.eig, seed=5)
    w = dense_vectors(s)
    assert np.array_equal(s.eigenvalues, quench6.eig.eigenvalues)
    assert np.max(np.abs((w * s.eigenvalues[None, :]) @ w.conj().T - dense)) < 1e-10
    assert np.max(np.abs(w.conj().T @ w - np.eye(s.dim))) < 1e-12
    assert dense_vectors(ql.scramble(quench6.eig, seed=5)).tobytes() == w.tobytes()
    assert not np.array_equal(dense_vectors(ql.scramble(quench6.eig, seed=6)), w)


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
    # oracle: the dense eigh of the oracle's dense chain matrix, against the
    # V written from the sector factors
    params = ql.ChainParams(n_sites=n, boundary=boundary)
    chain = ql.build_local_chain(params)
    assert isinstance(chain, ql.ReflectionChain) and chain.n_sites == n
    eig = ql.diagonalize(chain)
    h = dense_chain(params).matrix
    dense = ql.diagonalize(ql.HermitianOperator(h))
    e, v = eig.eigenvalues, dense_vectors(eig)
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
        (lambda: dense_chain(ql.ChainParams(n_sites=7)), [128]),
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
        ql.ReflectionChain(3, np.zeros(4), -1.0)


def _test_vectors(rng, dim: int, columns) -> np.ndarray:
    shape = (dim,) if columns is None else (dim, columns)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("n", range(2, 11))
def test_sector_vectors_match_their_dense_form(n, boundary):
    # oracle: V written column by column from the same factors, against the
    # products on vectors and on blocks of 1, 64 and 100 columns
    eig = ql.diagonalize(ql.build_local_chain(ql.ChainParams(n_sites=n, boundary=boundary)))
    vectors = eig.eigenvectors
    assert isinstance(vectors, ql.SectorVectors)
    v = sector_matrix(vectors)
    rng = np.random.default_rng(n)
    for columns in (None, 1, 64, 100):
        x = _test_vectors(rng, eig.dim, columns)
        for y in (x, x.real.copy()):
            got = vectors.apply(y)
            assert got.shape == y.shape and np.iscomplexobj(got) == np.iscomplexobj(y)
            assert np.max(np.abs(got - v @ y)) < 1e-12
            assert np.max(np.abs(vectors.apply_adjoint(y) - v.T @ y)) < 1e-12
    # a block of columns is gathered from the factors, with no product
    for block in (slice(0, 1), slice(0, 64), slice(eig.dim // 3, eig.dim // 3 + 100)):
        assert np.array_equal(vectors.columns(block), v[:, block])


def _mirror_state(n: int, sign: float, seed: int) -> ql.PureState:
    """A random state that the site reflection maps to sign times itself."""
    rng = np.random.default_rng(seed)
    v = _test_vectors(rng, 2**n, None)
    v = v + sign * v[_bit_reversal(n)]
    return ql.PureState(v / np.linalg.norm(v), ql.HilbertSpec(n))


def _sector_levels(vectors: ql.SectorVectors) -> dict:
    n_even = vectors.pairs.size + vectors.palindromes.size
    return {"even": vectors.levels[:n_even], "odd": vectors.levels[n_even:]}


@pytest.mark.parametrize(
    "n, boundary, state, empty",
    [
        (7, "open", "neel", "odd"),
        (8, "periodic", "all_plus_x", "odd"),
        (6, "open", "symmetric", "odd"),
        (6, "open", "antisymmetric", "even"),
        (7, "open", "antisymmetric", "even"),
    ],
)
def test_a_sector_the_state_leaves_empty_keeps_its_eigenvalues_only(n, boundary, state, empty):
    # oracle: the same chain with both sectors solved; a reflection-symmetric
    # state leaves the odd sector empty, an antisymmetric one the even sector
    if state == "neel":
        psi0 = ql.product_state([(1, 0) if j % 2 == 0 else (0, 1) for j in range(n)])
    elif state == "all_plus_x":
        psi0 = ql.product_state([(_SQRT_HALF, _SQRT_HALF)] * n)
    else:
        psi0 = _mirror_state(n, 1.0 if state == "symmetric" else -1.0, seed=n)
    chain = ql.build_local_chain(ql.ChainParams(n_sites=n, boundary=boundary))
    full, eig = ql.diagonalize(chain), ql.diagonalize(chain, psi0)
    vectors = eig.eigenvectors
    assert (vectors.u_even is None, vectors.u_odd is None) == (empty == "even", empty == "odd")
    scale = np.max(np.abs(full.eigenvalues))
    assert np.max(np.abs(eig.eigenvalues - full.eigenvalues)) <= 1e-12 * scale
    weights = ql.occupied_spectrum(eig, psi0).weights
    assert np.all(weights[_sector_levels(vectors)[empty]] == 0.0)
    assert np.max(np.abs(weights - ql.occupied_spectrum(full, psi0).weights)) < 1e-12
    # the evolved states, which read both products, agree with the full route
    grid = ql.linear_grid(2.0, 5)
    got = np.concatenate([states for _, states in _state_blocks(eig, psi0, grid)], axis=1)
    want = np.concatenate([states for _, states in _state_blocks(full, psi0, grid)], axis=1)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("empty", ["even", "odd"])
def test_reads_of_an_unsolved_sector_stay_exact_or_raise(empty):
    # oracle: the same sector factors with both blocks kept
    n = 6
    full = ql.diagonalize(ql.build_local_chain(ql.ChainParams(n_sites=n))).eigenvectors
    blocks = {"even": full.u_even, "odd": full.u_odd, empty: None}
    half = ql.SectorVectors(n, blocks["even"], blocks["odd"], full.levels)
    kept = "odd" if empty == "even" else "even"
    levels = _sector_levels(full)
    rng = np.random.default_rng(3)
    # level-basis input with zero rows at the empty sector's levels: apply
    # skips that product, and the rows it stands for are 0
    x = _test_vectors(rng, full.dim, 5)
    x[levels[empty]] = 0.0
    assert np.array_equal(half.apply(x), full.apply(x))
    x[levels[empty][0], 2] = 1e-300
    with pytest.raises(ValueError, match=f"unsolved {empty} sector"):
        half.apply(x)
    # site-basis input without amplitude in the empty sector
    y = _mirror_state(n, 1.0 if empty == "odd" else -1.0, seed=4).amplitudes
    got = half.apply_adjoint(y)
    assert np.array_equal(got, full.apply_adjoint(y))
    assert np.all(got[levels[empty]] == 0.0)
    with pytest.raises(ValueError, match=f"unsolved {empty} sector"):
        half.apply_adjoint(_test_vectors(rng, full.dim, None))
    # columns: exact at the kept sector's levels, refused at the empty one's
    assert np.array_equal(half.columns(levels[kept]), full.columns(levels[kept]))
    with pytest.raises(ValueError, match=f"unsolved {empty} sector"):
        half.columns(slice(0, full.dim))


def test_diagonalize_state_must_fit_the_chain():
    chain = ql.build_local_chain(ql.ChainParams(n_sites=6))
    with pytest.raises(DimensionMismatch):
        ql.diagonalize(chain, ql.product_state([(1, 0)] * 5))


def _chain_eig(**params) -> ql.EigenSystem:
    return ql.diagonalize(ql.build_local_chain(ql.ChainParams(**params)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: _chain_eig(n_sites=4),
        lambda: _chain_eig(n_sites=7, boundary="periodic"),
        lambda: _chain_eig(n_sites=8),
        lambda: _chain_eig(n_sites=6, disorder_width=0.5, seed=2),
        lambda: ql.diagonalize(ql.build_goe(64, 0.0, 1.0, seed=3)),
        lambda: ql.EigenSystem(np.arange(16.0), SimpleNamespace(dim=16)),
    ],
    ids=["open4", "periodic7", "open8", "disordered6", "goe64", "no_reads"],
)
def test_scramble_matches_the_dense_haar_product(build):
    # the seed draws the scrambled eigenvectors themselves, whatever form
    # (sector or dense) the input's eigenvectors take; no_reads holds
    # eigenvectors with a dimension and nothing to read. Oracle: the
    # complex reflectors the seed draws, multiplied out densely, against
    # the scrambled eigenvectors applied to the identity
    eig = build()
    got = ql.scramble(eig, seed=11)
    want = householder_matrix(_haar_reflectors(eig.dim, 11, real=False))
    assert got.eigenvalues.tobytes() == eig.eigenvalues.tobytes()
    assert isinstance(got.eigenvectors, ql.HouseholderVectors)
    assert np.iscomplexobj(got.eigenvectors.phases)
    assert np.max(np.abs(got.eigenvectors.apply(np.eye(eig.dim)) - want)) < 1e-12


def _fourth_moment_error(w: np.ndarray, real: bool) -> float:
    """Relative distance of the mean |W_ij|^4 from its Haar value.

    That value is 2 / (d (d + 1)) on the unitary group and 3 / (d (d + 2))
    on the orthogonal group.
    """
    d = w.shape[0]
    haar = 3.0 / (d * (d + 2)) if real else 2.0 / (d * (d + 1))
    return abs(np.mean(np.abs(w) ** 4) / haar - 1.0)


def test_scrambled_eigenvectors_carry_the_haar_moments():
    # The mean |W_ij|^2 is exactly 1/d for any unitary. At d = 256 the mean
    # |W_ij|^4 of Haar unitaries spreads by 0.22% (one standard deviation
    # over 40 seeds) around 2 / (d (d + 1)), and that of Haar orthogonal
    # matrices by 0.6% around 3 / (d (d + 2)), so the tolerance is 5%. The
    # orthogonal value 3 / (d (d + 2)) lies 49% above the unitary one, so
    # each draw fails the other's check: the complex draw of scramble and
    # the real draw of the GOE partner.
    eig = _chain_eig(n_sites=8)
    d = eig.dim
    assert d == 256
    op = ql.build_goe(d, 0.0, 1.0, seed=424242)
    for real, draw in ((False, ql.scramble(eig, seed=20240817)),
                       (True, ql.goe_eigensystem(op, seed=424243))):
        w = dense_vectors(draw)
        assert np.iscomplexobj(w) != real
        assert np.max(np.abs(w.conj().T @ w - np.eye(d))) < 1e-12
        assert abs(np.mean(np.abs(w) ** 2) * d - 1.0) < 1e-12
        assert _fourth_moment_error(w, real) < 0.05
        assert _fourth_moment_error(w, not real) > 0.3
        # E |tr W|^2 = 1 on both groups (Diaconis & Shahshahani 1994). The
        # fourth moments cannot see the phases of R's diagonal; without
        # them the trace reads about -10 here.
        assert abs(np.trace(w)) < 4.0


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("dim", [2, 3, 16, 64, 65, 66, 129, 256])
def test_householder_vectors_match_their_dense_form(dim, real):
    # oracle: V multiplied out reflector by reflector from the same draw,
    # against the panel products on vectors and on blocks of 1, 64 and 100
    # columns, and against the columns read through the panels
    vectors = _haar_reflectors(dim, dim, real)
    assert np.iscomplexobj(vectors.phases) != real
    v = householder_matrix(vectors)
    assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-13
    rng = np.random.default_rng(dim)
    for columns in (None, 1, 64, 100):
        x = _test_vectors(rng, dim, columns)
        for y in (x, x.real.copy()):
            for got, want in ((vectors.apply(y), v @ y), (vectors.apply_adjoint(y), v.conj().T @ y)):
                assert got.shape == y.shape
                assert np.iscomplexobj(got) == (np.iscomplexobj(y) or not real)
                assert np.max(np.abs(got - want)) < 1e-12
        # the oracle's two routes, the dense V and one reflector at a time, agree
        assert np.max(np.abs(householder_apply(vectors, x) - v @ x)) < 1e-12
        assert np.max(np.abs(householder_apply(vectors, x, adjoint=True) - v.conj().T @ x)) < 1e-12
    for block in (slice(0, 1), slice(0, 64), slice(dim // 3, dim // 3 + 100), slice(dim - 1, dim)):
        got = vectors.columns(block)
        assert got.dtype == v.dtype and got.shape == v[:, block].shape
        assert np.max(np.abs(got - v[:, block])) < 1e-12


def test_goe_partner_takes_the_eigenvalues_of_its_matrix():
    # eigvalsh of the moment-matched draw, no eigenvector solve: the
    # eigenvectors are a real Haar draw of their own seed
    mean, width = -1.5, 2.25
    op = ql.build_goe(300, mean, width, seed=5)
    eig = ql.goe_eigensystem(op, seed=6)
    assert eig.eigenvalues.tobytes() == np.linalg.eigvalsh(op.matrix).tobytes()
    assert abs(eig.eigenvalues.mean() - mean) < 1e-9
    assert abs(eig.eigenvalues.std() - width) < 1e-9
    assert isinstance(eig.eigenvectors, ql.HouseholderVectors)
    assert not np.iscomplexobj(eig.eigenvectors.phases)
    again = ql.goe_eigensystem(op, seed=6).eigenvectors
    assert np.array_equal(again.apply(np.eye(300)), eig.eigenvectors.apply(np.eye(300)))
    other = ql.goe_eigensystem(op, seed=7).eigenvectors
    assert not np.array_equal(other.phases, eig.eigenvectors.phases)


def test_scramble_stays_below_one_dense_complex_matrix():
    # the reflectors fill half of a dim^2 complex matrix; a dense W, or the
    # Ginibre matrix of a QR, would fill all of it
    n = 10
    eig = _chain_eig(n_sites=n)
    tracemalloc.start()
    try:
        ql.scramble(eig, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4**n


def test_clean_chain_spectrum_stays_below_one_dense_matrix():
    # H and V both dense would hold two dim^2 float64 matrices and more
    n = 10
    psi0 = ql.product_state([(1, 0) if j % 2 == 0 else (0, 1) for j in range(n)])
    tracemalloc.start()
    try:
        eig = ql.diagonalize(ql.build_local_chain(ql.ChainParams(n_sites=n)))
        ql.occupied_spectrum(eig, psi0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4**n
