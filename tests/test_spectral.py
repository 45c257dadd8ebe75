import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import quenchlab as ql
from conftest import neel_state
from oracles import (
    chain_matrix,
    dense_chain,
    dense_eigensystem,
    dense_vectors,
    eigensystem,
    goe_tridiagonal,
    haar_panel_matrix,
    haar_unitary,
    householder_apply,
    householder_matrix,
    sector_matrix,
    symmetric_gaussian,
)
from quenchlab.errors import (
    DegenerateWidth,
    DimensionMismatch,
    TooFewOccupied,
)
from quenchlab.core import _built
from quenchlab.dynamics import _state_blocks
from quenchlab import _lapack
from quenchlab.spectral import (
    _SQRT_HALF,
    _HaarFrame,
    _goe_tridiagonal,
    _haar_reflectors,
    _ndtr,
    _overlaps,
)


def two_level_data(omega: float) -> ql.SpectralData:
    return ql.SpectralData(np.array([-omega / 2, omega / 2]), np.array([0.5, 0.5]))


def test_eigen_system_requires_ascending():
    with pytest.raises(ValueError):
        dense_eigensystem(np.array([2.0, 1.0]), np.eye(2))
    with pytest.raises(DimensionMismatch):
        dense_eigensystem(np.array([1.0, 2.0]), np.eye(3))


def test_eigen_system_refuses_a_bare_array():
    # dense eigenvector columns are a test oracle's form (see oracles.DenseVectors)
    with pytest.raises(TypeError, match="not an array"):
        ql.EigenSystem(np.arange(2.0), np.eye(2))


def test_spectral_data_validation():
    with pytest.raises(ValueError):
        ql.SpectralData(np.zeros(2), np.array([0.7, 0.7]))
    with pytest.raises(DimensionMismatch):
        ql.SpectralData(np.zeros(3), np.array([0.5, 0.5]))


def test_diagonalize_diagonal_input():
    # no transverse field: the chain is its diagonal, here not reflection invariant
    eig = ql.diagonalize(ql.SpinChain(2, np.array([3.0, 1.0, 2.0, 5.0]), 0.0))
    assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0, 5.0], atol=1e-14)
    # permutation eigenvectors up to sign
    assert np.allclose(np.abs(dense_vectors(eig)), np.eye(4)[:, [1, 2, 0, 3]], atol=1e-14)


def test_diagonalize_pauli_x():
    sx = ql.SpinChain(1, np.zeros(2), 1.0)
    assert np.allclose(ql.diagonalize(sx).eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_diagonalize_reconstruction_64():
    rng = np.random.default_rng(8)
    chain = ql.SpinChain(6, rng.standard_normal(64), -0.7)
    m = chain_matrix(chain)
    eig = ql.diagonalize(chain)
    v = dense_vectors(eig)
    rebuilt = v @ np.diag(eig.eigenvalues) @ v.conj().T
    assert np.linalg.norm(rebuilt - m) / np.linalg.norm(m) < 1e-10


@pytest.mark.parametrize("n", [3, 6])
def test_a_chain_whose_diagonal_breaks_the_reflection_is_solved_whole(n):
    # the diagonal 0, 1, 2, ... is not reflection invariant; solved in the
    # reflection sectors, as a chain once was whatever its diagonal, its
    # levels missed the dense ones by up to 1.91 at n = 3. Oracle: the dense
    # eigh of the chain's matrix
    chain = ql.SpinChain(n, np.arange(2.0**n), -1.0)
    h = chain_matrix(chain)
    eig = ql.diagonalize(chain)
    want = np.linalg.eigvalsh(h)
    assert np.max(np.abs(eig.eigenvalues - want)) < 1e-12
    v = eig.eigenvectors.columns(slice(None))
    assert np.max(np.abs(h @ v - v * eig.eigenvalues)) < 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(eig.dim))) < 1e-12
    # a nondegenerate spectrum: each column is the dense eigenvector up to sign
    assert np.min(np.diff(want)) > 1e-3
    assert np.max(np.abs(np.abs(np.linalg.eigh(h)[1].T @ v) - np.eye(eig.dim))) < 1e-12


def test_eigenbasis_diagonalizes_chain(quench6):
    eig, h = quench6.eig, quench6.chain
    v = dense_vectors(eig)
    d = v.conj().T @ h @ v
    off = d - np.diag(np.diagonal(d))
    assert np.max(np.abs(off)) < 1e-9 * np.linalg.norm(h, 2)


def test_occupied_spectrum_eigenstate(quench6):
    k = 7
    psi = ql.PureState(dense_vectors(quench6.eig)[:, k].astype(complex))
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
    regauged = dense_eigensystem(eig.eigenvalues, dense_vectors(eig) * unit)
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
    h = quench10.chain
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

    eig = ql.diagonalize(h)
    base = ql.occupied_spectrum(eig, ql.PureState(psi))

    u = haar_unitary(16, rng)
    m = u @ chain_matrix(h) @ u.conj().T
    eig2 = eigensystem((m + m.conj().T) / 2)
    rotated = ql.occupied_spectrum(eig2, ql.PureState(u @ psi))

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
    # seed's Haar basis replayed from the documented panel draw and V the
    # chain's eigenvectors
    w = haar_panel_matrix(quench6.eig.dim, 5, real=False)
    u = w @ dense_vectors(quench6.eig).conj().T
    dense = u @ quench6.chain @ u.conj().T
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
        lambda: ql.SpinChain(1, np.array([NAN, 0.0]), -1.0),
        lambda: ql.SpectralData([0.0, 1.0], [NAN, NAN]),
        lambda: ql.SpectralData([0.0, NAN], [0.5, 0.5]),
        lambda: dense_eigensystem([0.0, NAN], np.eye(2)),
        lambda: dense_eigensystem([0.0, 1.0], NAN_2X2),
    ],
    ids=[
        "chain_J", "chain_h", "spin_chain", "spectral_weights",
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
    eig = ql.diagonalize(chain)
    assert eig.eigenvectors.pairs.size > 0 and chain.n_sites == n
    h = dense_chain(params)
    dense = eigensystem(h)
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
    eigh = _lapack.eigh

    def recording(a, **route):
        sizes.append(a.shape[0])
        return eigh(a, **route)

    monkeypatch.setattr(_lapack, "eigh", recording)
    return sizes


def _chain(**params) -> ql.SpinChain:
    return ql.build_local_chain(ql.ChainParams(**params))


@pytest.mark.parametrize(
    "solve, sizes",
    [
        (lambda: ql.diagonalize(_chain(n_sites=7)), [72, 56]),
        (lambda: ql.diagonalize(_chain(n_sites=6, boundary="periodic")), [36, 28]),
        (lambda: ql.diagonalize(_chain(n_sites=7, g=0.3)), [72, 56]),
        (lambda: ql.diagonalize(_chain(n_sites=7, disorder_width=0.5)), [128, 0]),
        (lambda: ql.diagonalize(ql.SpinChain(7, np.arange(128.0), -1.0)), [128, 0]),
        (lambda: ql.goe_eigensystem(128, seed=3), []),
    ],
    ids=["clean_open", "clean_periodic", "clean_rounded", "disordered", "hand_built", "goe"],
)
def test_only_clean_chains_take_the_reflection_sectors(monkeypatch, solve, sizes):
    # a chain whose diagonal breaks the reflection is one block, the odd
    # one empty; the GOE partner takes no eigh at all (dsterf of its model)
    calls = _eigh_sizes(monkeypatch)
    solve()
    assert calls == sizes


def test_reflection_mark_must_fit_the_dimension():
    with pytest.raises(ValueError, match="not a chain of 3 sites"):
        ql.SpinChain(3, np.zeros(4), -1.0)


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
    return ql.PureState(v / np.linalg.norm(v))


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
    half = _built(
        ql.SectorVectors, blocks["even"], blocks["odd"], full.levels, full.pairs, full.partners,
        full.palindromes,
    )
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


OVERLAP_CHAINS = {
    "open": {"boundary": "open"},
    "periodic": {"boundary": "periodic"},
    "disordered": {"disorder_width": 0.5},
}


@pytest.mark.parametrize("chain", OVERLAP_CHAINS.keys())
@pytest.mark.parametrize("n", range(2, 12))
def test_solving_for_the_overlaps_keeps_the_full_solve(n, chain):
    # oracle: the same chain and state with every occupied sector's
    # eigenvectors; the Neel state is real (one column through dormtr), the
    # product state complex (two columns), and a disordered chain is one block
    h = ql.build_local_chain(ql.ChainParams(n_sites=n, seed=n, **OVERLAP_CHAINS[chain]))
    neel = ql.product_state([(1, 0) if j % 2 == 0 else (0, 1) for j in range(n)])
    for psi0 in (neel, complex_product_state(n)):
        got = ql.diagonalize(h, psi0, vectors=False)
        want = ql.occupied_spectrum(ql.diagonalize(h, psi0), psi0)
        assert isinstance(got, ql.SpectralData)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.max(np.abs(got.weights - want.weights)) < 1e-13


def test_diagonalize_without_a_state_solves_for_eigenvalues_alone(monkeypatch):
    # with no state to read, vectors=False asks each sector for its
    # eigenvalues alone (dsytrd and dsterf, no dstedc or dormtr); oracle: the
    # eigenvalues of the weights-only solve, which dstedc rounds differently,
    # so they agree within 1e-12 relative, not to the bit
    requests = []
    eigh = _lapack.eigh

    def recording(a, vectors=False, y=None):
        requests.append((vectors, y is None))
        return eigh(a, vectors, y)

    for chain in OVERLAP_CHAINS.values():
        for n in range(2, 12):
            h = ql.build_local_chain(ql.ChainParams(n_sites=n, seed=n, **chain))
            want = ql.diagonalize(h, complex_product_state(n), vectors=False).eigenvalues
            monkeypatch.setattr(_lapack, "eigh", recording)
            got = ql.diagonalize(h, None, vectors=False)
            monkeypatch.setattr(_lapack, "eigh", eigh)
            assert requests == [(False, True)] * 2
            requests.clear()
            assert type(got) is np.ndarray and got.shape == want.shape
            assert np.all(np.diff(got) >= 0)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


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
        lambda: eigensystem(symmetric_gaussian(64, seed=3)),
        lambda: ql.EigenSystem(np.arange(16.0), SimpleNamespace(dim=16)),
    ],
    ids=["open4", "periodic7", "open8", "disordered6", "goe64", "no_reads"],
)
def test_scramble_matches_the_dense_haar_product(build):
    # the seed draws the scrambled eigenvectors themselves, whatever form
    # (sector or dense) the input's eigenvectors take; no_reads holds
    # eigenvectors with a dimension and nothing to read. Oracle: the
    # complex Haar basis of the documented panel draw, replayed one reflector
    # at a time, against the scrambled eigenvectors applied to the identity
    eig = build()
    got = ql.scramble(eig, seed=11)
    want = haar_panel_matrix(eig.dim, 11, real=False)
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
    for real, draw in ((False, ql.scramble(eig, seed=20240817)),
                       (True, ql.goe_eigensystem(d, seed=424243))):
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
    # and the documented draw, replayed serially, gives the same basis
    assert np.max(np.abs(v - haar_panel_matrix(dim, dim, real))) < 1e-12
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


def _mean_spacing_ratio(ev: np.ndarray) -> float:
    """<r>, r_n = min(s_n, s_n+1) / max(s_n, s_n+1) of consecutive level spacings."""
    s = np.diff(ev)
    return float(np.mean(np.minimum(s[:-1], s[1:]) / np.maximum(s[:-1], s[1:])))


@pytest.mark.parametrize("dim", [3, 64, 1024])
def test_goe_eigenvalues_are_dsterf_of_the_tridiagonal_model(dim):
    # oracle: eigvalsh of the same tridiagonal written out dense, which LAPACK
    # reduces to the same two diagonals and hands to the same dsterf
    d, e = _goe_tridiagonal(dim, np.random.default_rng(dim))
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    got = _lapack.sterf(d.copy(), e.copy())
    assert np.array_equal(got, np.linalg.eigvalsh(t))
    # and the partner's eigenvalues are that draw's, read first from its seed
    assert np.array_equal(ql.goe_eigensystem(dim, dim).eigenvalues, got)
    # against the oracle's own standardization of the dense matrix
    want = np.linalg.eigvalsh(goe_tridiagonal(dim, np.random.default_rng(dim)))
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 100, 1024])
def test_goe_eigenvalues_have_mean_0_and_width_1(dim):
    for seed in range(3):
        ev = ql.goe_eigensystem(dim, seed).eigenvalues
        assert abs(ev.mean()) < 1e-9 and abs(ev.std() - 1.0) < 1e-9


def test_goe_eigenvalues_follow_the_semicircle_and_its_level_repulsion():
    # At width 1 the semicircle has radius 2, third moment 0 and fourth
    # moment 2 (3 for a Gaussian). Over 8 draws at d = 2048 the fourth moment
    # read 2.0010 with a spread of 0.0012 per draw, the top level 1.993 with
    # 0.008. The mean ratio of consecutive spacings is 0.5307 for GOE at large
    # d, against 0.5996 for GUE (0.6027 by the surmise) and 2 ln 2 - 1 =
    # 0.386 for Poisson levels (Atas et al., PRL 110, 084101 (2013)); these
    # draws read 0.5337 with a spread of 0.0070 per draw, so the 8-draw mean
    # has a standard error of 0.0025 and the tolerance is 0.015.
    # goe_eigensystem's eigenvalues (pinned to the bit above), without its eigenvectors
    draws = [_lapack.sterf(*_goe_tridiagonal(2048, np.random.default_rng(seed))) for seed in range(8)]
    assert abs(np.mean([np.mean(ev**4) for ev in draws]) - 2.0) < 0.02
    assert abs(np.mean([np.mean(ev**3) for ev in draws])) < 0.02
    assert all(abs(ev[-1] - 2.0) < 0.05 and abs(ev[0] + 2.0) < 0.05 for ev in draws)
    r = np.mean([_mean_spacing_ratio(ev) for ev in draws])
    assert abs(r - 0.5307) < 0.015
    assert r < 0.5996 - 0.05 and r > 0.386 + 0.1


def test_goe_eigenvalues_agree_in_law_with_the_dense_matrix():
    # oracle: eigvalsh of the dense draw (G + G^T) / 2, standardized to the
    # same moments.
    # Pooled over 1000 draws at d = 8, the two-sample Kolmogorov-Smirnov
    # test of the levels read p = 0.999; the mean spacing ratios differ by
    # 0.5 of their standard error.
    from scipy.stats import ks_2samp

    tri = [ql.goe_eigensystem(8, seed).eigenvalues for seed in range(1000)]
    dense = [np.linalg.eigvalsh(symmetric_gaussian(8, seed)) for seed in range(1000)]
    dense = [(ev - ev.mean()) / ev.std() for ev in dense]
    assert ks_2samp(np.concatenate(tri), np.concatenate(dense)).pvalue > 1e-3
    ratios = [[_mean_spacing_ratio(ev) for ev in draws] for draws in (tri, dense)]
    error = np.hypot(*(np.std(r) / np.sqrt(len(r)) for r in ratios))
    assert abs(np.mean(ratios[0]) - np.mean(ratios[1])) < 4 * error


def test_goe_draw_is_fixed_by_its_seed():
    # same seed, same eigenvalues and the same real Haar eigenvectors;
    # another seed, another draw of both
    eig = ql.goe_eigensystem(300, seed=6)
    assert isinstance(eig.eigenvectors, ql.HouseholderVectors)
    assert not np.iscomplexobj(eig.eigenvectors.phases)
    again = ql.goe_eigensystem(300, seed=6)
    assert np.array_equal(again.eigenvalues, eig.eigenvalues)
    assert np.array_equal(again.eigenvectors.apply(np.eye(300)), eig.eigenvectors.apply(np.eye(300)))
    other = ql.goe_eigensystem(300, seed=7)
    assert not np.array_equal(other.eigenvalues, eig.eigenvalues)
    assert not np.array_equal(other.eigenvectors.phases, eig.eigenvectors.phases)
    # one level has no width: it sits at the mean
    assert ql.goe_eigensystem(1, seed=6).eigenvalues.tolist() == [0.0]
    with pytest.raises(ValueError, match="dim must be positive"):
        ql.goe_eigensystem(0, seed=6)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("dim", [1, 2, 64, 65, 66, 300])
def test_panel_draw_is_the_same_on_any_worker_count(monkeypatch, dim, real):
    # each panel and the last phase have their own stream, so the pool
    # only moves the work: the reflectors, t factors and phases keep their
    # bits, also with more workers than a two-core machine has cores
    draws = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_lapack, "threads", lambda: workers)
        v = _haar_reflectors(dim, 9, real)
        draws.append(b"".join(a.tobytes() for a in (v.phases, *v.ys, *v.ts)))
    assert draws[0] == draws[1] == draws[2]


def _porter_thomas(normals: np.ndarray) -> np.ndarray:
    return normals**2 / (normals @ normals)


@pytest.mark.parametrize("n", [2, 6, 10])
def test_weights_in_law_replay_their_documented_draws(n):
    # oracles: the scrambled frame's first read gives |z|^2 / ||z||^2 of the
    # seed's 2 dim normals, read as (real, imaginary) pairs; the GOE frame's
    # eigenvalues are the tridiagonal model's, to the bit, and its first read
    # gives g^2 / ||g||^2 of the next dim normals for the real Neel state
    dim = 2**n
    psi0 = ql.product_state([(1, 0) if j % 2 == 0 else (0, 1) for j in range(n)])
    ev = np.linspace(-1.0, 1.0, dim)
    z = np.random.default_rng(31).standard_normal((dim, 2))
    want = np.sum(z**2, axis=1) / np.sum(z**2)
    got = ql.occupied_spectrum(ql.scrambled_frame(ev, 31), psi0)
    assert np.array_equal(got.eigenvalues, ev)
    assert np.max(np.abs(got.weights - want)) < 1e-12 * want.max()
    rng = np.random.default_rng(17)
    levels = _lapack.sterf(*_goe_tridiagonal(dim, rng))
    got = ql.occupied_spectrum(ql.goe_frame(dim, 17), psi0)
    assert np.array_equal(got.eigenvalues, levels)
    assert np.array_equal(ql.goe_eigensystem(dim, 17).eigenvalues, levels)
    want = _porter_thomas(rng.standard_normal(dim))
    assert np.max(np.abs(got.weights - want)) < 1e-12 * want.max()


def test_weights_in_law_carry_the_haar_moments():
    # The weights average 1/d, as any unit vector's. Their second moment is
    # 2 / (d (d + 1)) under a Haar unitary (Dirichlet(1, ..., 1)), and under
    # a Haar orthogonal O it is (2 + |psi^T psi|^2) / (d (d + 2)), from the
    # fourth moments of an orthonormal frame: 3 / (d (d + 2)) for a real
    # state (Porter-Thomas). At d = 64, 400 draws put the mean of w^2 within
    # 0.7% of these values (one standard deviation over 20 such batches),
    # so the tolerance is 3%; the unitary and real values lie 47% apart.
    n, d = 6, 64
    psi_t_psi = np.sum(complex_product_state(n).amplitudes ** 2)
    cases = [
        (lambda seed: ql.scrambled_frame(np.arange(d, dtype=float), seed), neel_state(n),
         2.0 / (d * (d + 1))),
        (lambda seed: ql.goe_frame(d, seed), ql.product_state([(0.6, 0.8)] * n), 3.0 / (d * (d + 2))),
        (lambda seed: ql.goe_frame(d, seed), complex_product_state(n),
         (2.0 + abs(psi_t_psi) ** 2) / (d * (d + 2))),
    ]
    for draw, psi0, second in cases:
        w = np.concatenate([ql.occupied_spectrum(draw(seed), psi0).weights for seed in range(400)])
        assert abs(np.mean(w) * d - 1.0) < 1e-12
        assert abs(np.mean(w**2) / second - 1.0) < 0.03


def _real_first_read(amps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """O^T amps, the first read of a real Haar frame on rng."""
    return _HaarFrame(amps.size, rng, real=True).apply_adjoint(amps)


def test_goe_weights_in_law_for_a_complex_state():
    # one level: the one weight is 1, for a real or a complex amplitude
    for amps in (np.array([1.0]), np.array([0.6 + 0.8j]), np.array([-1j])):
        c = _real_first_read(amps, np.random.default_rng(2))
        assert c.shape == (1,) and abs(abs(c[0]) ** 2 - 1.0) < 1e-15
    # a real vector times a global phase is the real vector: the frame's
    # first column reads the same normals, and R's second row is rounding
    rng = np.random.default_rng(4)
    v = rng.standard_normal(64)
    v /= np.linalg.norm(v)
    want = np.abs(_real_first_read(v, np.random.default_rng(5))) ** 2
    assert np.max(np.abs(want - _porter_thomas(np.random.default_rng(5).standard_normal(64)))) < 1e-15
    for theta in (0.3, 2.0, -1.1):
        got = np.abs(_real_first_read(np.exp(1j * theta) * v, np.random.default_rng(5))) ** 2
        assert np.max(np.abs(got - want)) < 1e-12 * want.max()
    # a complex state keeps its norm, and its real and imaginary parts map
    # through one orthogonal frame: O^T a and O^T b keep their inner products
    psi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    psi /= np.linalg.norm(psi)
    c = _real_first_read(psi, np.random.default_rng(6))
    a, b = psi.real, psi.imag
    assert abs(c.real @ c.real - a @ a) < 1e-14
    assert abs(c.real @ c.imag - a @ b) < 1e-14
    assert abs(c.imag @ c.imag - b @ b) < 1e-14


@pytest.mark.parametrize("n", [2, 6, 10])
def test_a_frames_first_read_gives_the_weights_in_law(n):
    # the complex frame's first read gives the Dirichlet weights of the
    # seed's first 2 dim normals for a real or complex state alike, and the
    # GOE frame's is a real frame's first read on the generator the
    # tridiagonal model leaves
    dim = 2**n
    ev = np.linspace(-1.0, 1.0, dim)
    z = np.random.default_rng(31).standard_normal(2 * dim).view(complex)
    dirichlet = np.abs(z) ** 2 / np.sum(np.abs(z) ** 2)
    for psi0 in (neel_state(n), complex_product_state(n)):
        got = ql.occupied_spectrum(ql.scrambled_frame(ev, 31), psi0)
        assert np.max(np.abs(got.weights - dirichlet)) < 1e-14
        rng = np.random.default_rng(17)
        levels = _lapack.sterf(*_goe_tridiagonal(dim, rng))
        got = ql.occupied_spectrum(ql.EigenSystem(levels, _HaarFrame(dim, rng, real=True)), psi0)
        want = ql.occupied_spectrum(ql.goe_frame(dim, 17), psi0)
        assert np.array_equal(want.eigenvalues, levels)
        assert np.max(np.abs(got.weights - want.weights)) < 1e-14


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_a_haar_frame_stays_an_isometry_over_mixed_reads(quench8, real):
    # a scan reads psi0 twice and one column per time (each twice on the
    # real frame); then columns, a complex block and a real one. B and F
    # stay orthonormal, W c = psi0 for the first read's c, and W^dag undoes
    # W (and W undoes W^dag) on what has been read
    points, width = 46, 2 if real else 1
    eig = ql.goe_frame(quench8.eig.dim, 5) if real else ql.scrambled_frame(quench8.eig, 5)
    frame, psi0 = eig.eigenvectors, quench8.psi0
    c = frame.apply_adjoint(psi0.amplitudes)  # as occupied_spectrum reads it
    profile = ql.entropy_scan(eig, psi0, (2, 4), ql.linear_grid(3.0, points))
    assert np.max(np.abs(profile.entropies[:, 0])) < 1e-14
    # psi0 once, since its second read and the t = 0 column lie in the span
    # so far and reveal nothing, then at most one direction per later time
    # (its real and imaginary parts on the real frame, fewer where those lie
    # within rounding of the span); a read that reveals nothing draws nothing
    revealed = frame.domain.shape[1]
    assert revealed <= 1 + width * (points - 1)
    drawn = frame._rng.bit_generator.state
    assert np.array_equal(frame.apply_adjoint(psi0.amplitudes), c)
    assert frame.domain.shape[1] == revealed and frame._rng.bit_generator.state == drawn
    rng = np.random.default_rng(3)
    frame.columns(slice(5, 9))
    frame.apply_adjoint(rng.standard_normal((frame.dim, 2)) + 1j * rng.standard_normal((frame.dim, 2)))
    frame.apply(rng.standard_normal((frame.dim, 3)))
    b, f = frame.domain, frame.image
    r = b.shape[1]
    assert f.shape == b.shape and np.iscomplexobj(b) != real
    for q in (b, f):
        assert np.max(np.abs(q.conj().T @ q - np.eye(r))) < 1e-13
    assert np.max(np.abs(frame.apply(c) - psi0.amplitudes)) < 1e-14
    coef = rng.standard_normal((r, 4)) + 1j * rng.standard_normal((r, 4))
    assert np.max(np.abs(frame.apply(frame.apply_adjoint(f @ coef)) - f @ coef)) < 1e-13
    assert np.max(np.abs(frame.apply_adjoint(frame.apply(b @ coef)) - b @ coef)) < 1e-13


@pytest.mark.parametrize("real", [False, True], ids=["scrambled", "goe"])
def test_a_frame_scan_moves_with_its_eigenvalues_alone(quench8, real):
    # eigenvalues 1e-13 apart, as two solves of one chain may give them, move
    # a 46-point scan by about as much, not by the rounding of its nearly
    # dependent time columns over their small singular values: a frame's
    # directions follow its reads' singular vectors, and a read weights the
    # ones its rounding moves most little
    ev = quench8.eig.eigenvalues
    grid = ql.linear_grid(3.0, 46)

    def scan(levels):
        unit = ql.goe_frame(levels.size, 5) if real else ql.scrambled_frame(levels, 5)
        eig = ql.EigenSystem(levels, unit.eigenvectors)
        ql.occupied_spectrum(eig, quench8.psi0)  # as _variant_spectra reads it first
        return ql.entropy_scan(eig, quench8.psi0, range(1, 8), grid).entropies

    for seed in range(3):
        moved = np.sort(ev + 1e-13 * np.random.default_rng(seed).uniform(-1.0, 1.0, ev.size))
        assert np.max(np.abs(scan(ev) - scan(moved))) < 1e-11


@pytest.mark.parametrize("real", [False, True], ids=["scrambled", "goe"])
def test_a_frame_scan_has_the_law_of_the_reflector_scan(quench6, real):
    # 240 seeds each, over the growth and the plateau: the mean entropy of
    # every cut and time after t = 0 agrees within 4 standard errors of the
    # difference (the largest is 1.8 for the complex frame, 2.2 for the real)
    seeds, cuts, grid = range(240), (1, 2, 3), ql.linear_grid(4.0, 8)

    def scans(draw):
        return np.array([ql.entropy_scan(draw(s), quench6.psi0, cuts, grid).entropies[:, 1:]
                         for s in seeds])

    if real:
        frames = scans(lambda s: ql.goe_frame(quench6.eig.dim, s))
        reflectors = scans(lambda s: ql.goe_eigensystem(quench6.eig.dim, s + 1000))
    else:
        frames = scans(lambda s: ql.scrambled_frame(quench6.eig, s))
        reflectors = scans(lambda s: ql.scramble(quench6.eig, s + 1000))
    err = np.sqrt((frames.var(axis=0, ddof=1) + reflectors.var(axis=0, ddof=1)) / len(seeds))
    assert np.max(np.abs(frames.mean(axis=0) - reflectors.mean(axis=0)) / err) < 4.0


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_the_frame_route_allocates_at_most_its_stated_blocks(real):
    # a 46-point scan on the frame at 10 sites: the frame's two blocks, the
    # projections and singular vectors of a read, the frame of its Gaussian
    # block, and the scan's phases and states, each at most about dim x
    # (points + 2) complex numbers (the real
    # frame's twice as many real ones); under 10 such blocks, and under the
    # reflectors' dim^2 / 2 complex numbers alone
    n, points = 10, 46
    dim = 2**n
    ev = np.linspace(-3.0, 3.0, dim)
    psi0 = neel_state(n)
    tracemalloc.start()
    try:
        eig = ql.goe_frame(dim, 1) if real else ql.scrambled_frame(ev, 1)
        ql.occupied_spectrum(eig, psi0)
        ql.entropy_scan(eig, psi0, range(1, n), ql.linear_grid(3.0, points))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 16 * dim * (points + 2)
    assert peak < 16 * dim * dim / 2


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
