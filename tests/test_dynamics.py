import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import quenchlab as ql
from oracles import _krylov_step, _lanczos, _tridiag, dense_vectors, evolve_spectral, krylov_evolve
from quenchlab.errors import DimensionMismatch
from quenchlab.observables import ObservableMatrix


def two_level_data(omega: float) -> ql.SpectralData:
    return ql.SpectralData(np.array([-omega / 2, omega / 2]), np.array([0.5, 0.5]))


def eigen_obs(matrix):
    return ObservableMatrix(np.asarray(matrix, dtype=complex))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        ql.TimeGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        ql.TimeGrid(np.array([-1.0, 1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ql.TimeGrid(np.array([0.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        ql.linear_grid(np.nan, 5)
    grid = ql.linear_grid(2.0, 5)
    assert len(grid) == 5 and grid.times[0] == 0.0 and grid.times[-1] == 2.0


def test_default_grids(quench8):
    relax = ql.default_relax_grid(quench8.ts)
    assert len(relax) == 400
    assert abs(relax.times[-1] - 20.0 * quench8.ts.boltzmann_time) < 1e-12
    slow = ql.default_slow_grid(quench8.ts)
    assert slow.times[-1] >= 25.0 * quench8.ts.heisenberg_time - 1e-9
    assert np.all(np.diff(slow.times) > 0)


def test_evolve_spectral_identity_at_zero(quench6):
    psi = evolve_spectral(quench6.eig, quench6.psi0, 0.0)
    assert np.max(np.abs(psi.amplitudes - quench6.psi0.amplitudes)) < 1e-12


def test_evolve_spectral_preserves_norm(quench6):
    for t in (0.3, 1.7, 42.0):
        psi = evolve_spectral(quench6.eig, quench6.psi0, t)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_evolve_spectral_stationary_eigenstate(quench6):
    k = 11
    psi0 = ql.PureState(dense_vectors(quench6.eig)[:, k].astype(complex))
    for t in (0.5, 3.0, 20.0):
        psi = evolve_spectral(quench6.eig, psi0, t)
        assert abs(abs(np.vdot(psi0.amplitudes, psi.amplitudes)) - 1.0) < 1e-12


def test_expectation_series_identity(quench6):
    grid = ql.linear_grid(2.0, 21)
    obs = ql.ObservableMatrix(np.eye(64))
    series = ql.expectation_series(quench6.sdata, obs, grid)
    assert np.max(np.abs(series.values - 1.0)) < 1e-12


def test_expectation_series_conserves_energy(quench6):
    grid = ql.linear_grid(3.0, 31)
    obs = eigen_obs(np.diag(quench6.eig.eigenvalues))
    series = ql.expectation_series(quench6.sdata, obs, grid)
    assert np.max(np.abs(series.values - series.values[0])) < 1e-10


def test_expectation_series_two_level_cosine():
    omega = 2.4
    grid = ql.linear_grid(6.0, 101)
    obs = eigen_obs([[0.0, 1.0], [1.0, 0.0]])
    series = ql.expectation_series(two_level_data(omega), obs, grid)
    assert np.max(np.abs(series.values - np.cos(omega * grid.times))) < 1e-10


def test_expectation_series_matches_state_vector_route(quench6):
    # an eigenbasis observable lives in the quench-aligned basis, whose
    # columns are those of V times the phases of the overlaps
    rng = np.random.default_rng(1)
    a = rng.standard_normal((64, 64))
    site_matrix = (a + a.T) / 2
    v = dense_vectors(quench6.eig)
    c = v.T @ quench6.psi0.amplitudes
    aligned = v * (c / np.abs(c))
    obs = ObservableMatrix(aligned.conj().T @ site_matrix @ aligned)
    grid = ql.linear_grid(2.0, 17)
    series = ql.expectation_series(quench6.sdata, obs, grid)
    for k, t in enumerate(grid.times):
        psi = evolve_spectral(quench6.eig, quench6.psi0, float(t))
        direct = np.vdot(psi.amplitudes, site_matrix @ psi.amplitudes).real
        assert abs(series.values[k] - direct) < 1e-10


def test_expectation_series_matches_double_sum_oracle(quench6):
    # literal double sum over level pairs; the aligned overlaps are real
    rng = np.random.default_rng(2)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    mat = (a + a.conj().T) / 2
    obs = eigen_obs(mat)
    grid = ql.linear_grid(1.5, 7)
    series = ql.expectation_series(quench6.sdata, obs, grid)
    w, e = quench6.sdata.weights, quench6.sdata.eigenvalues
    mag = np.sqrt(w)
    for k, t in enumerate(grid.times):
        phase = np.exp(1j * (e[:, None] - e[None, :]) * t)
        val = np.sum(mag[:, None] * mag[None, :] * mat * phase)
        assert abs(series.values[k] - val.real) < 1e-10
        assert abs(val.imag) < 1e-10


def test_expectation_series_blocks_match_double_sum_oracle(quench6):
    # 67 times span two kernel blocks, the second one partial; a complex
    # Hermitian and a real symmetric matrix are checked, each in its own dtype
    rng = np.random.default_rng(3)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    grid = ql.linear_grid(4.0, ql.dynamics.EVOLVE_BLOCK + 3)
    w, e = quench6.sdata.weights, quench6.sdata.eigenvalues
    mag = np.sqrt(w)
    for mat in ((a + a.conj().T) / 2, (a.real + a.real.T) / 2):
        obs = ObservableMatrix(mat)
        series = ql.expectation_series(quench6.sdata, obs, grid)
        for k, t in enumerate(grid.times):
            phase = np.exp(1j * (e[:, None] - e[None, :]) * t)
            val = np.sum(mag[:, None] * mag[None, :] * mat * phase)
            assert abs(series.values[k] - val.real) < 1e-12


@pytest.mark.parametrize("dim", [300, 600])
def test_expectation_series_of_block_rows_matches_double_sum_oracle(dim):
    # past one 256-row tile the series reads several block rows, each tile
    # right of a diagonal one standing also for its conjugate transpose
    # below; a complex Hermitian and a real symmetric matrix, on two time
    # blocks, against the literal double sum
    rng = np.random.default_rng(dim)
    w = rng.random(dim)
    data = ql.SpectralData(np.sort(rng.standard_normal(dim)), w / w.sum())
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    grid = ql.linear_grid(3.0, ql.dynamics.EVOLVE_BLOCK + 2)
    mag, e = np.sqrt(data.weights), data.eigenvalues
    for mat in ((a + a.conj().T) / 2, (a.real + a.real.T) / 2):
        obs = ObservableMatrix(mat)
        assert len(obs.rows) == -(-dim // 256)
        series = ql.expectation_series(data, obs, grid)
        for k, t in enumerate(grid.times):
            phase = np.exp(1j * (e[:, None] - e[None, :]) * t)
            val = np.sum(mag[:, None] * mag[None, :] * mat * phase)
            assert abs(series.values[k] - val.real) < 1e-12


def test_expectation_series_refuses_an_imaginary_residue():
    # a matrix that is not Hermitian, past ObservableMatrix's check, gives
    # the two-level state a complex expectation at every t > 0; its one
    # block row is its diagonal tile
    obs = SimpleNamespace(rows=(np.array([[0.0, 1.0], [0.0, 0.0]]),))
    with pytest.raises(ValueError, match="imaginary residue"):
        ql.expectation_series(two_level_data(2.4), obs, ql.linear_grid(1.0, 3))


def test_expectation_series_dimension_mismatch(quench6):
    obs = ql.ObservableMatrix(np.eye(16))
    with pytest.raises(DimensionMismatch):
        ql.expectation_series(quench6.sdata, obs, ql.linear_grid(1.0, 3))


def test_diagonal_ensemble_identity_and_eigenstate(quench6):
    identity = ql.ObservableMatrix(np.eye(64))
    assert ql.diagonal_ensemble(quench6.sdata, identity.diagonal()) == pytest.approx(1.0)
    k = 5
    psi = ql.PureState(dense_vectors(quench6.eig)[:, k].astype(complex))
    sdata = ql.occupied_spectrum(quench6.eig, psi)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((64, 64))
    mat = (a + a.T) / 2
    val = ql.diagonal_ensemble(sdata, eigen_obs(mat).diagonal())
    assert abs(val - mat[k, k]) < 1e-10


def test_diagonal_ensemble_matches_long_time_average(quench6):
    obs = ql.typical_observable(64, seed=12)
    tb = quench6.ts.boltzmann_time
    grid = ql.TimeGrid(np.linspace(100 * tb, 200 * tb, 400))
    series = ql.expectation_series(quench6.sdata, obs, grid)
    de = ql.diagonal_ensemble(quench6.sdata, obs.diagonal())
    assert abs(series.values.mean() - de) <= 5.0 * series.values.std()


def test_diagonal_ensemble_warns_on_degenerate_gap():
    data = ql.SpectralData(np.array([0.0, 0.0, 1.0]), np.array([0.4, 0.3, 0.3]))
    with pytest.warns(UserWarning, match="gaps below"):
        ql.diagonal_ensemble(data, ql.ObservableMatrix(np.eye(3)).diagonal())


@pytest.mark.parametrize("weights", [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
def test_diagonal_ensemble_ignores_gaps_to_an_empty_level(weights):
    # a degenerate pair with one empty level has no off-diagonal term to keep
    data = ql.SpectralData(np.array([0.0, 0.0, 1.0]), np.array(weights))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ql.diagonal_ensemble(data, np.array([2.0, 3.0, 5.0])) == float(
            np.dot(weights, [2.0, 3.0, 5.0])
        )


def test_krylov_diagonal_exact():
    # four distinct eigenvalues force a Lanczos breakdown, which must be exact
    diag = np.repeat([0.3, 1.1, 2.9, 4.0], 4)
    h = np.diag(diag)
    rng = np.random.default_rng(5)
    amp = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amp /= np.linalg.norm(amp)
    psi = ql.PureState(amp)
    out = krylov_evolve(h, psi, dt=0.8)
    exact = np.exp(-1j * diag * 0.8) * amp
    assert np.max(np.abs(out.amplitudes - exact)) < 1e-12


def test_krylov_matches_spectral(quench8):
    dt = quench8.ts.boltzmann_time
    out = krylov_evolve(quench8.chain, quench8.psi0, dt)
    ref = evolve_spectral(quench8.eig, quench8.psi0, dt)
    fidelity = abs(np.vdot(ref.amplitudes, out.amplitudes))
    assert fidelity >= 1.0 - 1e-10


def test_krylov_semigroup(quench6):
    dt = 0.6
    full = krylov_evolve(quench6.chain, quench6.psi0, dt)
    half = krylov_evolve(quench6.chain, quench6.psi0, dt / 2)
    composed = krylov_evolve(quench6.chain, half, dt / 2)
    assert np.max(np.abs(full.amplitudes - composed.amplitudes)) < 1e-9


def test_krylov_conserves_energy(quench6):
    h = quench6.chain
    psi = quench6.psi0
    e0 = np.vdot(psi.amplitudes, h @ psi.amplitudes).real
    for _ in range(10):
        psi = krylov_evolve(h, psi, dt=0.25)
        e = np.vdot(psi.amplitudes, h @ psi.amplitudes).real
        assert abs(e - e0) < 1e-10 * max(abs(e0), 1.0)


@pytest.mark.parametrize("dt, m", [(0.05, 4), (0.3, 12), (1.0, 30), (2.5, 30)])
def test_krylov_step_matches_expm_of_the_lanczos_matrix(quench8, dt, m):
    mat = quench8.chain
    psi = quench8.psi0.amplitudes.astype(complex)
    q, alpha, beta, b_exit = _lanczos(mat, psi, m)
    y = expm(-1j * dt * _tridiag(alpha, beta[: alpha.size - 1]))[:, 0]
    ref = q.T @ y
    out, err = _krylov_step(mat, psi, dt, m)
    assert np.max(np.abs(out - ref / np.linalg.norm(ref))) < 1e-13
    assert abs(err - b_exit * abs(y[-1])) < 1e-13 * b_exit


def test_krylov_validation(quench6):
    with pytest.raises(ValueError):
        krylov_evolve(quench6.chain, quench6.psi0, dt=0.5, subspace_dim=1)
    with pytest.raises(ValueError):
        krylov_evolve(quench6.chain, quench6.psi0, dt=0.0)
    small = ql.product_state([(1, 0)] * 4)
    with pytest.raises(DimensionMismatch):
        krylov_evolve(quench6.chain, small, dt=0.5)
