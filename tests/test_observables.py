import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quenchlab as ql
from conftest import SCRAMBLE_SEED
from oracles import (
    dense_eigensystem, dense_observable, dense_pauli, dense_vectors, local_observable, observable,
    slow_observable,
)
from quenchlab.errors import ConvergenceFailure, DimensionMismatch, SiteOutOfBounds
from quenchlab.observables import _perron_root, _weighted_block

UP = (1.0, 0.0)
PLUS = (1.0 / np.sqrt(2), 1.0 / np.sqrt(2))


def slow_closed_form(sdata: ql.SpectralData, times: np.ndarray, floor=1e-8) -> np.ndarray:
    """Sum of neighboring-gap cosines: 2 sum |c_a||c_b| cos((e_b - e_a) t)."""
    occ = np.nonzero(sdata.weights > floor)[0]
    mag = np.sqrt(sdata.weights)
    out = np.zeros_like(times)
    for a, b in zip(occ[:-1], occ[1:]):
        out += 2.0 * mag[a] * mag[b] * np.cos((sdata.eigenvalues[b] - sdata.eigenvalues[a]) * times)
    return out


def test_slow_observable_structure(quench6):
    # the dense band is the oracle of slow_series; it couples exactly the
    # adjacent occupied levels
    m = dense_observable(slow_observable(quench6.sdata))
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    occ = np.nonzero(quench6.sdata.weights > 1e-8)[0]
    allowed = set()
    for a, b in zip(occ[:-1], occ[1:]):
        allowed.add((int(a), int(b)))
        allowed.add((int(b), int(a)))
    nz = np.argwhere(np.abs(m) > 0)
    assert {(int(i), int(j)) for i, j in nz} == allowed
    assert np.allclose(np.abs(m[m != 0]), 1.0, atol=1e-12)


def test_slow_observable_uniform_weights_start():
    d = 8
    e = np.arange(d, dtype=float)
    data = ql.SpectralData(e, np.full(d, 1.0 / d))
    start = ql.slow_series(data, ql.TimeGrid([0.0])).values[0]
    assert abs(start - 2.0 * (d - 1) / d) < 1e-12


def test_slow_observable_closed_form(quench8):
    grid = ql.default_slow_grid(quench8.ts)
    series = ql.slow_series(quench8.sdata, grid)
    oracle = slow_closed_form(quench8.sdata, grid.times)
    assert np.max(np.abs(series.values - oracle)) < 1e-10


def test_slow_observable_never_exceeds_start(quench6):
    t_end = 0.1 * quench6.ts.heisenberg_time
    grid = ql.TimeGrid(np.linspace(0.0, t_end, 201))
    series = ql.slow_series(quench6.sdata, grid)
    assert np.all(series.values[1:] <= series.values[0] + 1e-10)


def test_typical_observable_hermitian_and_normalized():
    m = dense_observable(ql.typical_observable(128, seed=3))
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert m.min() >= 0.0
    # the norm comes from the Perron root; the full decomposition is the oracle
    top = np.max(np.abs(np.linalg.eigvalsh(m)))
    assert abs(top - 1.0) < 0.02
    assert abs(top - 1.0) < 1e-10  # exact normalization in this implementation


def test_typical_observable_deterministic_and_decorrelated():
    a = dense_observable(ql.typical_observable(256, seed=1))
    b = dense_observable(ql.typical_observable(256, seed=1))
    assert np.array_equal(a, b)
    c = dense_observable(ql.typical_observable(256, seed=2))
    corr = np.corrcoef(a.real.ravel(), c.real.ravel())[0, 1]
    assert abs(corr) < 0.1


@pytest.mark.parametrize(
    "dim, seeds",
    [(2, 8), (3, 8), (5, 8), (16, 8), (64, 8), (256, 4), (1024, 2), (2048, 1)],
)
def test_perron_root_matches_eigvalsh_oracle(dim, seeds):
    for seed in range(seeds):
        a = np.random.default_rng(seed).standard_normal((dim, dim))
        m = np.abs((a + a.T) / 2.0)
        top = np.max(np.abs(np.linalg.eigvalsh(m)))
        assert abs(_perron_root(observable(m).rows) - top) <= 1e-13 * top


def test_weighted_block_compacts_row_by_row_and_keeps_the_series():
    # the 9-site Neel state is reflection symmetric, so its odd sector has
    # weight exactly 0; the block rows of the weighted levels, compacted one
    # row at a time, hold the dense block and read the same series
    chain = ql.build_local_chain(ql.ChainParams(n_sites=9))
    psi0 = ql.product_state([(1, 0) if j % 2 == 0 else (0, 1) for j in range(9)])
    sdata = ql.diagonalize(chain, psi0, vectors=False)
    levels = np.nonzero(sdata.weights)[0]
    assert 0 < levels.size < 512
    grid = ql.linear_grid(3.0, 70)
    obs = ql.typical_observable(512, seed=4)
    full, want = dense_observable(obs), ql.expectation_series(sdata, obs, grid).values
    block = _weighted_block(obs, levels)
    assert obs.rows == ()
    assert [row.shape for row in block.rows] == [
        (min(256, levels.size - r), levels.size - r) for r in range(0, levels.size, 256)
    ]
    assert not any(row.flags.writeable for row in block.rows)
    assert np.array_equal(dense_observable(block), full[np.ix_(levels, levels)])
    weighted = ql.SpectralData(sdata.eigenvalues[levels], sdata.weights[levels])
    got = ql.expectation_series(weighted, block, grid).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_weighted_block_holds_no_dense_matrix_and_keeps_the_series():
    # every 16th level dropped at d = 2048: holding the old rows to the end
    # would take the peak past one dense matrix, and a dense gather to
    # about two; released as the compaction goes, it stays below one. The
    # series on the compacted rows are those of the whole draw
    dim = 2048
    levels = np.nonzero(np.arange(dim) % 16)[0]
    rng = np.random.default_rng(0)
    weights = np.zeros(dim)
    weights[levels] = rng.random(levels.size)
    data = ql.SpectralData(np.sort(rng.standard_normal(dim)), weights / weights.sum())
    weighted = ql.SpectralData(data.eigenvalues[levels], data.weights[levels])
    grid = ql.linear_grid(2.0, 20)
    want = ql.expectation_series(data, ql.typical_observable(dim, 9), grid).values
    tracemalloc.start()
    try:
        block = _weighted_block(ql.typical_observable(dim, 9), levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * dim**2
    got = ql.expectation_series(weighted, block, grid).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_perron_root_raises_when_the_bracket_never_closes():
    # a star graph is bipartite: its spectrum +-sqrt(2), 0 has no dominant
    # eigenvalue, and the iterates from the all-ones vector alternate
    star = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ConvergenceFailure, match="10000 iterations"):
        _perron_root(observable(star).rows)


def test_typical_observable_decays_by_five_boltzmann_times(quench10):
    obs = ql.typical_observable(1024, seed=0)
    grid = ql.default_relax_grid(quench10.ts)
    series = ql.expectation_series(quench10.sdata, obs, grid)
    eq = ql.diagonal_ensemble(quench10.sdata, obs.diagonal())
    dev0 = abs(series.values[0] - eq)
    k = int(np.searchsorted(grid.times, 5.0 * quench10.ts.boltzmann_time))
    assert np.all(np.abs(series.values[k:] - eq) < 0.2 * dev0)


def random_columns(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((2**n, count)) + 1j * rng.standard_normal((2**n, count))
    return cols / np.linalg.norm(cols, axis=0)


def test_local_observable_expectations():
    n = 4
    all_up = ql.product_state([UP] * n).amplitudes[:, None]
    up_z = ql.pauli_expectations(all_up, [(site, "z") for site in range(n)])
    assert np.max(np.abs(up_z - 1.0)) < 1e-12
    all_plus = ql.product_state([PLUS] * n).amplitudes[:, None]
    assert abs(ql.pauli_expectations(all_plus, [(2, "x")])[0, 0] - 1.0) < 1e-12
    # the site basis itself: sigma-z reads the bit signs, x and y read 0
    basis = np.eye(2**n)
    bits = (np.arange(2**n) >> 1) & 1
    z, x, y = ql.pauli_expectations(basis, [(1, "z"), (1, "x"), (1, "y")])
    assert np.array_equal(z, 1.0 - 2.0 * bits)
    assert not x.any() and not y.any()


def test_local_observables_commute_on_disjoint_sites():
    # flipping site 1 is sigma-x on site 1; conjugating by it leaves every
    # sigma on site 0 as it was and turns sigma-z and sigma-y on site 1 over
    cols = random_columns(3, 5, seed=1)
    flipped = cols[np.arange(8) ^ 2]
    paulis = [(site, axis) for site in (0, 1) for axis in ("x", "y", "z")]
    before = ql.pauli_expectations(cols, paulis)
    after = ql.pauli_expectations(flipped, paulis)
    for k, (site, axis) in enumerate(paulis):
        sign = 1.0 if site == 0 or axis == "x" else -1.0
        assert np.max(np.abs(after[k] - sign * before[k])) < 1e-15


def test_local_observable_errors():
    cols = np.eye(8)
    good = [(0, "x"), (2, "z")]
    for position in range(len(good) + 1):
        with pytest.raises(SiteOutOfBounds):
            ql.pauli_expectations(cols, good[:position] + [(3, "z")] + good[position:])
        with pytest.raises(ValueError):
            ql.pauli_expectations(cols, good[:position] + [(0, "w")] + good[position:])
    with pytest.raises(DimensionMismatch):
        ql.pauli_expectations(np.eye(6), [(0, "z")])


@pytest.mark.parametrize("variant", ["local", "scrambled"])
def test_local_observable_matches_dense_kron_oracle(quench6, variant):
    # the site-basis reader, on the columns of V and on the evolved states,
    # against the dense eigenbasis matrix V^dag sigma V
    eig = quench6.eig if variant == "local" else ql.scramble(quench6.eig, SCRAMBLE_SEED)
    v = dense_vectors(eig)
    grid = ql.linear_grid(2.0, 9)
    c = v.conj().T @ quench6.psi0.amplitudes
    e = eig.eigenvalues
    phases = [np.exp(1j * np.subtract.outer(e, e) * t) for t in grid.times]
    paulis = [(site, axis) for site in (0, 1, 3, 5) for axis in ("x", "y", "z")]
    diagonals = ql.pauli_expectations(eig.eigenvectors, paulis)
    assert diagonals.dtype.kind == "f"
    assert diagonals.shape == (len(paulis), eig.dim)
    series = ql.local_series(eig, quench6.psi0, paulis, grid)
    assert len(series) == len(paulis)
    for (site, axis), diagonal, pauli in zip(paulis, diagonals, series):
        obs = local_observable(eig, site, axis)
        assert np.max(np.abs(diagonal - np.diagonal(obs).real)) < 1e-12
        want = [(c.conj() @ (obs * phase) @ c).real for phase in phases]
        assert np.max(np.abs(pauli.values - want)) < 1e-12
        back = v @ obs @ v.conj().T
        assert np.max(np.abs(back - dense_pauli(6, site, axis))) < 1e-10


def make_series(values, t_max=10.0):
    grid = ql.TimeGrid(np.linspace(0.0, t_max, len(values)))
    return ql.TimeSeries(grid, np.asarray(values, dtype=float))


def test_relaxation_time_zero_initial_deviation():
    series = make_series(np.full(50, 0.7))
    rep = ql.relaxation_time(series, equilibrium=0.7)
    assert rep.relaxation_time == 0.0
    assert rep.zero_initial_deviation and rep.relaxed


def test_relaxation_time_exponential():
    gamma = 0.8
    t = np.linspace(0.0, 12.0, 1200)
    series = ql.TimeSeries(ql.TimeGrid(t), 2.0 + np.exp(-gamma * t))
    rep = ql.relaxation_time(series, equilibrium=2.0, threshold_fraction=1.0 / np.e)
    dt = t[1] - t[0]
    assert rep.relaxation_time == pytest.approx(1.0 / gamma, abs=dt + 1e-12)
    assert not rep.zero_initial_deviation


def test_relaxation_time_not_relaxed():
    series = make_series([1.0] * 30)
    rep = ql.relaxation_time(series, equilibrium=0.0)
    assert rep.relaxation_time is None and not rep.relaxed


def test_relaxation_time_requires_sustained_entry():
    # dips into the band once, leaves, then settles: the dip must not count
    t = np.linspace(0.0, 10.0, 101)
    v = np.zeros(101)
    v[0] = 1.0
    v[1:10] = 0.05
    v[10:20] = 1.0
    series = ql.TimeSeries(ql.TimeGrid(t), v)
    rep = ql.relaxation_time(series, equilibrium=0.0, threshold_fraction=0.3)
    assert rep.relaxation_time == t[20]


def test_relaxation_time_threshold_validation():
    series = make_series([1.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        ql.relaxation_time(series, 0.0, threshold_fraction=0.0)
    with pytest.raises(ValueError):
        ql.relaxation_time(series, 0.0, threshold_fraction=1.0)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_relaxation_time_monotone_in_threshold(seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 10.0, 200)
    values = np.exp(-t) * np.cos(rng.uniform(0.5, 8.0) * t) + 0.05 * rng.standard_normal(
        t.size
    )
    values[0] = 1.0
    series = ql.TimeSeries(ql.TimeGrid(t), values)
    f1, f2 = sorted(rng.uniform(0.05, 0.95, size=2))
    if f1 == f2:
        return
    r_narrow = ql.relaxation_time(series, 0.0, threshold_fraction=f1)
    r_wide = ql.relaxation_time(series, 0.0, threshold_fraction=f2)
    t_narrow = np.inf if r_narrow.relaxation_time is None else r_narrow.relaxation_time
    t_wide = np.inf if r_wide.relaxation_time is None else r_wide.relaxation_time
    assert t_wide <= t_narrow


def test_slow_beats_typical_at_same_threshold(quench8):
    s_series = ql.slow_series(quench8.sdata, ql.default_slow_grid(quench8.ts))
    s_rep = ql.relaxation_time(
        s_series, ql.diagonal_ensemble(quench8.sdata, np.zeros(256)), threshold_fraction=0.7
    )
    typ = ql.typical_observable(256, seed=0)
    t_series = ql.expectation_series(quench8.sdata, typ, ql.default_relax_grid(quench8.ts))
    t_rep = ql.relaxation_time(
        t_series, ql.diagonal_ensemble(quench8.sdata, typ.diagonal()), threshold_fraction=0.7
    )
    assert s_rep.relaxed and t_rep.relaxed
    assert s_rep.relaxation_time > 10.0 * t_rep.relaxation_time


@pytest.mark.parametrize("form", ["sectors", "householder", "dense"])
def test_eigenstate_paulis_read_only_the_listed_levels(quench8, form):
    # a relax run reads the weighted levels alone: listed out of order and
    # across column blocks, each reads as in the reading of every column
    eig = quench8.eig
    if form == "householder":
        eig = ql.scramble(eig, SCRAMBLE_SEED)
    elif form == "dense":
        eig = dense_eigensystem(eig.eigenvalues, dense_vectors(eig))
    levels = np.arange(3, eig.dim, 3)[::-1]
    paulis = [(0, "x"), (3, "y"), (7, "z")]
    got = ql.pauli_expectations(eig.eigenvectors, paulis, levels)
    want = ql.pauli_expectations(eig.eigenvectors, paulis)[:, levels]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-14


def test_eigenstate_paulis_read_the_eigenvectors_in_column_blocks(quench10):
    # the whole-matrix reading held two dim^2 temporaries for a sigma-y
    v = dense_vectors(quench10.eig)
    tracemalloc.start()
    try:
        rows = ql.pauli_expectations(quench10.eig.eigenvectors, [(5, "y")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < v.nbytes / 4
    assert np.all(rows == 0.0)  # real eigenvectors carry no sigma-y expectation
