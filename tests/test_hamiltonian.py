import math
import tracemalloc

import numpy as np
import pytest

import quenchlab as ql
from oracles import (
    chain_matrix, dense_chain, dense_observable, dense_vectors, haar_unitary, typical_matrix, upper_rows,
)
from quenchlab import _lapack, observables
from quenchlab.hamiltonian import _mirror, _sz_signs
from quenchlab.observables import _of_rows, _typical_draw

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def test_chain_params_validation():
    with pytest.raises(ValueError, match=rf"\[2, {ql.MAX_SITES}\]"):
        ql.ChainParams(n_sites=1)
    with pytest.raises(ValueError, match=rf"\[2, {ql.MAX_SITES}\]"):
        ql.ChainParams(n_sites=ql.MAX_SITES + 1)
    with pytest.raises(ValueError):
        ql.ChainParams(n_sites=4, disorder_width=-0.1)
    with pytest.raises(ValueError):
        ql.ChainParams(n_sites=4, boundary="twisted")


def test_hermitian_operator_validation():
    # an observable is built by the library alone, as frozen block rows it
    # draws Hermitian; no dense matrix is taken in
    with pytest.raises(TypeError):
        ql.ObservableMatrix(np.eye(4))
    op = ql.typical_observable(4, seed=0)
    assert op.dim == 4 and [row.shape for row in op.rows] == [(4, 4)]
    with pytest.raises(ValueError, match="read-only"):
        op.rows[0][0, 0] = 0.0
    assert not any(row.flags.writeable for row in op.rows)


def test_classical_ising_two_sites():
    h = ql.build_local_chain(ql.ChainParams(n_sites=2, J=1.0, h=0.0, g=0.0))
    assert np.allclose(np.sort(np.linalg.eigvalsh(chain_matrix(h))), [-1, -1, 1, 1], atol=1e-12)


def test_pure_transverse_two_sites():
    h = ql.build_local_chain(ql.ChainParams(n_sites=2, J=0.0, h=1.0, g=0.0))
    assert np.allclose(np.sort(np.linalg.eigvalsh(chain_matrix(h))), [-2, 0, 0, 2], atol=1e-12)


def test_two_site_assembly_oracle():
    # independent dense assembly with site 0 in the least significant slot
    p = ql.ChainParams(n_sites=2, J=1.0, h=1.0, g=0.5)
    built = chain_matrix(ql.build_local_chain(p))
    sz0, sz1 = np.kron(np.eye(2), SZ), np.kron(SZ, np.eye(2))
    sx0, sx1 = np.kron(np.eye(2), SX), np.kron(SX, np.eye(2))
    oracle = -p.J * (sz0 @ sz1) - p.h * (sx0 + sx1) - p.g * (sz0 + sz1)
    assert np.max(np.abs(built - oracle)) < 1e-12
    assert np.allclose(
        np.linalg.eigvalsh(built), np.linalg.eigvalsh(oracle), atol=1e-12
    )


def test_chain_is_real_symmetric():
    m = chain_matrix(ql.build_local_chain(ql.ChainParams(n_sites=5)))
    assert np.isrealobj(m)
    assert np.max(np.abs(m - m.T)) == 0.0


def test_chain_couples_only_single_bit_flips():
    # sz terms are diagonal and sx flips one bit, so any off-diagonal
    # element between states differing in more than one bit must vanish
    m = chain_matrix(ql.build_local_chain(ql.ChainParams(n_sites=4)))
    dim = 16
    for i in range(dim):
        for j in range(dim):
            if i != j and bin(i ^ j).count("1") > 1:
                assert m[i, j] == 0.0


def test_chain_determinism_and_disorder_seeding():
    # the disorder enters the diagonal alone
    p = ql.ChainParams(n_sites=4, disorder_width=0.5, seed=3)
    a = ql.build_local_chain(p).diagonal
    b = ql.build_local_chain(p).diagonal
    assert np.array_equal(a, b)
    c = ql.build_local_chain(ql.ChainParams(n_sites=4, disorder_width=0.5, seed=4))
    assert not np.array_equal(a, c.diagonal)


def test_periodic_adds_wrap_bond():
    p_open = ql.ChainParams(n_sites=4, boundary="open")
    p_per = ql.ChainParams(n_sites=4, boundary="periodic")
    diff = chain_matrix(ql.build_local_chain(p_per)) - chain_matrix(ql.build_local_chain(p_open))
    idx = np.arange(16)
    signs = 1.0 - 2.0 * ((idx[:, None] >> np.arange(4)[None, :]) & 1)
    assert np.allclose(np.diagonal(diff), -p_open.J * signs[:, 3] * signs[:, 0])
    assert np.max(np.abs(diff - np.diag(np.diagonal(diff)))) == 0.0


def _rebuilt(eig: ql.EigenSystem) -> np.ndarray:
    """The dense matrix W diag(E) W^dag of a scrambled eigensystem."""
    w = dense_vectors(eig)
    m = (w * eig.eigenvalues[None, :]) @ w.conj().T
    return (m + m.conj().T) / 2.0


def test_scramble_preserves_spectrum_and_is_deterministic():
    h = ql.build_local_chain(ql.ChainParams(n_sites=6))
    eig = ql.diagonalize(h)
    s = _rebuilt(ql.scramble(eig, seed=5))
    ev_in = np.linalg.eigvalsh(chain_matrix(h))
    ev_out = np.linalg.eigvalsh(s)
    assert np.max(np.abs(ev_in - ev_out)) < 1e-10
    again = _rebuilt(ql.scramble(eig, seed=5))
    assert np.array_equal(s, again)
    twice = _rebuilt(ql.scramble(ql.scramble(eig, seed=5), seed=6))
    assert np.max(np.abs(np.linalg.eigvalsh(twice) - ev_in)) < 1e-10


def test_scramble_destroys_local_commutator_structure(quench6):
    n = 6
    local = quench6.chain
    scrambled = _rebuilt(ql.scramble(quench6.eig, seed=9))

    def comm_ratio(m, site):
        sz = _sz(n, site)
        c = m @ sz - sz @ m
        return np.linalg.norm(c) / np.linalg.norm(m)

    # the local commutator touches one site's terms; the scrambled one is dense
    for site in (0, n - 1):
        assert comm_ratio(scrambled, site) > 0.5
        assert comm_ratio(scrambled, site) > comm_ratio(local, site)
    nnz_local = np.sum(np.abs(local @ _sz(n, 0) - _sz(n, 0) @ local) > 1e-12)
    nnz_scrambled = np.sum(np.abs(scrambled @ _sz(n, 0) - _sz(n, 0) @ scrambled) > 1e-12)
    assert nnz_local <= 2 * 2**n
    assert nnz_scrambled > 2**n * (2**n - 1) // 2


def _sz(n, site):
    return np.diag(_sz_signs(n)[:, site])


def test_haar_unitary_is_unitary():
    # the dense oracle draw, which the library no longer has
    u = haar_unitary(32, np.random.default_rng(0))
    assert np.max(np.abs(u @ u.conj().T - np.eye(32))) < 1e-12


@pytest.mark.parametrize("seed", [0, 424242])
@pytest.mark.parametrize("dim", [1, 2, 255, 256, 257, 511, 512, 513, 1025])
def test_symmetric_gaussian_is_the_whole_matrix_mean_to_the_bit(dim, seed):
    # the tiled draw against the upper block rows of its serial whole-matrix
    # rebuild, at dims on both sides of the 256-square tile edges, where the
    # tile pairs change shape
    got = _typical_draw(dim, seed)
    want = upper_rows(typical_matrix(dim, seed))
    assert len(got) == len(want)
    for row, rebuilt in zip(got, want):
        assert row.dtype == rebuilt.dtype and np.array_equal(row.view(np.uint64), rebuilt.view(np.uint64))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dim", [128, 300, 1024])
def test_typical_draw_is_the_upper_block_rows_of_the_dense_oracle(monkeypatch, dim, workers):
    # the block rows, before the Perron scaling, against the upper block
    # rows of the independent dense draw from the same SeedSequence children
    monkeypatch.setattr(_lapack, "threads", lambda: workers)
    got = _typical_draw(dim, 11)
    want = upper_rows(typical_matrix(dim, 11))
    assert [row.shape for row in got] == [row.shape for row in want]
    assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(got, want))


@pytest.mark.parametrize("dim", [257, 1025])
def test_typical_draw_is_symmetric_to_the_bit_and_the_same_on_any_worker_count(
    monkeypatch, dim
):
    # each tile pair has its own stream, so the pool only moves the work;
    # each diagonal tile is symmetric to the bit
    draws = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_lapack, "threads", lambda: workers)
        draws.append([row.view(np.uint64) for row in _typical_draw(dim, 7)])
    for row in draws[0]:
        tile = row[:, : len(row)]
        assert np.array_equal(tile, tile.T)
    assert all(
        np.array_equal(row, other) for rows in draws[1:] for row, other in zip(draws[0], rows)
    )


def test_typical_draw_raises_what_a_worker_raised(monkeypatch):
    # at d = 512 on 2 workers the one off-diagonal pair is filled by the
    # second thread; its error reaches the caller instead of leaving the
    # tile unwritten
    monkeypatch.setattr(_lapack, "threads", lambda: 2)
    monkeypatch.setattr(observables, "_SQRT_HALF", None)
    with pytest.raises(TypeError):
        _typical_draw(512, 0)


def test_typical_draw_has_the_goe_entry_law():
    # |S| for S of the law of (G + G^T) / 2: |N(0, 1)| on the diagonal and
    # |N(0, 1/2)| off it, whether an entry lies in a diagonal tile (a mean
    # (t + t^T) / 2) or in an off-diagonal one (t / sqrt(2)). Pooled over 8
    # draws at d = 512, each moment sits within 5 standard errors
    dim = 512
    draws = [dense_observable(_of_rows(_typical_draw(dim, seed))) for seed in range(8)]
    above = np.triu(np.ones((dim, dim), dtype=bool), 1)
    same_tile = np.zeros((dim, dim), dtype=bool)
    same_tile[:256, :256] = same_tile[256:, 256:] = True
    groups = [
        (1.0, [np.diagonal(m) for m in draws]),
        (0.5, [m[above & same_tile] for m in draws]),
        (0.5, [m[above & ~same_tile] for m in draws]),
    ]
    for var, parts in groups:
        x = np.concatenate(parts)
        # E|N(0, v)| = sqrt(2 v / pi) with variance v (1 - 2 / pi);
        # E N^2 = v with variance 2 v^2
        mean, spread = math.sqrt(2 * var / math.pi), math.sqrt(var * (1 - 2 / math.pi))
        assert abs(x.mean() - mean) < 5 * spread / math.sqrt(x.size)
        assert abs(np.mean(x**2) - var) < 5 * math.sqrt(2) * var / math.sqrt(x.size)


@pytest.mark.parametrize(
    "draw", [lambda: ql.typical_observable(1024, 5), lambda: ql.goe_eigensystem(1024, 5)],
    ids=["typical", "goe"],
)
def test_gaussian_draws_hold_one_dense_matrix(draw):
    # a whole-matrix G + G^T would take the peak to two dense matrices; the
    # typical draw, filled by tiles into its upper block rows, is about half
    # of one (see the next test). The GOE partner draws no matrix: its
    # reflectors fill half of one
    tracemalloc.start()
    try:
        draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 8 * 1024**2


@pytest.mark.parametrize("workers", [1, 2])
def test_typical_observable_holds_its_upper_block_rows_alone(monkeypatch, workers):
    # at d = 1024 the four block rows are 10 of the 16 tiles, 0.625 of a
    # dense matrix; the scratch strips and the Perron iterates add little,
    # and no tile below the diagonal is ever formed
    monkeypatch.setattr(_lapack, "threads", lambda: workers)
    tracemalloc.start()
    try:
        obs = ql.typical_observable(1024, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(row.nbytes for row in obs.rows) == 10 * 8 * 256**2
    assert peak < 0.65 * 8 * 1024**2


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_clean_chain_is_kept_as_its_terms(boundary):
    # no dense matrix is formed, or reachable as .matrix, with disorder or
    # without; the terms rebuild the oracle's dense chain to the bit
    for width in (0.0, 0.5):
        p = ql.ChainParams(n_sites=6, boundary=boundary, disorder_width=width, seed=2)
        chain = ql.build_local_chain(p)
        assert type(chain) is ql.SpinChain and not hasattr(chain, "matrix")
        assert chain.dim == 64 and chain.flip == -p.h
        assert np.array_equal(chain_matrix(chain), dense_chain(p))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_a_clean_diagonal_rounded_apart_by_the_field_sum_is_made_reflection_invariant(boundary):
    # g = 0.3 summed site by site rounds some states and their mirror images
    # apart; each takes the smaller state's value, within an ulp of the
    # oracle's, so the chain keeps its two reflection sectors
    p = ql.ChainParams(n_sites=7, g=0.3, boundary=boundary)
    diagonal = ql.build_local_chain(p).diagonal
    oracle = np.diagonal(dense_chain(p))
    mirror = _mirror(7)
    assert not np.array_equal(oracle, oracle[mirror])
    assert np.array_equal(diagonal, diagonal[mirror])
    keep = np.arange(128) <= mirror
    assert np.array_equal(diagonal[keep], oracle[keep])
    assert np.max(np.abs(diagonal - oracle)) <= 2 * np.spacing(np.max(np.abs(oracle)))
