import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quenchlab as ql
from oracles import chain_matrix, dense_chain, dense_vectors, haar_unitary, symmetric_gaussian
from quenchlab.hamiltonian import _symmetric_gaussian, _sz_signs

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ql.ChainParams(n_sites=1)
    with pytest.raises(ValueError):
        ql.ChainParams(n_sites=4, disorder_width=-0.1)
    with pytest.raises(ValueError):
        ql.ChainParams(n_sites=4, boundary="twisted")


def test_hermitian_operator_validation():
    with pytest.raises(ValueError):
        ql.HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    op = ql.HermitianOperator(np.eye(4))
    assert op.dim == 4
    assert not op.matrix.flags.writeable


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
    p = ql.ChainParams(n_sites=4, disorder_width=0.5, seed=3)
    a = ql.build_local_chain(p).matrix
    b = ql.build_local_chain(p).matrix
    assert np.array_equal(a, b)
    c = ql.build_local_chain(ql.ChainParams(n_sites=4, disorder_width=0.5, seed=4))
    assert not np.array_equal(a, c.matrix)


def test_periodic_adds_wrap_bond():
    p_open = ql.ChainParams(n_sites=4, boundary="open")
    p_per = ql.ChainParams(n_sites=4, boundary="periodic")
    diff = chain_matrix(ql.build_local_chain(p_per)) - chain_matrix(ql.build_local_chain(p_open))
    idx = np.arange(16)
    signs = 1.0 - 2.0 * ((idx[:, None] >> np.arange(4)[None, :]) & 1)
    assert np.allclose(np.diagonal(diff), -p_open.J * signs[:, 3] * signs[:, 0])
    assert np.max(np.abs(diff - np.diag(np.diagonal(diff)))) == 0.0


def _rebuilt(eig: ql.EigenSystem) -> ql.HermitianOperator:
    """The dense matrix W diag(E) W^dag of a scrambled eigensystem."""
    w = dense_vectors(eig)
    m = (w * eig.eigenvalues[None, :]) @ w.conj().T
    return ql.HermitianOperator((m + m.conj().T) / 2.0)


def test_scramble_preserves_spectrum_and_is_deterministic():
    h = ql.build_local_chain(ql.ChainParams(n_sites=6))
    eig = ql.diagonalize(h)
    s = _rebuilt(ql.scramble(eig, seed=5))
    ev_in = np.linalg.eigvalsh(chain_matrix(h))
    ev_out = np.linalg.eigvalsh(s.matrix)
    assert np.max(np.abs(ev_in - ev_out)) < 1e-10
    again = _rebuilt(ql.scramble(eig, seed=5))
    assert np.array_equal(s.matrix, again.matrix)
    twice = _rebuilt(ql.scramble(ql.scramble(eig, seed=5), seed=6))
    assert np.max(np.abs(np.linalg.eigvalsh(twice.matrix) - ev_in)) < 1e-10


def test_scramble_destroys_local_commutator_structure(quench6):
    n = 6
    local = quench6.chain.matrix
    scrambled = _rebuilt(ql.scramble(quench6.eig, seed=9)).matrix

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


def test_goe_degenerate_and_symmetric():
    one = ql.build_goe(1, mean=2.5, width=0.0, seed=0)
    assert one.matrix.shape == (1, 1) and one.matrix[0, 0] == 2.5
    m = ql.build_goe(64, mean=0.0, width=1.0, seed=1).matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    flat = ql.build_goe(16, mean=-3.0, width=0.0, seed=2)
    assert np.allclose(np.linalg.eigvalsh(flat.matrix), -3.0, atol=1e-12)


def test_goe_moment_match_at_1024():
    mean, width = 9.0, 13.3
    m = ql.build_goe(1024, mean, width, seed=7)
    ev = np.linalg.eigvalsh(m.matrix)
    assert abs(ev.mean() - mean) / abs(mean) < 0.02
    assert abs(ev.std() - width) / width < 0.02
    # the affine rescaling makes the match much tighter than the 2% contract
    assert abs(ev.mean() - mean) < 1e-8
    assert abs(ev.std() - width) < 1e-8


@pytest.mark.parametrize("seed", [0, 424242])
@pytest.mark.parametrize("dim", [1, 2, 511, 512, 513, 1025])
def test_symmetric_gaussian_is_the_whole_matrix_mean_to_the_bit(dim, seed):
    # dims on both sides of the tile edges, where the tile pairs change shape
    got = _symmetric_gaussian(dim, seed)
    want = symmetric_gaussian(dim, seed)
    assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "draw", [lambda: ql.typical_observable(1024, 5), lambda: ql.build_goe(1024, 0.0, 1.0, 5)],
    ids=["typical", "goe"],
)
def test_gaussian_draws_hold_one_dense_matrix(draw):
    # G + G^T as a second array would take the peak to two dense matrices;
    # in place it is one, plus a tile pair and the Hermitian check's tiles
    tracemalloc.start()
    try:
        draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 8 * 1024**2


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_goe_determinism(seed):
    a = ql.build_goe(32, 1.0, 2.0, seed).matrix
    b = ql.build_goe(32, 1.0, 2.0, seed).matrix
    assert np.array_equal(a, b)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_clean_chain_is_kept_as_its_terms(boundary):
    # no dense matrix is formed, or reachable as .matrix; its terms rebuild
    # the oracle's dense chain to the bit
    p = ql.ChainParams(n_sites=6, boundary=boundary)
    chain = ql.build_local_chain(p)
    assert isinstance(chain, ql.ReflectionChain) and not hasattr(chain, "matrix")
    assert chain.dim == 64 and chain.flip == -p.h
    assert np.array_equal(chain_matrix(chain), dense_chain(p).matrix)
    disordered = ql.build_local_chain(ql.ChainParams(n_sites=6, disorder_width=0.5))
    assert isinstance(disordered, ql.HermitianOperator)
