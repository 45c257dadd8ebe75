"""The LAPACK routines of numpy's OpenBLAS, called in place.

Each solve is checked to the bit against np.linalg, which calls the same
routines on a column-major copy, and the eigenvectors against the memory
they were solved in. numpy's own eigh buffers are allocated in C, out of
tracemalloc's sight, so a memory bound could not tell the two routes apart;
np.shares_memory pins "in place" instead.
"""
import numpy as np
import pytest

import quenchlab as ql
from quenchlab import _lapack, cli, spectral
from quenchlab.errors import ConvergenceFailure, LapackUnavailable


def test_lookup_finds_every_routine_in_numpys_openblas():
    # the lookup succeeds here, so a route that fell back silently where the
    # library is missing could not pass this suite
    path = _lapack.library()
    assert path.is_file() and path.parent.name == "numpy.libs"
    assert path.name.startswith("libscipy_openblas64_")
    described = _lapack.describe()
    assert str(path) in described
    assert all(f"scipy_{name}_64_" in described for name in _lapack.ROUTINES)


def _sector_blocks(monkeypatch, n: int) -> list[np.ndarray]:
    """Copies of the two transposed blocks diagonalize builds for an n-site chain."""
    blocks = []
    build = spectral._sector_block

    def keep(*args):
        blocks.append(build(*args))
        return blocks[-1].copy()

    monkeypatch.setattr(spectral, "_sector_block", keep)
    ql.diagonalize(ql.build_local_chain(ql.ChainParams(n_sites=n)))
    monkeypatch.undo()
    return blocks


@pytest.mark.parametrize("n", range(4, 12))
def test_in_place_solve_equals_numpy_on_sector_blocks(monkeypatch, n):
    # oracle: np.linalg on the block itself, the transpose of what
    # _sector_block builds; both sectors, with and without eigenvectors
    for block_t in _sector_blocks(monkeypatch, n):
        block = block_t.T
        w, v = np.linalg.eigh(block)
        got = block_t.copy()
        assert np.array_equal(_lapack.eigh(got, vectors=True), w)
        assert got.flags.c_contiguous and np.array_equal(got, v)
        assert np.array_equal(_lapack.eigh(block_t.copy(), vectors=False), np.linalg.eigvalsh(block))
        assert np.array_equal(_lapack.eigh_values(block_t.copy()), w)


def test_the_block_layout_is_what_makes_the_solve_bitwise(monkeypatch):
    # the blocks are symmetric only to rounding: solved as built, not
    # transposed, LAPACK reads the other triangle and the bits move
    even, _ = _sector_blocks(monkeypatch, 10)
    assert not np.array_equal(even, even.T)
    w, v = np.linalg.eigh(even.T)
    wrong = even.T.copy()
    assert not (np.array_equal(_lapack.eigh(wrong, vectors=True), w) and np.array_equal(wrong, v))


def _complex_hermitian(dim: int) -> ql.HermitianOperator:
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return ql.HermitianOperator((a + a.conj().T) / 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ql.build_local_chain(ql.ChainParams(n_sites=9, disorder_width=0.5, seed=3)),
        lambda: _complex_hermitian(200),
    ],
    ids=["disordered", "complex"],
)
def test_dense_route_equals_numpy_on_a_private_copy(monkeypatch, build):
    # the operator's frozen matrix is read, never written: one private copy
    # is solved and becomes V
    h = build()
    before = h.matrix.copy()
    solved = []
    eigh = _lapack.eigh
    monkeypatch.setattr(_lapack, "eigh", lambda a, vectors: solved.append(a) or eigh(a, vectors))
    eig = ql.diagonalize(h)
    w, v = np.linalg.eigh(h.matrix)
    vec = eig.eigenvectors.matrix
    assert np.array_equal(eig.eigenvalues, w)
    assert vec.flags.c_contiguous and np.array_equal(vec, v)
    assert len(solved) == 1 and np.shares_memory(vec, solved[0])
    assert np.array_equal(h.matrix, before) and not np.shares_memory(vec, h.matrix)


def test_sector_eigenvectors_are_the_blocks_they_were_solved_in(monkeypatch):
    blocks = []
    build = spectral._sector_block
    monkeypatch.setattr(spectral, "_sector_block", lambda *args: blocks.append(build(*args)) or blocks[-1])
    vectors = ql.diagonalize(ql.build_local_chain(ql.ChainParams(n_sites=8))).eigenvectors
    assert np.shares_memory(vectors.u_even, blocks[0]) and np.shares_memory(vectors.u_odd, blocks[1])


def test_nonzero_info_raises_convergence_failure_naming_the_routine():
    # NaN entries are legal input that dsterf, also inside dsyevd without
    # eigenvectors, reports as unconverged; the other routines return NaN
    # with info = 0, and EigenSystem refuses it as non-finite
    with pytest.raises(ConvergenceFailure, match="dsterf returned info = "):
        _lapack.sterf(np.array([np.nan, 1.0, 2.0]), np.ones(2))
    with pytest.raises(ConvergenceFailure, match="dsyevd returned info = "):
        _lapack.eigh(np.full((8, 8), np.nan), vectors=False)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _lapack.eigh(np.eye(4)[:, ::2].copy(), vectors=True),  # not square
        lambda: _lapack.eigh(np.asfortranarray(np.arange(9.0).reshape(3, 3)), vectors=True),
        lambda: _lapack.eigh(np.eye(4, dtype=np.float32), vectors=False),
        lambda: _lapack.eigh_values(np.eye(4, dtype=complex)),
        lambda: _lapack.eigh(np.eye(4)[::-1], vectors=True),  # a reversed view
        lambda: _lapack.sterf(np.zeros(4), np.zeros(2)),  # off-diagonal too short
        lambda: _lapack.sterf(np.zeros((2, 2)), np.zeros(1)),
    ],
    ids=["rectangular", "fortran_order", "float32", "complex_values", "view", "short_e", "2d_d"],
)
def test_arrays_lapack_would_overrun_are_refused(call):
    with pytest.raises(ValueError, match="LAPACK takes|does not fit"):
        call()


def test_a_frozen_operator_of_any_real_dtype_is_solved_on_a_float_copy():
    h = ql.HermitianOperator(np.diag(np.array([3, 1, 2])))
    eig = ql.diagonalize(h)
    assert np.array_equal(eig.eigenvalues, [1.0, 2.0, 3.0]) and h.matrix.dtype.kind == "i"


@pytest.fixture
def no_openblas(monkeypatch):
    """A numpy without the ILP64 OpenBLAS, as the lookup sees it."""
    monkeypatch.setattr(_lapack, "_PATTERN", "libno_such_lapack_*.so")
    _lapack.library.cache_clear()
    _lapack._routine.cache_clear()
    yield
    monkeypatch.undo()
    _lapack.library.cache_clear()
    _lapack._routine.cache_clear()


def test_another_lapack_is_refused_at_first_use(no_openblas, tmp_path, capsys):
    assert issubclass(LapackUnavailable, ql.QuenchError)
    with pytest.raises(LapackUnavailable, match="dsyevd.*no libno_such_lapack_.* in .*numpy.libs"):
        ql.diagonalize(ql.build_local_chain(ql.ChainParams(n_sites=4)))
    # a run fails as any runtime error does, with exit 2 and the reason
    config = tmp_path / "dos.yaml"
    config.write_text(f"kind: dos\nmodel: {{n_sites: 4}}\nout_dir: {tmp_path / 'out'}\n")
    assert cli.main(["run", str(config)]) == 2
    assert cli.main(["info"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") and "libno_such_lapack_" in line for line in err)
    assert not list((tmp_path / "out").glob("*"))


def test_a_missing_routine_is_named_with_the_library_searched():
    with pytest.raises(LapackUnavailable, match="nosuch: scipy_nosuch_64_ not found in .*libscipy_openblas64_"):
        _lapack._routine("nosuch")
