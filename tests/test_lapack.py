"""The LAPACK routines of numpy's OpenBLAS, called in place.

Each solve is checked to the bit against np.linalg, which calls the same
routines on a column-major copy, and the eigenvectors against the memory
they were solved in, by np.shares_memory. The buffers each route allocates
are numpy arrays, which tracemalloc sees, so each route's workspace is
bounded in units of the block it solves.
"""
import tracemalloc

import numpy as np
import pytest

import quenchlab as ql
from quenchlab import _lapack, cli, spectral
from oracles import dense_chain
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
    # the routines some route calls, and no other: the steps of the one
    # block solve, whose dsterf also solves the GOE partner's tridiagonal
    assert set(_lapack.ROUTINES) == {"dsytrd", "dstedc", "dormtr", "dsterf"}


def _sector_blocks(monkeypatch, n: int, **params) -> list[np.ndarray]:
    """Copies of the two transposed blocks diagonalize builds for an n-site chain."""
    blocks = []
    build = spectral._sector_block

    def keep(*args):
        blocks.append(build(*args))
        return blocks[-1].copy()

    monkeypatch.setattr(spectral, "_sector_block", keep)
    ql.diagonalize(ql.build_local_chain(ql.ChainParams(n_sites=n, **params)))
    monkeypatch.undo()
    return blocks


@pytest.mark.parametrize("n", range(4, 12))
def test_in_place_solve_equals_numpy_on_sector_blocks(monkeypatch, n):
    # oracle: np.linalg on the block itself, the transpose of what
    # _sector_block builds; both sectors, with and without eigenvectors,
    # and V^T y for a real and a complex y
    rng = np.random.default_rng(n)
    for block_t in _sector_blocks(monkeypatch, n):
        _assert_every_request_equals_numpy(block_t, rng)


def _assert_every_request_equals_numpy(block_t: np.ndarray, rng: np.random.Generator) -> None:
    block = block_t.T
    w, v = np.linalg.eigh(block)
    got = block_t.copy()
    assert np.array_equal(_lapack.eigh(got, vectors=True)[0], w)
    assert got.flags.c_contiguous and np.array_equal(got, v)
    assert np.array_equal(_lapack.eigh(block_t.copy())[0], np.linalg.eigvalsh(block))
    real = rng.standard_normal(len(w))
    for y in (real, real + 1j * rng.standard_normal(len(w))):
        values, overlaps = _lapack.eigh(block_t.copy(), y=y)
        assert np.array_equal(values, w)
        assert overlaps.dtype == y.dtype and np.max(np.abs(overlaps - v.T @ y), initial=0.0) < 1e-13


def test_each_request_holds_at_the_smallest_dimensions(monkeypatch):
    # dimensions 0 to 3: random blocks, of which LAPACK reads one triangle
    # only, the 3 x 3 and 1 x 1 sectors of a clean 2-site chain, and the
    # 4 x 4 and 0 x 0 blocks of the trivial symmetry on a disordered one
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((n, n)) for n in range(4)]
    blocks += _sector_blocks(monkeypatch, 2) + _sector_blocks(monkeypatch, 2, disorder_width=0.5)
    assert [len(b) for b in blocks] == [0, 1, 2, 3, 3, 1, 4, 0]
    for block_t in blocks:
        _assert_every_request_equals_numpy(block_t, rng)


def test_a_solve_forms_v_or_its_overlaps_not_both():
    with pytest.raises(ValueError, match="not both"):
        _lapack.eigh(np.eye(3), vectors=True, y=np.ones(3))


@pytest.mark.parametrize(
    "route, bound", [("values", 0.25), ("vectors", 2.25), ("real_y", 1.25), ("complex_y", 1.25)]
)
def test_each_route_allocates_at_most_its_stated_blocks(monkeypatch, route, bound):
    # beyond the block it solves in: V and dsyevd's workspace with vectors,
    # dstedc's workspace alone for V^T y, since Z is written over the block,
    # and O(n) for the eigenvalues alone. Bounds in units of the block, 8 n^2
    # bytes, on the even sector of a 10-site chain
    even, _ = _sector_blocks(monkeypatch, 10)
    n = len(even)
    assert n == 528
    y = np.random.default_rng(0).standard_normal((2, n))
    request = {"values": {}, "vectors": {"vectors": True}, "real_y": {"y": y[0]},
               "complex_y": {"y": y[0] + 1j * y[1]}}[route]
    at = even.copy()
    tracemalloc.start()
    try:
        _lapack.eigh(at, **request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 8 * n * n


def test_the_block_layout_is_what_makes_the_solve_bitwise(monkeypatch):
    # the blocks are symmetric only to rounding: solved as built, not
    # transposed, LAPACK reads the other triangle and the bits move
    even, _ = _sector_blocks(monkeypatch, 10)
    assert not np.array_equal(even, even.T)
    w, v = np.linalg.eigh(even.T)
    wrong = even.T.copy()
    assert not (np.array_equal(_lapack.eigh(wrong, vectors=True)[0], w) and np.array_equal(wrong, v))


@pytest.mark.parametrize("width", [0.5, 1.3], ids=["disordered", "strongly_disordered"])
def test_dense_route_equals_numpy_on_a_private_copy(monkeypatch, width):
    # a disordered diagonal is not reflection invariant: the trivial classes
    # make the even block the dense H, built from the chain's terms and
    # solved in place into V, and leave the odd block empty. Oracle:
    # np.linalg.eigh of the oracle's dense chain, on its private copy
    for n in range(6, 12):
        p = ql.ChainParams(n_sites=n, disorder_width=width, seed=n)
        solved = []
        eigh = _lapack.eigh
        monkeypatch.setattr(_lapack, "eigh", lambda a, **route: solved.append(a) or eigh(a, **route))
        eig = ql.diagonalize(ql.build_local_chain(p))
        monkeypatch.undo()
        w, v = np.linalg.eigh(dense_chain(p))
        vectors = eig.eigenvectors
        assert vectors.pairs.size == 0 and vectors.u_odd.shape == (0, 0)
        assert [a.shape[0] for a in solved] == [2**n, 0] and vectors.u_even is solved[0]
        assert np.array_equal(eig.eigenvalues, w)
        assert np.array_equal(vectors.columns(slice(None)), v)


def test_sector_eigenvectors_are_the_blocks_they_were_solved_in(monkeypatch):
    blocks = []
    build = spectral._sector_block
    monkeypatch.setattr(spectral, "_sector_block", lambda *args: blocks.append(build(*args)) or blocks[-1])
    vectors = ql.diagonalize(ql.build_local_chain(ql.ChainParams(n_sites=8))).eigenvectors
    assert np.shares_memory(vectors.u_even, blocks[0]) and np.shares_memory(vectors.u_odd, blocks[1])


def test_nonzero_info_raises_convergence_failure_naming_the_routine():
    # NaN entries are legal input that dsterf, also as the last step of an
    # eigenvalues-only solve, reports as unconverged; the other routines
    # return NaN with info = 0, and EigenSystem refuses it as non-finite
    with pytest.raises(ConvergenceFailure, match="dsterf returned info = "):
        _lapack.sterf(np.array([np.nan, 1.0, 2.0]), np.ones(2))
    with pytest.raises(ConvergenceFailure, match="dsterf returned info = "):
        _lapack.eigh(np.full((8, 8), np.nan))


@pytest.mark.parametrize(
    "call",
    [
        lambda: _lapack.eigh(np.eye(4)[:, ::2].copy(), vectors=True),  # not square
        lambda: _lapack.eigh(np.asfortranarray(np.arange(9.0).reshape(3, 3)), vectors=True),
        lambda: _lapack.eigh(np.eye(4, dtype=np.float32)),
        lambda: _lapack.eigh(np.eye(4, dtype=complex), vectors=True),
        lambda: _lapack.eigh(np.eye(4, dtype=complex), y=np.ones(4)),
        lambda: _lapack.eigh(np.eye(4), y=np.ones(3)),  # a vector that does not fit
        lambda: _lapack.eigh(np.eye(4)[::-1], vectors=True),  # a reversed view
        lambda: _lapack.sterf(np.zeros(4), np.zeros(2)),  # off-diagonal too short
        lambda: _lapack.sterf(np.zeros((2, 2)), np.zeros(1)),
    ],
    ids=["rectangular", "fortran_order", "float32", "complex", "complex_values", "short_y", "view",
         "short_e", "2d_d"],
)
def test_arrays_lapack_would_overrun_are_refused(call):
    with pytest.raises(ValueError, match="LAPACK takes|does not fit"):
        call()


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
    with pytest.raises(LapackUnavailable, match="dsytrd.*no libno_such_lapack_.* in .*numpy.libs"):
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
