"""The LAPACK routines of numpy's OpenBLAS, called in place.

Each solve is checked to the bit against np.linalg, which calls the same
routines on a column-major copy, and the eigenvectors against the memory
they were solved in, by np.shares_memory. From _lapack.TEAR on, V^T y tears
T and solves dstedc's last merge itself, without Z: on the sector blocks
its eigenvalues still equal np.linalg's to the bit, and the merge's hard
cases, on blocks where dstedc would not tear at all, are checked within
stated bounds. The buffers each route allocates are numpy arrays, which
tracemalloc sees, so each route's workspace is bounded in units of the
block it solves.
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
    # block solve, whose dsterf also solves the GOE partner's tridiagonal,
    # and dstedc's own divide and conquer and secular equation solver, which
    # the torn V^T y calls
    assert set(_lapack.ROUTINES) == {"dsytrd", "dstedc", "dormtr", "dsterf", "dlaed0", "dlaed4"}


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
    # and V^T y for a real and a complex y (torn from n = 10 sites on, where
    # the even block reaches _lapack.TEAR)
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


def _tridiagonal(d, e) -> np.ndarray:
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _persymmetric_pair(rng, half: int, coupling: float) -> np.ndarray:
    # two copies of a T0 that equals its own reversal, glued at the tear by
    # coupling: each half then has T0's eigenvalues, up to the coupling
    d, e = rng.standard_normal(half), rng.standard_normal(half - 1)
    d, e = (d + d[::-1]) / 2, (e + e[::-1]) / 2
    return _tridiagonal(np.concatenate([d, d]), np.concatenate([e, [coupling], e]))


def _hard_cases() -> dict:
    rng = np.random.default_rng(36)
    split = [rng.standard_normal(n) for n in (21, 20)]
    cases = {
        # e[m-1] = 0: T is already two blocks, and rho = 0 deflates all of z
        "split_odd": _tridiagonal(split[0], np.where(np.arange(20) == 9, 0.0, 1.0)),
        # every component of z negligible against rho at the tear
        "all_deflated": _tridiagonal(split[1], np.where(np.arange(19) == 9, 1e-30, 0.5)),
        "diagonal": np.diag(rng.standard_normal(16)),
        "zero": np.zeros((12, 12)),
        # exactly repeated eigenvalues across the halves: close pairs deflate
        # by Givens rotations
        "repeated_across_halves": _persymmetric_pair(rng, 12, 1e-14),
        "repeated_and_coupled": _persymmetric_pair(rng, 9, 0.7),
        # Wilkinson's W21+: pairs of eigenvalues closer than 1e-14
        "wilkinson_21": _tridiagonal(np.abs(np.arange(-10.0, 11.0)), np.ones(20)),
        "ones": np.ones((9, 9)),
    }
    for sign in (1, -1):
        a = rng.standard_normal((31, 31))
        cases[f"coupling_{'+' if sign > 0 else '-'}max"] = sign * cli.MAX_COUPLING * (a + a.T)
    return cases


def _assert_weights_equal_numpy(a: np.ndarray, y: np.ndarray, values, overlaps) -> None:
    """Eigenvalues within 1e-14 of the largest; weights |<n|y>|^2 summed over levels
    within 1e-10 (relative) of each other, so that no basis inside such a
    cluster matters, within the 1e-14 ||A|| / gap by which any backward stable
    solve may turn an eigenvector whose nearest other cluster lies gap away."""
    w, v = np.linalg.eigh(a)
    scale = np.max(np.abs(w), initial=0.0)
    assert np.max(np.abs(values - w), initial=0.0) <= 1e-14 * scale
    assert overlaps.dtype == y.dtype and np.all(np.isfinite(overlaps))
    if not len(w):
        return
    starts = np.concatenate([[0], np.flatnonzero(np.diff(w) > 1e-10 * scale) + 1])
    want = np.add.reduceat(np.abs(v.T @ y) ** 2, starts)
    got = np.add.reduceat(np.abs(overlaps) ** 2, starts)
    gap = np.full(len(starts), np.inf)
    between = np.diff(w[starts])
    gap[:-1] = between
    gap[1:] = np.minimum(gap[1:], between)
    assert np.all(np.abs(got - want) <= 1e-14 * np.vdot(y, y).real * (1 + scale / gap))


@pytest.mark.parametrize("case", list(_hard_cases()))
def test_the_torn_merge_equals_numpy_on_its_hard_cases(monkeypatch, case):
    # oracle: np.linalg.eigh on the block; every case is torn (TEAR set to
    # the smallest block whose halves fit it), for a real and a complex y
    a = _hard_cases()[case]
    monkeypatch.setattr(_lapack, "TEAR", 6)
    torn = []
    solve = _lapack._torn
    monkeypatch.setattr(_lapack, "_torn", lambda *args: torn.append(1) or solve(*args))
    rng = np.random.default_rng(len(a))
    real = rng.standard_normal(len(a))
    for y in (real, real + 1j * rng.standard_normal(len(a))):
        _assert_weights_equal_numpy(a, y, *_lapack.eigh(a.T.copy(), y=y))
    assert len(torn) == 2


def test_close_pairs_across_the_halves_deflate_by_rotation(monkeypatch):
    # T0 + T0 glued by 1e-14: each eigenvalue of one half meets its copy in
    # the other, and dlaed2's scan rotates the pairs it finds close
    rotated = []
    scan = _lapack._rotate_close_pairs

    def spy(d, z, rows, keep, tol):
        kept = keep.sum()
        scan(d, z, rows, keep, tol)
        rotated.append(kept - keep.sum())

    monkeypatch.setattr(_lapack, "TEAR", 6)
    monkeypatch.setattr(_lapack, "_rotate_close_pairs", spy)
    a = _hard_cases()["repeated_across_halves"]
    y = np.random.default_rng(1).standard_normal(len(a))
    _assert_weights_equal_numpy(a, y, *_lapack.eigh(a.T.copy(), y=y))
    assert len(rotated) == 1 and rotated[0] > 0


@pytest.mark.parametrize("n", range(2, 6))
def test_the_merge_holds_below_the_smallest_block_it_tears(n):
    # the merge itself at n = 2 to 5 (eigh solves these whole), on the
    # tridiagonal dsytrd leaves, with room for its halves outside the block
    rng = np.random.default_rng(n)
    t = _tridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
    y = rng.standard_normal((2, n))
    values, rows = _lapack._torn(np.diag(t).copy(), np.diag(t, 1).copy(), y.copy(), np.empty(64))
    _assert_weights_equal_numpy(t, y[0], values, rows[0])
    _assert_weights_equal_numpy(t, y[0] + 1j * y[1], values, rows[0] + 1j * rows[1])


@pytest.mark.parametrize("n", [26, 51, 512, 513, 800, 801])
def test_the_torn_eigenvalues_are_dstedcs_bits_but_where_dlaed0_divides_deeper(n):
    # oracle: dstedc('I') on the whole random tridiagonal. At n = 801 = 50 * 2^4 + 1
    # dstedc halves T1 (400 rows) down to 13-row leaves, a solve of T1 alone
    # stops at 25 rows, and the bits may differ by rounding. n = 51 = 50 * 2^0 + 1
    # is the smallest such n: dstedc halves T1 (25 rows), which alone is one leaf
    rng = np.random.default_rng(n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    want = d.copy()
    _lapack._stedc(want, e.copy(), np.empty((n, n)), np.empty(1 + 4 * n + n * n),
                   np.empty(3 + 5 * n, np.int64))
    values, _ = _lapack._torn(d, e, np.ones((1, n)), np.empty(n * n))
    if n in (51, 801):
        assert np.max(np.abs(values - want)) <= 1e-14 * np.max(np.abs(want))
    else:
        assert np.array_equal(values, want)


def test_a_merge_whose_halves_do_not_fit_is_refused():
    with pytest.raises(ValueError, match="do not fit"):
        _lapack._torn(np.zeros(5), np.zeros(4), np.zeros((1, 5)), np.empty(25))


@pytest.mark.parametrize("torn", [True, False], ids=["torn", "whole"])
@pytest.mark.parametrize("n", [8, 600])
def test_a_nan_block_on_the_weights_route_raises(monkeypatch, torn, n):
    # never NaN weights, and never a hang: the non-finite tridiagonal is
    # refused before either solve, where dstedc on the whole T would return
    # NaN at n = 600 with info = 0
    monkeypatch.setattr(_lapack, "TEAR", 6 if torn else n + 1)
    with pytest.raises(ConvergenceFailure, match="non-finite tridiagonal"):
        _lapack.eigh(np.full((n, n), np.nan), y=np.ones(n))


def test_a_solve_forms_v_or_its_overlaps_not_both():
    with pytest.raises(ValueError, match="not both"):
        _lapack.eigh(np.eye(3), vectors=True, y=np.ones(3))


@pytest.mark.parametrize(
    "route, bound", [("values", 0.25), ("vectors", 2.25), ("real_y", 0.25), ("complex_y", 0.25)]
)
def test_each_route_allocates_at_most_its_stated_blocks(monkeypatch, route, bound):
    # beyond the block it solves in: V and dsyevd's workspace with vectors,
    # O(n) for V^T y, whose torn solve keeps its halves, their workspace and
    # the merge's deltas in the block (0.21 here, mostly dsytrd's n x 32
    # workspace and two 32-row strips the merge reads the deltas in), and
    # O(n) for the eigenvalues alone.
    # Bounds in units of the block, 8 n^2 bytes, on the even sector of a
    # 10-site chain
    even, _ = _sector_blocks(monkeypatch, 10)
    n = len(even)
    assert n == 528 >= _lapack.TEAR
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
