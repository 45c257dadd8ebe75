import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quenchlab as ql
from oracles import partial_trace
from quenchlab.errors import (
    DimensionMismatch,
    NonNormalizedLocal,
    RegionOutOfBounds,
)

UP = (1.0, 0.0)
DOWN = (0.0, 1.0)
PLUS = (1.0 / np.sqrt(2), 1.0 / np.sqrt(2))


def random_state(seed: int, n: int) -> ql.PureState:
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amp /= np.linalg.norm(amp)
    return ql.PureState(amp, ql.HilbertSpec(n))


def test_hilbert_spec_dim():
    assert ql.HilbertSpec(3).dim == 8
    with pytest.raises(ValueError):
        ql.HilbertSpec(0)
    with pytest.raises(ValueError):
        ql.HilbertSpec(ql.MAX_SITES + 1)


def test_pure_state_checks_norm_and_shape():
    spec = ql.HilbertSpec(2)
    with pytest.raises(ValueError):
        ql.PureState(np.array([1.0, 1.0, 0.0, 0.0]), spec)
    with pytest.raises(DimensionMismatch):
        ql.PureState(np.array([1.0, 0.0]), spec)
    psi = ql.PureState(np.array([1.0, 0.0, 0.0, 0.0]), spec)
    assert not psi.amplitudes.flags.writeable


def test_product_state_all_up():
    psi = ql.product_state([UP] * 4)
    expected = np.zeros(16)
    expected[0] = 1.0
    assert np.allclose(psi.amplitudes, expected, atol=1e-12)


def test_product_state_neel_index():
    # down sites 1 and 3 set bits 1 and 3: index 0b1010 = 10
    psi = ql.product_state([UP, DOWN, UP, DOWN])
    assert abs(psi.amplitudes[10] - 1.0) < 1e-12
    assert np.sum(np.abs(psi.amplitudes) > 1e-12) == 1


def test_product_state_uniform_plus():
    psi = ql.product_state([PLUS] * 3)
    assert np.allclose(psi.amplitudes, 2.0 ** (-1.5), atol=1e-12)


def test_product_state_rejects_bad_local():
    with pytest.raises(NonNormalizedLocal):
        ql.product_state([UP, (0.5, 0.5)])
    with pytest.raises(NonNormalizedLocal):
        ql.product_state([UP, (1.0, 0.0, 0.0)])


@given(st.integers(0, 2**31 - 1), st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_product_state_matches_iterated_kron(seed, n):
    rng = np.random.default_rng(seed)
    locals_ = []
    for _ in range(n):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        locals_.append(v / np.linalg.norm(v))
    psi = ql.product_state(locals_)
    amp = np.ones(1, dtype=complex)
    for v in locals_:
        amp = np.kron(v, amp)
    assert np.allclose(psi.amplitudes, amp, atol=1e-12)


def test_site_region_bounds_and_area():
    r = ql.SiteRegion(0, 3, 8)
    assert r.size == 3
    with pytest.raises(RegionOutOfBounds):
        ql.SiteRegion(3, 3, 8)
    with pytest.raises(RegionOutOfBounds):
        ql.SiteRegion(0, 9, 8)
    with pytest.raises(RegionOutOfBounds):
        ql.SiteRegion(-1, 2, 8)
    with pytest.raises(RegionOutOfBounds):
        ql.SiteRegion(0, 8, 8)  # whole chain has no complement


def test_partial_trace_product_state_is_pure():
    psi = ql.product_state([PLUS, UP, DOWN, PLUS])
    for start, stop in [(0, 1), (1, 3), (2, 4)]:
        rho = partial_trace(psi, ql.SiteRegion(start, stop, 4))
        purity = np.trace(rho @ rho).real
        assert abs(purity - 1.0) < 1e-12


def test_partial_trace_bell_pair():
    bell = ql.PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), ql.HilbertSpec(2))
    rho = partial_trace(bell, ql.SiteRegion(0, 1, 2))
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_schmidt_oracle():
    psi = random_state(11, 6)
    rho = partial_trace(psi, ql.SiteRegion(0, 3, 6))
    lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
    # index = high * 8 + low, so rows are the complement and columns the region
    mat = psi.amplitudes.reshape(8, 8)
    schmidt = np.linalg.svd(mat, compute_uv=False)
    assert np.allclose(lam, schmidt**2, atol=1e-10)


def test_partial_trace_region_from_other_chain():
    psi = ql.product_state([UP, UP])
    with pytest.raises(RegionOutOfBounds):
        partial_trace(psi, ql.SiteRegion(0, 1, 3))


@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.data())
@settings(max_examples=25, deadline=None)
def test_partial_trace_invariants(seed, n, data):
    start = data.draw(st.integers(0, n - 1))
    stop = data.draw(st.integers(start + 1, n))
    assume(not (start == 0 and stop == n))
    psi = random_state(seed, n)
    m = partial_trace(psi, ql.SiteRegion(start, stop, n))
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert abs(np.trace(m).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(m).min() > -1e-12


@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_complementary_spectra_agree(seed, cut):
    n = 6
    psi = random_state(seed, n)
    a = partial_trace(psi, ql.SiteRegion(0, cut, n))
    b = partial_trace(psi, ql.SiteRegion(cut, n, n))
    ea = np.sort(np.linalg.eigvalsh(a))[::-1]
    eb = np.sort(np.linalg.eigvalsh(b))[::-1]
    k = min(ea.size, eb.size)
    assert np.allclose(ea[:k], eb[:k], atol=1e-10)
    assert max(np.abs(ea[k:]).max(initial=0.0), np.abs(eb[k:]).max(initial=0.0)) < 1e-10


# 600 sites of a matrix span two tiles of the Hermitian check: (i, j) and
# (j, i) share the diagonal tile when both are below 512 and sit in the
# two off-diagonal tiles when only one is
@pytest.mark.parametrize("i, j", [(10, 20), (530, 590), (5, 550), (599, 2)], ids=["tile", "last_tile", "across", "across_lower"])
def test_hermitian_check_sees_every_tile(i, j):
    m = np.zeros((600, 600))
    m[i, j] = 1e-11
    with pytest.raises(ValueError, match="not Hermitian within 1e-12"):
        ql.HermitianOperator(m.copy())
    m[i, j] = 1e-12  # the deviation itself, compared as before: not above the tolerance
    ql.HermitianOperator(m.copy())
    m[i, j] = np.nextafter(1e-12, 1.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        ql.HermitianOperator(m.copy())
    m = np.zeros((600, 600), dtype=complex)
    m[i, j] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ql.HermitianOperator(m.copy())


@pytest.mark.parametrize("row", [3, 599])
def test_eigen_system_finiteness_sees_every_row_block(row):
    v = np.eye(600)
    v[row, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        ql.EigenSystem(np.arange(600.0), v)
