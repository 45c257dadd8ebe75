"""Diagonalization, Haar scrambling, occupied-spectrum statistics, and timescales.

A quench from |psi0> occupies the spectrum with weights |c_n|^2 where
c_n = <n|psi0>; eigenbasis readers take the weights alone and work in the
quench-aligned eigenbasis, where every c_n is sqrt(weights[n]). Two times
govern the subsequent dynamics: the Boltzmann time 1/Delta_E set by the
occupied energy width, and the Heisenberg time 1/delta_eps set by the mean
spacing of occupied levels, which shrinks exponentially with system size.
Units are hbar = k_B = 1.

Every chain is diagonalized on one route: in the sectors of a symmetry of
its basis states, the site reflection where its diagonal allows it and the
trivial symmetry otherwise (see diagonalize). An eigensystem holds its
eigenvectors in one of two forms behind the same three reads, V x, V^dag y
and a block of columns of V: the sector blocks of a chain, or, for a seeded
Haar-random basis (the scrambled chain and the GOE partner), its
Householder reflectors. A sector that the quench leaves empty may be kept
as its eigenvalues alone. A caller that reads the quench's weights and no
eigenvector asks diagonalize for the occupied spectrum itself, and one that
reads the eigenvalues alone for those, as eigvals_only asks scipy's eigh for
less than a full solve; a random partner's weights are drawn in law, with no
basis at all. Every block is solved in place on one path, dsyevd's own steps
in the LAPACK of numpy's OpenBLAS, which for the weights alone stop short
of every eigenvector (see _lapack.eigh), and the GOE partner's
eigenvalues are those of a tridiagonal model, solved by the same dsterf,
with no dense matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .core import PureState, _all_finite, _freeze, _matmul
from .errors import DegenerateWidth, DimensionMismatch, TooFewOccupied
from .hamiltonian import SpinChain, _mirror
from .params import DEFAULT_WEIGHT_FLOOR

_SQRT_HALF = math.sqrt(0.5)
_PANEL = 64  # reflectors per compact-WY panel


def _adjoint_matmul(mat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mat^dag y, read as (mat^T y^*)^* so a complex mat is never copied."""
    if np.iscomplexobj(mat):
        return (mat.T @ y.conj()).conj()
    return _matmul(mat.T, y)


def _row_scaled(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """x with row i times scale[i], as a new array."""
    return x * (scale if x.ndim == 1 else scale[:, None])


def _symmetry_classes(chain: SpinChain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pairs, partners, palindromes) of the symmetry diagonalize uses on basis states.

    The site reflection R maps basis state i to its bit reversal, and so
    maps the transverse field to itself. Where the chain's diagonal is
    invariant under R to the bit, H commutes with R: pairs holds the states
    i < R(i) in ascending order, partners their images R(i), and palindromes
    the states with i = R(i). Otherwise, as for a disordered chain, the
    classes are those of the trivial symmetry: no pairs, and every state its
    own palindrome.
    """
    idx = np.arange(chain.dim)
    mirror = _mirror(chain.n_sites)
    if not np.array_equal(chain.diagonal, chain.diagonal[mirror]):
        return idx[:0], idx[:0], idx
    pairs = np.nonzero(idx < mirror)[0]
    return pairs, mirror[pairs], np.nonzero(idx == mirror)[0]


def _sector_parts(
    y: np.ndarray, pairs: np.ndarray, partners: np.ndarray, palindromes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd sector components of site-basis y (see SectorVectors)."""
    head, tail = y[pairs], y[partners]
    even = np.concatenate([(head + tail) * _SQRT_HALF, y[palindromes]])
    return even, (head - tail) * _SQRT_HALF


def _refuse_amplitude(name: str, part: np.ndarray) -> None:
    if np.any(part != 0):
        raise ValueError(f"input has amplitude in the unsolved {name} sector")


@dataclass(frozen=True)
class SectorVectors:
    """Eigenvectors of a chain, kept as its two sector blocks.

    The classes are those the solve used (see _symmetry_classes): each pair
    p has its partner R p, and the palindromes are their own images. The
    even sector is spanned by (|p> + |R p>) / sqrt(2) for each pair p, then
    by |q> for each palindrome q; the odd sector by (|p> - |R p>) / sqrt(2).
    With no pairs the even block is V itself and the odd one is empty.
    Column k of u_even (u_odd) holds the sector coefficients of the
    eigenvector at level levels[k] (levels[n_even + k]). V itself is never
    formed: apply and apply_adjoint take one product per sector, and
    columns gathers a block of columns with no product at all. A solved
    block is the array its sector block was built in, overwritten by the
    block's eigenvectors (see _lapack.eigh).

    A block given as None is unsolved: the quench leaves that sector empty,
    so only its eigenvalues were computed. The reads stay exact wherever they
    do not reach it: apply_adjoint writes zeros at its levels and apply skips
    its product, each raising ValueError on input with amplitude in it, and
    columns raises for its levels.
    """

    u_even: np.ndarray | None
    u_odd: np.ndarray | None
    levels: np.ndarray
    pairs: np.ndarray = field(repr=False)
    partners: np.ndarray = field(repr=False)
    palindromes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels)
        basis = np.arange(levels.size)
        if not np.array_equal(np.sort(levels), basis):
            raise DimensionMismatch("levels must be a permutation of the basis")
        classes = [np.asarray(c) for c in (self.pairs, self.partners, self.palindromes)]
        pairs, partners, palindromes = classes
        if pairs.size != partners.size or not np.array_equal(np.sort(np.concatenate(classes)), basis):
            raise DimensionMismatch("pairs, partners and palindromes must split the basis")
        sizes = (pairs.size + palindromes.size, pairs.size)
        blocks = (self.u_even, self.u_odd)
        if any(u is not None and u.shape != (n, n) for u, n in zip(blocks, sizes)):
            raise DimensionMismatch(
                f"sector blocks {getattr(self.u_even, 'shape', None)} and "
                f"{getattr(self.u_odd, 'shape', None)} do not fit sectors of "
                f"{sizes[0]} and {sizes[1]} states"
            )
        if not all(_all_finite(u) for u in blocks if u is not None):
            raise ValueError("eigenvectors must be finite")
        for name, value in (
            ("u_even", self.u_even), ("u_odd", self.u_odd), ("levels", levels),
            ("pairs", pairs), ("partners", partners), ("palindromes", palindromes),
        ):
            if value is not None:
                object.__setattr__(self, name, _freeze(value))

    @property
    def dim(self) -> int:
        return self.levels.size

    @property
    def shape(self) -> tuple[int, int]:
        return self.dim, self.dim

    def _sectors(self) -> tuple[tuple[str, np.ndarray | None, np.ndarray], ...]:
        """(name, block or None, levels) of the even, then the odd sector."""
        n_even = self.pairs.size + self.palindromes.size
        return (
            ("even", self.u_even, self.levels[:n_even]),
            ("odd", self.u_odd, self.levels[n_even:]),
        )

    def _to_site(self, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """Site-basis vectors of even and odd sector coefficients (overwritten)."""
        n_pairs = self.pairs.size
        out = np.empty((self.dim,) + even.shape[1:], dtype=np.result_type(even, odd))
        out[self.palindromes] = even[n_pairs:]
        head = even[:n_pairs]
        head *= _SQRT_HALF
        odd *= _SQRT_HALF
        out[self.pairs] = head + odd
        out[self.partners] = np.subtract(head, odd, out=odd)
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """V x: each sector's rows of x through its block, then into the site basis.

        An unsolved sector's rows must be zero, and stand for its product.
        """
        parts = []
        for name, u, levels in self._sectors():
            rows = x[levels]
            if u is None:
                _refuse_amplitude(name, rows)
                parts.append(np.zeros(rows.shape, dtype=np.result_type(rows, float)))
            else:
                parts.append(_matmul(u, rows))
        return self._to_site(*parts)

    def columns(self, block: slice | np.ndarray) -> np.ndarray:
        """V[:, block], the block's sector columns put into the site basis with no product."""
        k = np.empty_like(self.levels)
        k[self.levels] = np.arange(self.dim)
        k = k[block]  # the sector column of each level in the block
        parts, start = [], 0
        for name, u, levels in self._sectors():
            mine = (k >= start) & (k < start + levels.size)
            part = np.zeros((levels.size, k.size))
            if np.any(mine):
                if u is None:
                    raise ValueError(f"columns at levels of the unsolved {name} sector")
                part[:, mine] = u[:, k[mine] - start]
            parts.append(part)
            start += levels.size
        return self._to_site(*parts)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """V^dag y: the sector components of y, each through its block transposed.

        An unsolved sector's components must be zero, and its levels read 0.
        """
        parts = _sector_parts(y, self.pairs, self.partners, self.palindromes)
        out = np.empty(y.shape, dtype=np.result_type(y, float))
        for (name, u, levels), part in zip(self._sectors(), parts):
            if u is None:
                _refuse_amplitude(name, part)
                out[levels] = 0.0
            else:
                out[levels] = _matmul(u.T, part)
        return out


@dataclass(frozen=True)
class HouseholderVectors:
    """A basis V = H_0 H_1 ... H_{d-2} diag(phases), kept as its reflectors.

    H_k = I - 2 u_k u_k^dag with a unit u_k supported on rows k and below.
    The reflectors sit in compact-WY panels of _PANEL (Schreiber & Van Loan,
    SIAM J. Sci. Stat. Comput. 10, 1989): panel p starts at row
    start = p _PANEL, holds y[:, j] = u_{start+j}[start:], and with the upper
    triangular t its product is I - y t y^dag on rows start and below. V is
    never formed: apply and apply_adjoint take two GEMMs per panel, and
    columns applies only the panels that reach the block, since
    V e_j = H_0 ... H_j phases[j] e_j.
    """

    ys: tuple[np.ndarray, ...]
    ts: tuple[np.ndarray, ...]
    phases: np.ndarray

    def __post_init__(self) -> None:
        dim = self.phases.size
        starts = range(0, max(dim - 1, 0), _PANEL)
        if self.phases.ndim != 1 or len(self.ys) != len(starts) or len(self.ts) != len(starts):
            raise DimensionMismatch(f"{len(self.ys)} panels do not fit dimension {dim}")
        for start, y, t in zip(starts, self.ys, self.ts):
            size = min(_PANEL, dim - 1 - start)
            if y.shape != (dim - start, size) or t.shape != (size, size):
                raise DimensionMismatch(
                    f"panel at row {start} has shapes {y.shape} and {t.shape}"
                )
        if not all(_all_finite(a) for a in (self.phases, *self.ys, *self.ts)):
            raise ValueError("eigenvectors must be finite")
        for a in (self.phases, *self.ys, *self.ts):
            _freeze(a)

    @property
    def dim(self) -> int:
        return self.phases.size

    @property
    def shape(self) -> tuple[int, int]:
        return self.dim, self.dim

    def _panels(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(start, y, t) of each panel, first first."""
        return list(zip(range(0, _PANEL * len(self.ys), _PANEL), self.ys, self.ts))

    def _through_panels(self, out: np.ndarray, stop: int | None = None) -> np.ndarray:
        """out overwritten by P_0 ... P_{stop-1} out, P_p the product of panel p."""
        for start, y, t in reversed(self._panels()[:stop]):
            seg = out[start:]
            seg -= _matmul(y, _matmul(t, _adjoint_matmul(y, seg)))
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """V x: the phases, then the panels, last first."""
        return self._through_panels(_row_scaled(x, self.phases))

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """V^dag y: the adjoint panels, first first, then the conjugate phases."""
        out = np.array(y, dtype=np.result_type(y, self.phases))
        for start, yp, t in self._panels():
            seg = out[start:]
            seg -= _matmul(yp, _adjoint_matmul(t, _adjoint_matmul(yp, seg)))
        return _row_scaled(out, self.phases.conj())

    def columns(self, block: slice | np.ndarray) -> np.ndarray:
        """V[:, block]: phases[j] e_j through the panels up to the block's last column."""
        cols = np.arange(self.dim)[block]
        out = np.zeros((self.dim, cols.size), dtype=self.phases.dtype)
        out[cols, np.arange(cols.size)] = self.phases[cols]
        if cols.size == 0:
            return out
        return self._through_panels(out, int(cols.max()) // _PANEL + 1)


def _haar_reflectors(dim: int, seed: int, real: bool) -> HouseholderVectors:
    """A seeded Haar basis on O(dim) (real) or U(dim) (complex), as reflectors.

    Householder QR of a Ginibre matrix, with R's diagonal made positive,
    gives a Haar Q; column k of the matrix reduced so far is a fresh
    Gaussian vector of length dim - k, independent of the reflectors before
    it, so no matrix is formed (Stewart, SIAM J. Numer. Anal. 17, 403
    (1980); Mezzadri, Notices AMS 54, 2007). Child p of SeedSequence(seed)
    fills panel p's (dim - start) x size block B with standard normals
    (complex: interleaved (real, imaginary) pairs), on the _lapack.share
    workers, and reflector start + j reads x = B[j:, j]. With phi the phase
    of x[0], u = x + phi |x| e_0, normalized, maps x to -phi |x| e_0, so
    -phi is its phase; the child after the panels draws one more normal
    (pair), whose phase is the last. The calling thread then makes each
    block into its reflectors and t in one pass, with no BLAS beside the
    workers.
    """
    dtype = float if real else complex
    starts = range(0, max(dim - 1, 0), _PANEL)
    ys = [np.empty((dim - start, min(_PANEL, dim - 1 - start)), dtype) for start in starts]
    last = np.empty(1, dtype)
    blocks = [a.view(float) for a in (*ys, last)]
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(blocks))]
    _lapack.share(len(blocks), lambda w, k: rngs[k].standard_normal(out=blocks[k]))
    phases, ts = np.empty(dim, dtype=dtype), []
    for start, y in zip(starts, ys):
        size = y.shape[1]
        y[:size][np.triu_indices(size, 1)] = 0  # reflector j reads rows j on
        head = np.diagonal(y).copy()
        flat = y.view(float)  # a complex column is two adjacent real ones
        norm = np.sqrt(np.einsum("ij,ij->j", flat, flat).reshape(size, -1).sum(axis=1))
        mag = np.abs(head)
        phi = np.divide(head, mag, out=np.ones_like(head), where=mag > 0)
        phases[start : start + size] = -phi
        y[np.arange(size), np.arange(size)] += phi * norm
        # |x + phi |x| e_0|^2 = 2 |x| (|x| + |x[0]|)
        y *= 1.0 / np.sqrt(2.0 * norm * (norm + mag))
        # T^{-1} = strict upper part of y^dag y + I / 2 (each tau is 2)
        tinv = np.triu(_adjoint_matmul(y, y), 1)
        tinv[np.diag_indices(size)] = 0.5
        ts.append(np.linalg.inv(tinv))
    if dim > 0:
        phases[dim - 1] = last[0] / abs(last[0]) if last[0] != 0 else 1.0
    return HouseholderVectors(tuple(ys), tuple(ts), phases)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the eigenvector columns, by sectors or by reflectors.

    Every reader goes through eigenvectors.apply (V x),
    eigenvectors.apply_adjoint (V^dag y) or eigenvectors.columns (a block
    of columns of V), so any object with those reads and a dim will do; a
    bare array of columns is refused with TypeError.
    """

    eigenvalues: np.ndarray
    eigenvectors: SectorVectors | HouseholderVectors

    def __post_init__(self) -> None:
        ev = np.ascontiguousarray(self.eigenvalues, dtype=float)
        vec = self.eigenvectors
        if isinstance(vec, np.ndarray):
            raise TypeError("eigenvectors must be SectorVectors or HouseholderVectors, not an array")
        if ev.ndim != 1 or vec.dim != ev.size:
            raise DimensionMismatch(
                f"eigenvectors of dimension {vec.dim} do not match {ev.size} eigenvalues"
            )
        if not _all_finite(ev):
            raise ValueError("eigenvalues and eigenvectors must be finite")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", _freeze(ev))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class SpectralData:
    """Occupied-spectrum weights of an initial state.

    weights[n] = |c_n|^2 with c_n = <n|psi0>. In the quench-aligned
    eigenbasis, where every c_n is real and nonnegative, the overlaps
    themselves are sqrt(weights).
    """

    eigenvalues: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        ev = np.ascontiguousarray(self.eigenvalues, dtype=float)
        w = np.ascontiguousarray(self.weights, dtype=float)
        if ev.shape != w.shape:
            raise DimensionMismatch("eigenvalues and weights must share a shape")
        if not (np.all(np.isfinite(ev)) and np.all(np.isfinite(w))):
            raise ValueError("eigenvalues and weights must be finite")
        total = w.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {total!r}, expected 1 within 1e-10")
        object.__setattr__(self, "eigenvalues", _freeze(ev))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def amplitudes(self) -> np.ndarray:
        """The aligned overlaps c_n = sqrt(weights[n])."""
        return np.sqrt(self.weights)

    def occupied_mask(self, weight_floor: float) -> np.ndarray:
        return self.weights > weight_floor


@dataclass(frozen=True)
class Timescales:
    """Energy width and the two characteristic times of a quench."""

    energy_mean: float
    energy_width: float
    boltzmann_time: float
    mean_occupied_spacing: float
    heisenberg_time: float


@dataclass(frozen=True)
class GaussianFit:
    """Weighted moments of the occupied density of states and a normal-CDF sup distance."""

    mean: float
    sigma: float
    skewness: float
    excess_kurtosis: float
    max_cdf_deviation: float


def diagonalize(
    chain: SpinChain, psi0: PureState | None = None, vectors: bool = True
) -> EigenSystem | SpectralData | np.ndarray:
    """Eigendecomposition of a chain, or with vectors=False its quench's spectrum or eigenvalues.

    The sectors are those of the classes the chain's diagonal allows (see
    _symmetry_classes): the site reflection's where the diagonal is
    invariant, or else the trivial symmetry's, whose even block is H itself
    and whose odd block is empty. With f = sqrt(2) on paired states and 1 on
    palindromes, the even block is H_even[a, b] = f_a f_b / 2 (H[r_a, r_b] +
    H[r_a, R r_b]) and the odd block H_odd[a, b] = H[r_a, r_b] - H[r_a, R r_b],
    for the representatives r of the sector vectors (see SectorVectors). A
    flip of r_b that lands on basis state i therefore adds flip * f_b / f_i
    to the even vector of i, and flip times +1 on a pair, -1 on a partner and
    0 on a palindrome to the odd vector of i. Each block is built and solved
    in place in turn (see _block_eigh), and the two block spectra merge in
    ascending order. Each block is one _lapack.eigh call, of three kinds:

    - a sector where psi0's components (formed as apply_adjoint forms them)
      are all exactly zero, as the odd sector of any reflection-symmetric
      state, is solved for its eigenvalues alone and kept unsolved: no
      reader of that quench reaches its eigenvectors;
    - otherwise, with vectors=True, its eigenvectors stay as the block;
    - otherwise, with vectors=False, for a caller that reads the quench's
      weights and no eigenvector, it is solved for its eigenvalues and its
      overlaps with psi0 alone, or with no psi0 for its eigenvalues alone.
      A block of at least _lapack.TEAR rows is then solved within its own
      memory, with no eigenvector of its tridiagonal either.

    With vectors=True the result is the EigenSystem, its eigenvectors kept
    as SectorVectors. With vectors=False it is the SpectralData of the
    quench, the weights of V^T psi0 as occupied_spectrum would read them off
    the full solve (its eigenvalues to the bit on every sector block tested,
    its weights within rounding), or with no psi0 the eigenvalues alone (by
    dsterf, so within rounding of the other routes', not to the bit).
    """
    pairs, partners, palindromes = _symmetry_classes(chain)
    dim, n_pairs = chain.dim, pairs.size
    if psi0 is None:
        parts = (None, None)
    elif psi0.amplitudes.size != dim:
        raise DimensionMismatch(f"chain dimension {dim} does not match state {psi0.amplitudes.size}")
    else:
        parts = _sector_parts(psi0.amplitudes, pairs, partners, palindromes)
    slot = np.zeros(dim, dtype=np.int64)
    slot[pairs] = slot[partners] = np.arange(n_pairs)
    slot[palindromes] = n_pairs + np.arange(palindromes.size)
    f = np.ones(dim)
    f[pairs] = f[partners] = math.sqrt(2.0)
    states = np.concatenate([pairs, palindromes])
    ev_even, u_even, c_even = _block_eigh(
        _sector_block(chain, states, slot, f[states], 1.0 / f), parts[0], vectors
    )

    parity = np.zeros(dim)
    parity[pairs], parity[partners] = 1.0, -1.0
    slot[palindromes] = 0  # a flip onto a palindrome adds 0 to the odd block
    ev_odd, u_odd, c_odd = _block_eigh(
        _sector_block(chain, pairs, slot, np.ones(n_pairs), parity), parts[1], vectors
    )

    ev = np.concatenate([ev_even, ev_odd])
    order = np.argsort(ev, kind="stable")
    if not vectors:
        return ev[order] if psi0 is None else _spectral_data(ev[order], np.concatenate([c_even, c_odd])[order])
    levels = np.empty(dim, dtype=np.int64)
    levels[order] = np.arange(dim)
    return EigenSystem(ev[order], SectorVectors(u_even, u_odd, levels, pairs, partners, palindromes))


def _sector_block(chain: SpinChain, states: np.ndarray, slot: np.ndarray,
                  scale: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The transpose of the block of H on the sector vectors built on `states`.

    Column b of the block is the sector vector on states[b]. The diagonal is
    read on it, and each flip of one of its bits lands on a basis state i,
    which belongs to the sector vector slot[i] and adds flip * scale[b] *
    weight[i] there. The block is symmetric only to rounding, and
    _lapack.eigh reads a matrix from its transpose, so sector vector b is
    written as row b: np.linalg.eigh of the block gives the same bits.
    """
    size = states.size
    rows = np.arange(size)
    block_t = np.zeros((size, size))
    block_t[rows, rows] = chain.diagonal[states]
    for j in range(chain.n_sites):
        image = states ^ (1 << j)
        # one entry per row, so the fancy-indexed += sees no repeat
        block_t[rows, slot[image]] += chain.flip * scale * weight[image]
    return block_t


def _block_eigh(
    block_t: np.ndarray, part: np.ndarray | None, vectors: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """A sector block's eigenvalues, its eigenvectors or None, and its overlaps or None.

    block_t is the block transposed (see _sector_block), and part the
    quench's component in the sector (None for no quench). One _lapack.eigh
    solves it: a sector the quench leaves empty for its eigenvalues alone,
    with overlaps 0; otherwise, with vectors, into its eigenvectors, which
    overwrite block_t; without, for its eigenvalues and V^T part, a part with
    no imaginary component going through as one real column, or with no
    part for its eigenvalues alone.
    """
    empty = part is not None and not np.any(part)
    solve = vectors and not empty
    y = None if vectors or empty or part is None else (part if np.any(part.imag) else part.real)
    ev, overlaps = _lapack.eigh(block_t, vectors=solve, y=y)
    return ev, block_t if solve else None, np.zeros_like(part) if empty else overlaps


def scramble(eig: EigenSystem | SpectralData | np.ndarray, seed: int) -> EigenSystem:
    """The eigenvalues of eig (or the array eig of them) with seeded Haar-random eigenvectors W.

    Same spectrum, no locality left. Conjugating H = V E V^dag by a Haar
    unitary U gives the eigenvectors U V, and Haar measure is
    right-invariant, so for any fixed V that product is itself a Haar
    unitary: the seed draws W directly, as complex reflectors (see
    _haar_reflectors), and eig is read for its eigenvalues alone.
    """
    ev = getattr(eig, "eigenvalues", eig)
    return EigenSystem(ev, _haar_reflectors(ev.size, seed, real=False))


def scrambled_spectrum(eigenvalues: np.ndarray, seed: int) -> SpectralData:
    """The eigenvalues with the weights of any quench under scramble, drawn in law.

    For Haar W and a unit psi0, W^dag psi0 is uniform on the unit sphere,
    so the weights are |z|^2 / ||z||^2, Dirichlet(1, ..., 1), for the
    complex Gaussian z that default_rng(seed) draws as interleaved (real,
    imaginary) pairs. The law of occupied_spectrum(scramble(...), psi0), in
    O(dim), but not its realization.
    """
    z = np.random.default_rng(seed).standard_normal(2 * eigenvalues.size).view(complex)
    return _spectral_data(eigenvalues, z)


def _goe_tridiagonal(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal and off-diagonal of a GOE tridiagonal draw, at mean 0 and width 1.

    Dumitriu & Edelman's beta = 1 model (J. Math. Phys. 43, 5830 (2002)):
    the diagonal N(0, 2) and the off-diagonal chi_{dim-1}, ..., chi_1, all
    over sqrt(2), has exactly the eigenvalue law of a GOE matrix (G + G^T) / 2.
    The draw reads dim standard normals, then the dim - 1 chi-squares. It is
    shifted by its eigenvalue mean tr T / dim and scaled by its eigenvalue
    width, sqrt((sum (d_i - mean)^2 + 2 sum e_i^2) / dim) = ||T - mean I||_F /
    sqrt(dim), with no solve.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    d = rng.standard_normal(dim)
    e = np.sqrt(rng.chisquare(np.arange(dim - 1, 0, -1)) / 2.0)
    d -= d.mean()
    width = math.sqrt((d @ d + 2.0 * (e @ e)) / dim)
    scale = 1.0 / width if width > 0 else 0.0
    return d * scale, e * scale


def goe_eigensystem(dim: int, seed: int) -> EigenSystem:
    """A seeded GOE eigensystem at eigenvalue mean 0 and width 1.

    A GOE matrix's eigenvalues and eigenvectors are independent, and its
    eigenvectors are Haar distributed on O(dim) (Mehta, Random Matrices, 3rd
    ed., ch. 3). default_rng(seed) draws the eigenvalues, as those of the
    tridiagonal model (see _goe_tridiagonal) solved by dsterf in O(dim^2),
    and SeedSequence(seed)'s children the eigenvectors as real reflectors
    (see _haar_reflectors): exact in law, with no dense matrix and no
    eigenvector solve. The affine map to other moments keeps the eigenvectors.
    """
    ev = _lapack.sterf(*_goe_tridiagonal(dim, np.random.default_rng(seed)))
    return EigenSystem(ev, _haar_reflectors(dim, seed, real=True))


def goe_spectrum(psi0: PureState, seed: int) -> SpectralData:
    """The spectrum of a quench under goe_eigensystem, its weights drawn in law.

    default_rng(seed) draws the eigenvalues of goe_eigensystem(dim, seed) to
    the bit, then reads on for the weights |O^T psi0|^2 of a Haar orthogonal
    O (see _frame_overlaps): its law, in O(dim), but not its realization.
    """
    rng = np.random.default_rng(seed)
    ev = _lapack.sterf(*_goe_tridiagonal(psi0.amplitudes.size, rng))
    return _spectral_data(ev, _frame_overlaps(psi0.amplitudes, rng))


def _frame_overlaps(amps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """O^T amps for a Haar orthogonal O, drawn in law from rng's next normals.

    With amps = a + i b and the thin QR [a b] = Q R ([a] = Q R if b = 0),
    O^T Q is a uniform orthonormal frame: Q's k columns have the law of k
    Gaussian columns G, read one after another, made orthonormal by
    Gram-Schmidt, so O^T [a b] has the law of G R.
    """
    cols = [amps.real] + ([amps.imag] if np.any(amps.imag) else [])
    q, r = np.linalg.qr(np.transpose(cols))
    g, s = np.linalg.qr(rng.standard_normal((q.shape[1], amps.size)).T)
    c = (g * np.sign(np.diagonal(s))) @ r  # Gram-Schmidt keeps s's diagonal positive
    return c[:, 0] + 1j * c[:, 1] if c.shape[1] == 2 else c[:, 0]


def _overlaps(eig: EigenSystem, psi0: PureState) -> np.ndarray:
    """c = V^dag psi0."""
    if eig.dim != psi0.amplitudes.size:
        raise DimensionMismatch(
            f"eigensystem dimension {eig.dim} does not match state {psi0.amplitudes.size}"
        )
    return eig.eigenvectors.apply_adjoint(psi0.amplitudes)


def _spectral_data(eigenvalues: np.ndarray, overlaps: np.ndarray) -> SpectralData:
    """The eigenvalues with the weights |overlaps|^2, normalized to sum 1."""
    w = np.abs(overlaps) ** 2
    return SpectralData(eigenvalues, w / w.sum())


def occupied_spectrum(eig: EigenSystem, psi0: PureState) -> SpectralData:
    """The eigenvalues and the gauge-free weights |<n|psi0>|^2 of a quench."""
    return _spectral_data(eig.eigenvalues, _overlaps(eig, psi0))


def timescales(
    spec: SpectralData, weight_floor: float = DEFAULT_WEIGHT_FLOOR
) -> Timescales:
    """Energy width, Boltzmann time, occupied level spacing, Heisenberg time.

    The width is the full weighted spectral standard deviation; the spacing
    averages only over levels carrying weight above weight_floor, since
    levels without weight never contribute to dephasing.
    """
    e, w = spec.eigenvalues, spec.weights
    mean = float(np.sum(w * e))
    var = float(np.sum(w * (e - mean) ** 2))
    width = math.sqrt(max(var, 0.0))
    if width < 1e-12:
        raise DegenerateWidth(
            "energy width is numerically zero (eigenstate initial condition)"
        )
    occ = spec.occupied_mask(weight_floor)
    count = int(occ.sum())
    if count < 2:
        raise TooFewOccupied(f"only {count} levels above weight floor {weight_floor}")
    eo = e[occ]
    spacing = float(eo.max() - eo.min()) / (count - 1)
    return Timescales(
        energy_mean=mean,
        energy_width=width,
        boltzmann_time=1.0 / width,
        mean_occupied_spacing=spacing,
        heisenberg_time=1.0 / spacing,
    )


def _ndtr(z: float) -> float:
    """Standard normal CDF with the branches of the Cephes ndtr.

    With x = z / sqrt(2), the center |x| < 1/sqrt(2) uses 0.5 + 0.5 erf(x);
    the tails use 0.5 erfc(|x|), reflected for x > 0, so far-left values
    keep their size instead of cancelling to 0 in 0.5 + 0.5 erf(x).
    """
    x = z * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def dos_fit(spec: SpectralData, weight_floor: float = DEFAULT_WEIGHT_FLOOR) -> GaussianFit:
    """Gaussianity diagnostics of the occupied density of states.

    Weighted skewness and excess kurtosis of rho(E) = sum_n |c_n|^2
    delta(E - eps_n), plus the sup-norm distance between the weighted
    empirical CDF and the normal CDF with the fitted mean and sigma, the
    latter evaluated level by level through the Cephes branches of _ndtr.
    """
    occ = spec.occupied_mask(weight_floor)
    if int(occ.sum()) < 10:
        raise TooFewOccupied(
            f"need at least 10 occupied levels, found {int(occ.sum())}"
        )
    e = spec.eigenvalues[occ]
    w = spec.weights[occ]
    w = w / w.sum()

    mean = float(np.sum(w * e))
    var = float(np.sum(w * (e - mean) ** 2))
    sigma = math.sqrt(max(var, 0.0))
    if sigma == 0.0:
        raise DegenerateWidth("occupied spectrum has zero width")
    z = (e - mean) / sigma
    skew = float(np.sum(w * z**3))
    kurt = float(np.sum(w * z**4) - 3.0)

    order = np.argsort(e, kind="stable")
    zs = z[order]
    cum = np.cumsum(w[order])
    fitted = np.array([_ndtr(v) for v in zs.tolist()])
    # the empirical CDF jumps at each level: compare both jump sides
    below = np.concatenate([[0.0], cum[:-1]])
    dev = float(max(np.max(np.abs(cum - fitted)), np.max(np.abs(below - fitted))))
    return GaussianFit(
        mean=mean,
        sigma=sigma,
        skewness=skew,
        excess_kurtosis=kurt,
        max_cdf_deviation=dev,
    )
