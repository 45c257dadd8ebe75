"""Diagonalization, Haar scrambling, occupied-spectrum statistics, and timescales.

A quench from |psi0> occupies the spectrum with weights |c_n|^2 where
c_n = <n|psi0>; eigenbasis readers take the weights alone and work in the
quench-aligned eigenbasis, where every c_n is sqrt(weights[n]). Two times
govern the subsequent dynamics: the Boltzmann time 1/Delta_E set by the
occupied energy width, and the Heisenberg time 1/delta_eps set by the mean
spacing of occupied levels, which shrinks exponentially with system size.
Units are hbar = k_B = 1.

An eigensystem holds its eigenvectors in one of three forms behind the same
three reads, V x, V^dag y and a block of columns of V: a dense matrix; the
two reflection-sector blocks of a chain without disorder; or, for a seeded
Haar-random basis (the scrambled chain and the GOE partner), its Householder
reflectors. Only the dense form holds V itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PureState, _all_finite, _freeze, _matmul
from .errors import (
    ConvergenceFailure,
    DegenerateWidth,
    DimensionMismatch,
    TooFewOccupied,
)
from .hamiltonian import HermitianOperator, ReflectionChain

DEFAULT_WEIGHT_FLOOR = 1e-8
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


@dataclass(frozen=True)
class DenseVectors:
    """Eigenvector columns held as one dense matrix (any memory order)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"eigenvector matrix {m.shape} is not square")
        if not _all_finite(m):
            raise ValueError("eigenvectors must be finite")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        """V x."""
        return _matmul(self.matrix, x)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """V^dag y."""
        return _adjoint_matmul(self.matrix, y)

    def columns(self, block: slice) -> np.ndarray:
        """V[:, block]."""
        return self.matrix[:, block]


def _reflection_classes(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pairs, partners, palindromes) of the site reflection on basis states.

    The reflection R maps basis state i to its bit reversal. pairs holds the
    states i < R(i) in ascending order, partners their images R(i), and
    palindromes the states with i = R(i).
    """
    idx = np.arange(2**n_sites)
    mirror = np.zeros_like(idx)
    for j in range(n_sites):
        mirror |= ((idx >> j) & 1) << (n_sites - 1 - j)
    pairs = np.nonzero(idx < mirror)[0]
    return pairs, mirror[pairs], np.nonzero(idx == mirror)[0]


@dataclass(frozen=True)
class SectorVectors:
    """Eigenvectors of a reflection-symmetric chain, kept as its two sector blocks.

    The even sector is spanned by (|p> + |R p>) / sqrt(2) for each pair p,
    then by |q> for each palindrome q; the odd sector by (|p> - |R p>) /
    sqrt(2). Column k of u_even (u_odd) holds the sector coefficients of the
    eigenvector at level levels[k] (levels[n_even + k]). V itself is never
    formed: apply and apply_adjoint take one half-size product per sector,
    and columns gathers a block of columns with no product at all.
    """

    n_sites: int
    u_even: np.ndarray
    u_odd: np.ndarray
    levels: np.ndarray
    pairs: np.ndarray = field(init=False, repr=False)
    partners: np.ndarray = field(init=False, repr=False)
    palindromes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pairs, partners, palindromes = _reflection_classes(self.n_sites)
        n_even = pairs.size + palindromes.size
        if self.u_even.shape != (n_even, n_even) or self.u_odd.shape != (pairs.size,) * 2:
            raise DimensionMismatch(
                f"sector blocks {self.u_even.shape} and {self.u_odd.shape} do not "
                f"fit a chain of {self.n_sites} sites"
            )
        levels = np.asarray(self.levels)
        if not np.array_equal(np.sort(levels), np.arange(2**self.n_sites)):
            raise DimensionMismatch("levels must be a permutation of the basis")
        if not (_all_finite(self.u_even) and _all_finite(self.u_odd)):
            raise ValueError("eigenvectors must be finite")
        for name, value in (
            ("u_even", self.u_even), ("u_odd", self.u_odd), ("levels", levels),
            ("pairs", pairs), ("partners", partners), ("palindromes", palindromes),
        ):
            object.__setattr__(self, name, _freeze(value))

    @property
    def dim(self) -> int:
        return self.levels.size

    @property
    def shape(self) -> tuple[int, int]:
        return self.dim, self.dim

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
        """V x: each sector's rows of x through its block, then into the site basis."""
        n_even = self.u_even.shape[0]
        even = _matmul(self.u_even, x[self.levels[:n_even]])
        return self._to_site(even, _matmul(self.u_odd, x[self.levels[n_even:]]))

    def columns(self, block: slice) -> np.ndarray:
        """V[:, block], the block's sector columns put into the site basis with no product."""
        n_even = self.u_even.shape[0]
        k = np.empty_like(self.levels)
        k[self.levels] = np.arange(self.dim)
        k = k[block]  # the sector column of each level in the block
        even = np.zeros((n_even, k.size))
        odd = np.zeros((self.pairs.size, k.size))
        is_even = k < n_even
        even[:, is_even] = self.u_even[:, k[is_even]]
        odd[:, ~is_even] = self.u_odd[:, k[~is_even] - n_even]
        return self._to_site(even, odd)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """V^dag y: the sector components of y, each through its block transposed."""
        n_even = self.u_even.shape[0]
        head, tail = y[self.pairs], y[self.partners]
        even = np.concatenate([(head + tail) * _SQRT_HALF, y[self.palindromes]])
        odd = (head - tail) * _SQRT_HALF
        out = np.empty(y.shape, dtype=np.result_type(y, float))
        out[self.levels[:n_even]] = _matmul(self.u_even.T, even)
        out[self.levels[n_even:]] = _matmul(self.u_odd.T, odd)
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

    def columns(self, block: slice) -> np.ndarray:
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
    it, so each is drawn alone and no matrix is formed (Stewart, SIAM J.
    Numer. Anal. 17, 403 (1980); Mezzadri, Notices AMS 54, 2007). For
    k = 0, 1, ..., dim - 1 in turn, reflector k reads the generator's next
    dim - k standard normals (real), or the next 2 (dim - k) as dim - k
    interleaved (real, imaginary) pairs (complex). With x that vector and
    phi the phase of x[0], u_k = x + phi |x| e_0, normalized, maps x to
    -phi |x| e_0, so -phi is phase k; the last vector has length 1 and gives
    phase phi with no reflector.
    """
    rng = np.random.default_rng(seed)
    dtype = float if real else complex

    def draw(size: int) -> tuple[np.ndarray, complex]:
        x = rng.standard_normal(size if real else 2 * size)
        x = x if real else x.view(complex)
        head = abs(x[0])
        return x, (x[0] / head if head > 0 else 1.0)

    phases = np.empty(dim, dtype=dtype)
    ys, ts = [], []
    for start in range(0, dim - 1, _PANEL):
        size = min(_PANEL, dim - 1 - start)
        y = np.zeros((dim - start, size), dtype=dtype)
        for j in range(size):
            x, phi = draw(dim - start - j)
            x[0] += phi * np.linalg.norm(x)
            y[j:, j] = x / np.linalg.norm(x)
            phases[start + j] = -phi
        # T^{-1} = strict upper part of y^dag y + I / 2 (each tau is 2)
        tinv = np.triu(_adjoint_matmul(y, y), 1)
        tinv[np.diag_indices(size)] = 0.5
        ys.append(y)
        ts.append(np.linalg.inv(tinv))
    if dim > 0:
        phases[dim - 1] = draw(1)[1]
    return HouseholderVectors(tuple(ys), tuple(ts), phases)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the eigenvector columns: dense, by sectors or by reflectors.

    An array given as eigenvectors is taken as the dense matrix of columns.
    Every reader goes through eigenvectors.apply (V x),
    eigenvectors.apply_adjoint (V^dag y) or eigenvectors.columns (a block
    of columns of V).
    """

    eigenvalues: np.ndarray
    eigenvectors: DenseVectors | SectorVectors | HouseholderVectors

    def __post_init__(self) -> None:
        ev = np.ascontiguousarray(self.eigenvalues, dtype=float)
        vec = self.eigenvectors
        if isinstance(vec, np.ndarray):
            vec = DenseVectors(vec)
        if ev.ndim != 1 or vec.dim != ev.size:
            raise DimensionMismatch(
                f"eigenvectors of dimension {vec.dim} do not match {ev.size} eigenvalues"
            )
        if not _all_finite(ev):
            raise ValueError("eigenvalues and eigenvectors must be finite")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", _freeze(ev))
        object.__setattr__(self, "eigenvectors", vec)

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


def diagonalize(h: HermitianOperator | ReflectionChain) -> EigenSystem:
    """Full eigendecomposition, in the two reflection sectors where it can.

    A ReflectionChain is diagonalized block by block (see _sector_eigh) and
    keeps its eigenvectors in sector form; every other operator takes one
    dense eigh. Real symmetric input takes the real LAPACK path
    automatically, which is several times faster than the complex one at
    the largest chain sizes.
    """
    try:
        if isinstance(h, ReflectionChain):
            return _sector_eigh(h)
        ev, vec = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return EigenSystem(ev, vec)


def _sector_block(chain: ReflectionChain, states: np.ndarray, slot: np.ndarray,
                  scale: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Block of H on the sector vectors built on `states`, from the chain's terms.

    Column b is the sector vector on states[b]. The diagonal is read on it,
    and each flip of one of its bits lands on a basis state i, which belongs
    to the sector vector slot[i] and adds flip * scale[b] * weight[i] there.
    """
    size = states.size
    cols = np.arange(size)
    block = np.zeros((size, size))
    block[cols, cols] = chain.diagonal[states]
    for j in range(chain.n_sites):
        image = states ^ (1 << j)
        # one entry per column, so the fancy-indexed += sees no repeat
        block[slot[image], cols] += chain.flip * scale * weight[image]
    return block


def _sector_eigh(chain: ReflectionChain) -> EigenSystem:
    """Eigensystem of a chain from its even and odd reflection blocks.

    With f = sqrt(2) on paired states and 1 on palindromes, the even block
    is H_even[a, b] = f_a f_b / 2 (H[r_a, r_b] + H[r_a, R r_b]) and the odd
    block H_odd[a, b] = H[r_a, r_b] - H[r_a, R r_b], for the
    representatives r of the sector vectors (see SectorVectors). A flip of
    r_b that lands on basis state i therefore adds flip * f_b / f_i to the
    even vector of i, and flip times +1 on a pair, -1 on a partner and 0 on
    a palindrome to the odd vector of i. Each block is built and diagonalized
    in turn; the two block spectra merge in ascending order.
    """
    pairs, partners, palindromes = _reflection_classes(chain.n_sites)
    dim, n_pairs = chain.dim, pairs.size
    slot = np.zeros(dim, dtype=np.int64)
    slot[pairs] = slot[partners] = np.arange(n_pairs)
    slot[palindromes] = n_pairs + np.arange(palindromes.size)
    f = np.ones(dim)
    f[pairs] = f[partners] = math.sqrt(2.0)
    states = np.concatenate([pairs, palindromes])
    ev_even, u_even = np.linalg.eigh(_sector_block(chain, states, slot, f[states], 1.0 / f))

    parity = np.zeros(dim)
    parity[pairs], parity[partners] = 1.0, -1.0
    slot[palindromes] = 0  # a flip onto a palindrome adds 0 to the odd block
    ev_odd, u_odd = np.linalg.eigh(_sector_block(chain, pairs, slot, np.ones(n_pairs), parity))

    ev = np.concatenate([ev_even, ev_odd])
    order = np.argsort(ev, kind="stable")
    levels = np.empty(dim, dtype=np.int64)
    levels[order] = np.arange(dim)
    return EigenSystem(ev[order], SectorVectors(chain.n_sites, u_even, u_odd, levels))


def scramble(eig: EigenSystem, seed: int) -> EigenSystem:
    """The spectrum of eig with seeded Haar-random eigenvectors W.

    Same spectrum, no locality left. Conjugating H = V E V^dag by a Haar
    unitary U gives the eigenvectors U V, and Haar measure is
    right-invariant, so for any fixed V that product is itself a Haar
    unitary: the seed draws W directly, as complex reflectors (see
    _haar_reflectors), and eig's eigenvectors are never read.
    """
    return EigenSystem(eig.eigenvalues, _haar_reflectors(eig.dim, seed, real=False))


def goe_eigensystem(op: HermitianOperator, seed: int) -> EigenSystem:
    """The eigenvalues of a GOE matrix with seeded Haar-orthogonal eigenvectors.

    A GOE matrix's eigenvalues and eigenvectors are independent, and its
    eigenvectors are Haar distributed on O(d) (Mehta, Random Matrices, 3rd
    ed., ch. 3); the affine moment matching of build_goe reads only the
    eigenvalues, so this holds for its output too. The eigenvalues therefore
    come from eigvalsh of op, and the eigenvectors from the seed as real
    reflectors (see _haar_reflectors): exact in law, with no eigenvector
    solve. For any other operator the eigenvectors are not its own.
    """
    try:
        ev = np.linalg.eigvalsh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return EigenSystem(ev, _haar_reflectors(op.dim, seed, real=True))


def _overlaps(eig: EigenSystem, psi0: PureState) -> np.ndarray:
    """c = V^dag psi0."""
    if eig.dim != psi0.spec.dim:
        raise DimensionMismatch(
            f"eigensystem dimension {eig.dim} does not match state {psi0.spec.dim}"
        )
    return eig.eigenvectors.apply_adjoint(psi0.amplitudes)


def occupied_spectrum(eig: EigenSystem, psi0: PureState) -> SpectralData:
    """The eigenvalues and the gauge-free weights |<n|psi0>|^2 of a quench."""
    w = np.abs(_overlaps(eig, psi0)) ** 2
    return SpectralData(eig.eigenvalues, w / w.sum())


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
