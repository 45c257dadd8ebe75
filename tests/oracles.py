"""Independent reference routes the suite checks the library against.

None of these is on a path that `quenchlab run` takes: np.linalg.eigh of a
matrix built by hand, kept as DenseVectors (eigenvector columns held as one
dense matrix, behind the library's three reads), the dense chain matrix, the
dense V of a sector or a Householder eigensystem, the Householder reflectors applied one at a time,
the Haar basis of the panel draw replayed one reflector at a time, a
Haar frame's revealed blocks completed to a dense basis,
the symmetrized Gaussian draw (G + G^T) / 2 as a sum of whole matrices,
the typical draw rebuilt serially from its tiles, the block rows of a
dense Hermitian matrix and the dense matrix of an observable's upper
block rows, the Haar unitary of a
dense Ginibre QR, the per-state spectral propagator, the Lanczos propagator,
the entropy from the singular values of one state's Schmidt matrix, the
dense site-basis Paulis and their eigenbasis matrices V^dag sigma V, the
dense slow band, and the dense GOE tridiagonal model. Each is the textbook
form of a quantity the library computes another way (sector blocks built
from the bit structure, products through the sector factors or the
compact-WY panels, one Gaussian block per panel filled on worker threads
and made into its reflectors at once, a typical draw written tile pair by
tile pair into its upper block rows on worker threads, blocks of
states, batched Gram products of the Schmidt matrices and their
batched eigvalsh, Pauli readings of site-basis columns, a cosine sum, the
tridiagonal model's two diagonals solved by dsterf).

The reduced density matrix of one state by partial trace over a SiteRegion
(a contiguous site interval [start, stop); the library's entropy scan reads
prefix cuts [0, l) alone), and its entropy by eigvalsh, are formed another
way than the library's Gram products but take the same spectral route, so
the suite holds the entropy scan to the Schmidt-value entropy as well.
"""
import math
from dataclasses import dataclass

import numpy as np

import quenchlab as ql
from quenchlab.core import _built, _freeze, _matmul, _n_sites
from quenchlab.errors import DimensionMismatch, RegionOutOfBounds
from quenchlab.hamiltonian import _sz_signs
from quenchlab.observables import ObservableMatrix
from quenchlab.spectral import _adjoint_matmul

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class DenseVectors:
    """Eigenvector columns held as one dense matrix (any memory order)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"eigenvector matrix {m.shape} is not square")
        if not np.isfinite(m).all():
            raise ValueError("eigenvectors must be finite")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """V x."""
        return _matmul(self.matrix, x)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """V^dag y."""
        return _adjoint_matmul(self.matrix, y)

    def columns(self, block: slice | np.ndarray) -> np.ndarray:
        """V[:, block]."""
        return self.matrix[:, block]


def dense_eigensystem(eigenvalues, vectors) -> ql.EigenSystem:
    """An eigensystem of given eigenvalues and a dense matrix of eigenvector columns."""
    return ql.EigenSystem(eigenvalues, DenseVectors(vectors))


def eigensystem(m: np.ndarray) -> ql.EigenSystem:
    """The eigensystem of a Hermitian matrix built by hand, by np.linalg.eigh."""
    return dense_eigensystem(*np.linalg.eigh(m))


def dense_chain(p: ql.ChainParams) -> np.ndarray:
    """The dense chain matrix, disordered or not, assembled entry by entry."""
    n, dim = p.n_sites, 2**p.n_sites
    signs = _sz_signs(n)
    rng = np.random.default_rng(p.seed)
    d = rng.uniform(-p.disorder_width, p.disorder_width, size=n)

    diag = -p.J * np.sum(signs[:, :-1] * signs[:, 1:], axis=1)
    if p.boundary == "periodic":
        diag -= p.J * signs[:, -1] * signs[:, 0]
    diag += np.sum((d - p.g)[None, :] * signs, axis=1)

    mat = np.zeros((dim, dim))
    idx = np.arange(dim)
    mat[idx, idx] = diag
    for j in range(n):
        mat[idx, idx ^ (1 << j)] += -p.h
    return mat


def sector_matrix(vectors: ql.SectorVectors) -> np.ndarray:
    """The dense V of sector eigenvectors, written column by column from the factors.

    Even vector k has u_even[a, k] / sqrt(2) on pair a and on its partner,
    and u_even[a, k] on palindrome a; odd vector k has u_odd[a, k] / sqrt(2)
    on pair a and its negative on the partner.
    """
    n_pairs, n_even = vectors.pairs.size, vectors.u_even.shape[0]
    even_cols, odd_cols = vectors.levels[:n_even], vectors.levels[n_even:]
    v = np.zeros((vectors.dim,) * 2)
    pair_rows = vectors.u_even[:n_pairs] * _SQRT_HALF
    v[np.ix_(vectors.pairs, even_cols)] = pair_rows
    v[np.ix_(vectors.partners, even_cols)] = pair_rows
    v[np.ix_(vectors.palindromes, even_cols)] = vectors.u_even[n_pairs:]
    v[np.ix_(vectors.pairs, odd_cols)] = vectors.u_odd * _SQRT_HALF
    v[np.ix_(vectors.partners, odd_cols)] = -vectors.u_odd * _SQRT_HALF
    return v


def chain_matrix(op: ql.SpinChain) -> np.ndarray:
    """The dense matrix of a chain's terms: its diagonal plus its flip on every bit."""
    idx = np.arange(op.dim)
    mat = np.diag(op.diagonal)
    for j in range(op.n_sites):
        mat[idx, idx ^ (1 << j)] += op.flip
    return mat


def householder_matrix(vectors: ql.HouseholderVectors) -> np.ndarray:
    """The dense V = H_0 ... H_{d-2} diag(phases), multiplied out reflector by reflector.

    Each reflector is read off its column of a panel's y alone, as
    H_k = I - 2 u u^dag / (u^dag u) on rows k and below; the panels'
    triangular factors are not used. The product is taken from the right,
    so H_k meets a matrix that is the identity outside rows and columns k on.
    At dimension 1024 this takes seconds.
    """
    return _reflector_product([u[j:] for y in vectors.ys for j, u in enumerate(y.T)], vectors.phases)


def _reflector_product(reflectors: list, phases: np.ndarray) -> np.ndarray:
    """H_0 ... H_{d-2} diag(phases), with H_k = I - 2 u u^dag / (u^dag u) for u = reflectors[k]."""
    v = np.diag(phases)
    for k in reversed(range(len(reflectors))):
        u = reflectors[k]
        block = v[k:, k:]
        block -= np.outer(u * (2.0 / np.vdot(u, u).real), u.conj() @ block)
    return v


def haar_panel_matrix(dim: int, seed: int, real: bool) -> np.ndarray:
    """The dense Haar basis of the documented panel draw, replayed one reflector at a time.

    Child p of SeedSequence(seed) draws the (dim - 64 p) x size standard
    normal block of panel p (complex: interleaved (real, imaginary) pairs);
    reflector 64 p + j reads x, column j of the block from row j down, and is
    u = x + phi |x| e_0 with phi the phase of x[0], its phase -phi. The child
    after the panels draws one more normal (pair), whose phase is the last.
    """
    starts = range(0, max(dim - 1, 0), 64)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(starts) + 1)]
    width = 1 if real else 2
    xs = []
    for rng, start in zip(rngs, starts):
        size = min(64, dim - 1 - start)
        b = rng.standard_normal((dim - start, width * size))
        b = b if real else b[:, 0::2] + 1j * b[:, 1::2]
        xs += [b[j:, j] for j in range(size)]
    last = rngs[-1].standard_normal(width)
    last = last[0] if real else complex(*last)
    phases = [-x[0] / abs(x[0]) for x in xs] + [last / abs(last)]
    reflectors = []
    for x in xs:
        u = x.copy()
        u[0] += x[0] / abs(x[0]) * np.linalg.norm(x)
        reflectors.append(u)
    return _reflector_product(reflectors, np.array(phases))


def frame_matrix(frame) -> np.ndarray:
    """A dense W = [F F'] [B B']^dag that maps a Haar frame's domain B onto its image F.

    B and F are completed to unitary (or orthogonal) matrices by any
    orthonormal complement, here the trailing columns of their complete QR.
    W agrees with the frame wherever it has been read.
    """
    def complete(q):
        return np.hstack([q, np.linalg.qr(q, mode="complete")[0][:, q.shape[1]:]])

    return complete(frame.image) @ complete(frame.domain).conj().T


def householder_apply(
    vectors: ql.HouseholderVectors, x: np.ndarray, adjoint: bool = False
) -> np.ndarray:
    """V x, or V^dag x, for V = H_0 ... H_{d-2} diag(phases), one reflector at a time.

    Each reflector is read off its column of a panel's y alone, as in
    householder_matrix, and applied to the few columns of x; V itself is
    never formed. Every H_k is Hermitian, so V^dag applies H_0 first and the
    conjugate phases last.
    """
    reflectors = [u[j:] for y in vectors.ys for j, u in enumerate(y.T)]
    phases = vectors.phases[:, None]
    out = np.array(x, dtype=complex).reshape(vectors.dim, -1)
    if not adjoint:
        out *= phases
    for k in range(len(reflectors)) if adjoint else reversed(range(len(reflectors))):
        u = reflectors[k]
        seg = out[k:]
        seg -= np.outer(u * (2.0 / np.vdot(u, u).real), u.conj() @ seg)
    if adjoint:
        out *= phases.conj()
    return out.reshape(np.shape(x))


def dense_vectors(eig: ql.EigenSystem) -> np.ndarray:
    """The matrix V of eigenvector columns, in whichever form eig holds it."""
    vec = eig.eigenvectors
    if isinstance(vec, ql.HouseholderVectors):
        return householder_matrix(vec)
    return vec.matrix if isinstance(vec, DenseVectors) else sector_matrix(vec)


def symmetric_gaussian(dim: int, seed: int) -> np.ndarray:
    """(G + G^T) / 2 of a seeded dim x dim standard normal draw, as two whole matrices."""
    g = np.random.default_rng(seed).standard_normal((dim, dim))
    return (g + g.T) / 2


def typical_matrix(dim: int, seed: int) -> np.ndarray:
    """|S| of the typical law, rebuilt serially from whole matrices.

    Over 256-square tiles, pair k of the tile pairs (a, b) with a <= b, in
    row-major order, is drawn from child k of SeedSequence(seed) as a
    standard normal tile t and stands in the upper triangle as (t + t^T) / 2
    on the diagonal and t sqrt(1/2) above it. S is that upper triangle plus
    its strict part transposed.
    """
    n = -(-dim // 256)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    upper = np.zeros((dim, dim))
    for (a, b), stream in zip(pairs, np.random.SeedSequence(seed).spawn(len(pairs))):
        tile = upper[256 * a : 256 * (a + 1), 256 * b : 256 * (b + 1)]
        t = np.random.default_rng(stream).standard_normal(tile.shape)
        tile[...] = (t + t.T) / 2 if a == b else t * _SQRT_HALF
    return np.abs(np.triu(upper) + np.triu(upper, 1).T)


def upper_rows(m: np.ndarray) -> list[np.ndarray]:
    """The upper block rows m[r : r + 256, r:], r = 0, 256, ..., of a dense matrix."""
    return [m[r : r + 256, r:] for r in range(0, len(m), 256)]


def observable(m: np.ndarray) -> ql.ObservableMatrix:
    """The observable of the upper block rows of a dense matrix, once it is
    finite and Hermitian within 1e-12."""
    m = np.ascontiguousarray(m)
    assert m.ndim == 2 and m.shape[0] == m.shape[1], m.shape
    assert np.isfinite(m).all() and np.max(np.abs(m - m.conj().T)) <= 1e-12
    return _built(ObservableMatrix, tuple(upper_rows(m)))


def dense_observable(obs: ql.ObservableMatrix) -> np.ndarray:
    """The dense matrix of an observable's upper block rows: each row in
    place, and the tiles right of its diagonal tile mirrored below it as
    their conjugate transpose."""
    dim = obs.dim
    m = np.empty((dim, dim), dtype=obs.rows[0].dtype)
    for row in obs.rows:
        h, r = row.shape[0], dim - row.shape[1]
        m[r : r + h, r:] = row
        m[r + h :, r : r + h] = row[:, h:].conj().T
    return m


def goe_tridiagonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The dense beta = 1 tridiagonal model at eigenvalue mean 0 and width 1.

    It reads rng as goe_eigensystem does (dim standard normals for the
    diagonal, then chi-squares of dim - 1, ..., 1 degrees of freedom for the
    off-diagonal, both over sqrt(2)), and is standardized by the dense
    matrix's trace and Frobenius norm.
    """
    d = rng.standard_normal(dim)
    e = np.sqrt(rng.chisquare(np.arange(dim - 1, 0, -1)) / 2.0)
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    t -= np.trace(t) / dim * np.eye(dim)
    return t / (np.linalg.norm(t) / np.sqrt(dim))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The diagonal of R is phase-fixed so the distribution is exactly Haar
    rather than QR-gauge dependent.
    """
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    lam = np.diagonal(r)
    return q * (lam / np.abs(lam))[None, :]

_EIG_CLIP = 1e-14

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def dense_pauli(n: int, site: int, axis: str) -> np.ndarray:
    """Site-basis Pauli padded with identities, site 0 the low bit."""
    return np.kron(np.eye(2 ** (n - site - 1)), np.kron(PAULI[axis], np.eye(2**site)))


def local_observable(eig: ql.EigenSystem, site: int, axis: str) -> np.ndarray:
    """The eigenbasis matrix V^dag sigma V of a single-site Pauli."""
    v = dense_vectors(eig).astype(complex)
    return v.conj().T @ dense_pauli(_n_sites(eig.dim), site, axis) @ v


def slow_observable(spec: ql.SpectralData, weight_floor: float = 1e-8) -> ql.ObservableMatrix:
    """The dense band O[a, b] = O[b, a] = 1 over adjacent occupied levels a < b."""
    occ = np.nonzero(spec.occupied_mask(weight_floor))[0]
    mat = np.zeros((spec.dim, spec.dim))
    mat[occ[:-1], occ[1:]] = 1.0
    mat[occ[1:], occ[:-1]] = 1.0
    return observable(mat)


def evolve_spectral(eig: ql.EigenSystem, psi0: ql.PureState, t: float) -> ql.PureState:
    """Exact evolved state at time t via per-level phase rotation."""
    return evolve_states(eig, psi0, [t])[0]


def evolve_states(eig: ql.EigenSystem, psi0: ql.PureState, times) -> list[ql.PureState]:
    """Exact evolved states at each of times via per-level phase rotation.

    The overlaps c = V^dag psi0 and the states V (c e^{-i E t}) are formed
    with V cast to complex, or, for a Householder basis, reflector by
    reflector (householder_apply).
    """
    vec = eig.eigenvectors
    if isinstance(vec, ql.HouseholderVectors):
        apply = lambda x, adjoint=False: householder_apply(vec, x, adjoint)
    else:
        v = dense_vectors(eig).astype(complex)
        apply = lambda x, adjoint=False: (v.conj().T if adjoint else v) @ x
    c = apply(psi0.amplitudes, adjoint=True)
    phi = c[:, None] * np.exp(-1j * np.outer(eig.eigenvalues, times))
    amp = apply(phi)
    amp = amp / np.linalg.norm(amp, axis=0)
    return [ql.PureState(a) for a in amp.T]


@dataclass(frozen=True)
class SiteRegion:
    """Contiguous site interval [start, stop) inside a chain of n_sites."""

    start: int
    stop: int
    n_sites: int

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.stop <= self.n_sites):
            raise RegionOutOfBounds(
                f"region [{self.start}, {self.stop}) invalid for {self.n_sites} sites"
            )
        if self.size == self.n_sites:
            # The whole chain has no complement to trace out and no boundary.
            raise RegionOutOfBounds("region must leave at least one site outside")

    @property
    def size(self) -> int:
        return self.stop - self.start


def partial_trace(psi: ql.PureState, region: SiteRegion) -> np.ndarray:
    """Reduced density matrix of a contiguous region of a pure state."""
    n = _n_sites(psi.amplitudes.size)
    if region.n_sites != n:
        raise RegionOutOfBounds(
            f"region declared for {region.n_sites} sites, state has {n}"
        )
    a, b = region.start, region.stop
    # index = high * 2^b + mid * 2^a + low, with mid the region bits
    t = psi.amplitudes.reshape(2 ** (n - b), 2 ** (b - a), 2**a)
    rho = np.tensordot(t, t.conj(), axes=([0, 2], [0, 2]))
    # symmetrize away the last-bit rounding so the matrix is exactly Hermitian
    return (rho + rho.conj().T) / 2.0


def _entropy_from_eigs(lam: np.ndarray) -> float:
    lam = lam[lam > _EIG_CLIP]  # below the clip the weights are numerically zero
    if lam.size == 0:
        return 0.0
    return float(-np.sum(lam * np.log(lam)))


def entropy(psi: ql.PureState, region: SiteRegion) -> float:
    """Von Neumann entropy of the reduced state on a region, in nats.

    For a pure state the two sides of a cut carry identical spectra, so the
    reduction is taken on the smaller block; for a prefix region [0, l) the
    complement is [l, N), which keeps the diagonalization at most half the
    chain.
    """
    n = _n_sites(psi.amplitudes.size)
    comp_size = n - region.size
    if comp_size < region.size:
        # complementary interval exists because regions are contiguous
        if region.start == 0:
            region = SiteRegion(region.stop, n, n)
        elif region.stop == n:
            region = SiteRegion(0, region.start, n)
        # interior regions keep their orientation; both sides cost the same
    lam = np.linalg.eigvalsh(partial_trace(psi, region))
    return _entropy_from_eigs(lam)



def schmidt_entropy(psi: ql.PureState, cut: int) -> float:
    """Von Neumann entropy of the prefix [0, cut), in nats, from the Schmidt values.

    Site 0 is the low bit, so the amplitudes reshaped to (2^(N-cut), 2^cut)
    are the state's Schmidt matrix across the cut; its squared singular
    values are the weights. No reduced density matrix is formed.
    """
    n = _n_sites(psi.amplitudes.size)
    mat = psi.amplitudes.reshape(2 ** (n - cut), 2**cut)
    return _entropy_from_eigs(np.linalg.svd(mat, compute_uv=False) ** 2)

def _lanczos(mat: np.ndarray, v0: np.ndarray, m: int):
    """Lanczos tridiagonalization: returns basis Q, diagonals, and the exit beta."""
    dim = v0.size
    q = np.empty((m, dim), dtype=complex)
    alpha = np.empty(m)
    beta = np.empty(m)  # beta[k] couples step k to k+1
    q[0] = v0
    prev = np.zeros(dim, dtype=complex)
    b_prev = 0.0
    k = 0
    for k in range(m):
        w = mat @ q[k]
        a = np.vdot(q[k], w).real
        alpha[k] = a
        w = w - a * q[k] - b_prev * prev
        # one reorthogonalization pass keeps the basis usable at this scale
        coeffs = q[: k + 1].conj() @ w
        w = w - q[: k + 1].T @ coeffs
        b = np.linalg.norm(w)
        beta[k] = b
        if b < 1e-13 or k == m - 1:
            return q[: k + 1], alpha[: k + 1], beta[: k + 1], b
        prev = q[k]
        b_prev = b
        q[k + 1] = w / b
    raise AssertionError("unreachable: the loop returns on its last iteration")


def _krylov_step(mat: np.ndarray, psi: np.ndarray, dt: float, m: int):
    """One Lanczos-propagated step; returns (state, residual estimate).

    The Lanczos matrix T is real symmetric, so with T = W diag(lam) W^T the
    small propagator is e^{-i dt T} = W diag(e^{-i dt lam}) W^T; only its
    first column, W (e^{-i dt lam} * W[0, :]), enters the step.
    """
    q, alpha, beta, b_exit = _lanczos(mat, psi, m)
    k = alpha.size
    lam, w = np.linalg.eigh(_tridiag(alpha, beta[: k - 1]))
    y = w @ (np.exp(-1j * dt * lam) * w[0])
    err = 0.0 if b_exit < 1e-13 else float(b_exit * abs(y[-1]))
    out = q.T @ y
    return out / np.linalg.norm(out), err


def _tridiag(alpha: np.ndarray, off: np.ndarray) -> np.ndarray:
    t = np.diag(alpha)
    if off.size:
        t += np.diag(off, 1) + np.diag(off, -1)
    return t


def krylov_evolve(
    h: np.ndarray,
    psi: ql.PureState,
    dt: float,
    subspace_dim: int = 30,
) -> ql.PureState:
    """Lanczos approximation to e^{-iH dt} psi with adaptive step halving.

    The step is split in half until the subspace residual estimate of every
    substep drops below 1e-10. A Lanczos breakdown means the Krylov space
    closed on an invariant subspace, where the propagated result is exact.
    """
    if subspace_dim < 2:
        raise ValueError("subspace_dim must be at least 2")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if h.shape[0] != psi.amplitudes.size:
        raise DimensionMismatch("operator and state dimensions differ")

    mat = h
    n_sub = 1
    for _ in range(40):
        step = dt / n_sub
        vec = psi.amplitudes.astype(complex)
        ok = True
        for _ in range(n_sub):
            vec, err = _krylov_step(mat, vec, step, subspace_dim)
            if err > 1e-10:
                ok = False
                break
        if ok:
            return ql.PureState(vec)
        n_sub *= 2
    raise RuntimeError("step halving failed to reach the residual target")
