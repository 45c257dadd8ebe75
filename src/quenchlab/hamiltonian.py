"""Spin-chain Hamiltonians and moment-matched random matrices.

The local model is an Ising chain in mixed transverse and longitudinal
fields,

    H = -J sum_i sz_i sz_{i+1} - h sum_i sx_i - g sum_i sz_i + sum_i d_i sz_i,

with d_i drawn uniformly from [-disorder_width, disorder_width]. The default
couplings put the model deep in the nonintegrable regime with a transverse
field strong enough that a product-state quench occupies an essentially
Gaussian band of levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _freeze, _hermitian, _tiles

DEFAULT_J = 1.0
DEFAULT_H = 4.2
DEFAULT_G = 2.0


@dataclass(frozen=True)
class ChainParams:
    """Couplings and geometry of the local chain."""

    n_sites: int
    J: float = DEFAULT_J
    h: float = DEFAULT_H
    g: float = DEFAULT_G
    disorder_width: float = 0.0
    boundary: str = "open"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError("n_sites must be at least 2")
        if not all(math.isfinite(x) for x in (self.J, self.h, self.g, self.disorder_width)):
            raise ValueError("J, h, g and disorder_width must be finite")
        if self.disorder_width < 0:
            raise ValueError("disorder_width must be nonnegative")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be open or periodic, got {self.boundary!r}")


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _hermitian(self.matrix, "operator"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ReflectionChain:
    """A chain without disorder, kept as its terms: H = diag(diagonal) + flip sum_j sx_j.

    Its diagonal is invariant under the site reflection j -> n - 1 - j, and so
    is the sum of single-bit flips, so H commutes with the reflection and
    diagonalize works in its even and odd sectors. No dense matrix is formed.
    """

    n_sites: int
    diagonal: np.ndarray
    flip: float

    def __post_init__(self) -> None:
        d = np.ascontiguousarray(self.diagonal, dtype=float)
        if d.shape != (2**self.n_sites,):
            raise ValueError(
                f"diagonal of shape {d.shape} is not a chain of {self.n_sites} sites"
            )
        if not (np.all(np.isfinite(d)) and math.isfinite(self.flip)):
            raise ValueError("chain terms must be finite")
        object.__setattr__(self, "diagonal", _freeze(d))

    @property
    def dim(self) -> int:
        return self.diagonal.size


def _sz_signs(n_sites: int) -> np.ndarray:
    """signs[i, j] = <i| sz_j |i> with |0> the +1 eigenstate of sz."""
    idx = np.arange(2**n_sites)
    bits = (idx[:, None] >> np.arange(n_sites)[None, :]) & 1
    return 1.0 - 2.0 * bits


def build_local_chain(p: ChainParams) -> HermitianOperator | ReflectionChain:
    """The chain Hamiltonian for the given parameters.

    All sz terms are diagonal in the computational basis and the transverse
    field only flips single bits. A chain without disorder is returned as its
    terms (ReflectionChain); a disordered one as its dense real symmetric
    matrix.
    """
    n, dim = p.n_sites, 2**p.n_sites
    signs = _sz_signs(n)
    rng = np.random.default_rng(p.seed)
    d = rng.uniform(-p.disorder_width, p.disorder_width, size=n)

    diag = -p.J * np.sum(signs[:, :-1] * signs[:, 1:], axis=1)
    if p.boundary == "periodic":
        diag -= p.J * signs[:, -1] * signs[:, 0]
    diag += np.sum((d - p.g)[None, :] * signs, axis=1)
    if p.disorder_width == 0:
        return ReflectionChain(n, diag, -p.h)

    mat = np.zeros((dim, dim))
    idx = np.arange(dim)
    mat[idx, idx] = diag
    for j in range(n):
        mat[idx, idx ^ (1 << j)] += -p.h
    return HermitianOperator(mat)


def _symmetric_gaussian(dim: int, seed: int) -> np.ndarray:
    """(G + G^T) / 2 for a seeded dim x dim standard normal draw G, formed in G.

    The tile pairs (a, b) with a <= b are symmetrized in place, so no second
    dim x dim array is held. g_ij + g_ji and g_ji + g_ij round alike and
    halving is exact, so the result is (G + G^T) / 2 to the bit.
    """
    m = np.random.default_rng(seed).standard_normal((dim, dim))
    tiles = _tiles(dim)
    for a, rows in enumerate(tiles):
        for cols in tiles[a:]:
            upper = m[rows, cols] + m[cols, rows].T
            upper /= 2.0
            m[rows, cols] = upper
            m[cols, rows] = upper.T
    return m


def build_goe(dim: int, mean: float, width: float, seed: int) -> HermitianOperator:
    """Real symmetric Gaussian-ensemble matrix with matched eigenvalue moments.

    The raw draw is affinely rescaled so the empirical eigenvalue mean and
    standard deviation equal the requested values (up to float rounding).
    Both moments follow from traces without a diagonalization: the mean is
    tr M / d and the variance is ||M - mean I||_F^2 / d.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if width < 0:
        raise ValueError("width must be nonnegative")
    m = _symmetric_gaussian(dim, seed)
    # centered and rescaled in place: only the diagonal moves by the means
    d = np.diag_indices(dim)
    m[d] -= np.trace(m) / dim
    sd = np.linalg.norm(m) / np.sqrt(dim)
    if sd < 1e-300 or width == 0.0:
        return HermitianOperator(float(mean) * np.eye(dim))
    m *= width / sd
    m[d] += mean
    return HermitianOperator(m)
