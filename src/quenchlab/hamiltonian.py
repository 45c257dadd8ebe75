"""Spin-chain Hamiltonians, Haar unitaries, and matched random matrices.

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
from dataclasses import dataclass, field

import numpy as np

from .core import _hermitian

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
    """Dense Hermitian matrix.

    reflection_sites is set by build_local_chain alone, on a chain without
    disorder: the matrix then acts on reflection_sites sites and commutes
    with the site reflection j -> n - 1 - j, which diagonalize uses.
    """

    matrix: np.ndarray
    reflection_sites: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _hermitian(self.matrix, "operator"))
        if self.reflection_sites is not None and self.dim != 2**self.reflection_sites:
            raise ValueError(
                f"operator of dimension {self.dim} is not a chain of "
                f"{self.reflection_sites} sites"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _sz_signs(n_sites: int) -> np.ndarray:
    """signs[i, j] = <i| sz_j |i> with |0> the +1 eigenstate of sz."""
    idx = np.arange(2**n_sites)
    bits = (idx[:, None] >> np.arange(n_sites)[None, :]) & 1
    return 1.0 - 2.0 * bits


def build_local_chain(p: ChainParams) -> HermitianOperator:
    """Assemble the dense chain Hamiltonian for the given parameters.

    The matrix is real symmetric: all sz terms are diagonal in the
    computational basis and the transverse field only flips single bits.
    Without disorder the chain is marked as reflection symmetric.
    """
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
    return HermitianOperator(mat, n if p.disorder_width == 0 else None)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The diagonal of R is phase-fixed so the distribution is exactly Haar
    rather than QR-gauge dependent.
    """
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    lam = np.diagonal(r)
    return q * (lam / np.abs(lam))[None, :]


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
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    m = m + m.T
    m /= 2.0
    # centered and rescaled in place: only the diagonal moves by the means
    d = np.diag_indices(dim)
    m[d] -= np.trace(m) / dim
    sd = np.linalg.norm(m) / np.sqrt(dim)
    if sd < 1e-300 or width == 0.0:
        return HermitianOperator(float(mean) * np.eye(dim))
    m *= width / sd
    m[d] += mean
    return HermitianOperator(m)
