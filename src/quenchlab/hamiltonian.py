"""Spin-chain Hamiltonians.

The local model is an Ising chain in mixed transverse and longitudinal
fields,

    H = -J sum_i sz_i sz_{i+1} - h sum_i sx_i - g sum_i sz_i + sum_i d_i sz_i,

with d_i drawn uniformly from [-disorder_width, disorder_width]. The default
couplings put the model deep in the nonintegrable regime with a transverse
field strong enough that a product-state quench occupies an essentially
Gaussian band of levels. Every chain, disordered or not, is kept as its
terms (SpinChain): no dense matrix is formed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _freeze
from .params import ChainParams


@dataclass(frozen=True)
class SpinChain:
    """A chain kept as its terms: H = diag(diagonal) + flip sum_j sx_j.

    The sz terms, disorder included, are diagonal in the configuration
    basis, and the transverse field flips one bit at a time. diagonalize
    builds its blocks straight from these terms.
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


def _mirror(n_sites: int) -> np.ndarray:
    """mirror[i], the bit reversal of basis state i: its image under the site
    reflection j -> n_sites - 1 - j."""
    idx = np.arange(2**n_sites)
    mirror = np.zeros_like(idx)
    for j in range(n_sites):
        mirror |= ((idx >> j) & 1) << (n_sites - 1 - j)
    return mirror


def build_local_chain(p: ChainParams) -> SpinChain:
    """The chain Hamiltonian for the given parameters, as its terms.

    All sz terms are diagonal in the computational basis and the transverse
    field only flips single bits. Without disorder the diagonal is invariant
    under the site reflection, but the field sum, taken site by site, may
    round a state and its mirror image apart in the last bit (g = 0.3 at 7
    sites does): both take the value of the smaller state, the one a sector
    block reads, so diagonalize sees the symmetry (see
    spectral._symmetry_classes).
    """
    n = p.n_sites
    signs = _sz_signs(n)
    # a clean chain draws nothing, so its run never loads numpy.random
    w = p.disorder_width
    d = np.random.default_rng(p.seed).uniform(-w, w, size=n) if w else np.zeros(n)

    diag = -p.J * np.sum(signs[:, :-1] * signs[:, 1:], axis=1)
    if p.boundary == "periodic":
        diag -= p.J * signs[:, -1] * signs[:, 0]
    diag += np.sum((d - p.g)[None, :] * signs, axis=1)
    if p.disorder_width == 0:
        diag = diag[np.minimum(np.arange(diag.size), _mirror(n))]
    return SpinChain(n, diag, -p.h)
