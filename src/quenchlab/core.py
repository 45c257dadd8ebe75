"""Hilbert-space primitives for chains of two-level sites.

Dimension bookkeeping, normalized pure and product states, the contiguous
site regions that entropy cuts are checked against, the Hermitian check
that operators and observables share, and the product of a possibly real
matrix with complex vectors that every eigenbasis projection shares.

Site-to-bit convention: site j maps to bit j of the basis index, so site 0
is the least significant bit. Every index formula in the package relies on
this.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NonNormalizedLocal,
    RegionOutOfBounds,
)

MAX_SITES = 14
LOCAL_DIM = 2

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_TILE = 512  # rows and columns of the blocks the dense checks walk


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _tiles(size: int) -> list[slice]:
    return [slice(i, i + _TILE) for i in range(0, size, _TILE)]


def _all_finite(a: np.ndarray) -> bool:
    """np.all(np.isfinite(a)), one block of _TILE rows at a time."""
    return all(np.isfinite(a[rows]).all() for rows in _tiles(a.shape[0]))


def _hermitian(matrix: np.ndarray, name: str) -> np.ndarray:
    """matrix frozen, once it is square, finite and Hermitian within _HERM_TOL.

    The check walks the tile pairs (a, b) with a <= b and compares tile a, b
    with the conjugate transpose of tile b, a, so it holds no temporary
    larger than a tile. |m_ij - m_ji^*| and |m_ji - m_ij^*| are the same
    number, so the largest deviation is the whole-matrix one to the bit.
    """
    m = np.ascontiguousarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} matrix must be square, got shape {m.shape}")
    tiles = _tiles(m.shape[0])
    deviation = 0.0
    for a, rows in enumerate(tiles):
        for cols in tiles[a:]:
            upper, lower = m[rows, cols], m[cols, rows]
            if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
                raise ValueError(f"{name} has non-finite entries")
            deviation = max(deviation, np.max(np.abs(upper - lower.conj().T)))
    if deviation > _HERM_TOL:
        raise ValueError(f"{name} is not Hermitian within {_HERM_TOL}")
    return _freeze(m)


@dataclass(frozen=True)
class HilbertSpec:
    """Dimension bookkeeping for a chain of n_sites two-level systems."""

    n_sites: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_sites <= MAX_SITES:
            raise ValueError(
                f"n_sites must be in [1, {MAX_SITES}], got {self.n_sites}"
            )

    @property
    def dim(self) -> int:
        return LOCAL_DIM**self.n_sites


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over the full chain."""

    amplitudes: np.ndarray
    spec: HilbertSpec

    def __post_init__(self) -> None:
        amp = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.spec.dim,):
            raise DimensionMismatch(
                f"state has {amp.shape} amplitudes, expected ({self.spec.dim},)"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(amp))


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


def product_state(locals: Sequence[Sequence[complex]]) -> PureState:
    """Kronecker product of per-site two-component unit vectors.

    locals[j] is the state of site j. With site 0 in the least significant
    bit, the product is assembled so that amplitude[i] is the product of
    locals[j][bit j of i].
    """
    n = len(locals)
    spec = HilbertSpec(n)
    factors = []
    for j, v in enumerate(locals):
        arr = np.asarray(v, dtype=complex).reshape(-1)
        if arr.shape != (LOCAL_DIM,):
            raise NonNormalizedLocal(f"site {j}: expected 2 components, got {arr.shape}")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > 1e-10:
            raise NonNormalizedLocal(f"site {j}: local norm {norm!r} deviates from 1")
        factors.append(arr)
    amp = np.ones(1, dtype=complex)
    for arr in factors:
        # np.kron(arr, amp) puts the new site in the most significant position,
        # so iterating j = 0..n-1 lands site j on bit j.
        amp = np.kron(arr, amp)
    amp = amp / np.linalg.norm(amp)
    return PureState(amp, spec)


def _matmul(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec, without the complex copy numpy makes of a real mat."""
    if np.iscomplexobj(mat):
        return mat @ vec
    return mat @ vec.real + 1j * (mat @ vec.imag)
