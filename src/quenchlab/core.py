"""Hilbert-space primitives for chains of two-level sites.

The site count of a state dimension, normalized pure and product states, the
Hermitian check of observables, and the product of a possibly real matrix
with complex vectors that every eigenbasis projection shares.

Site-to-bit convention: site j maps to bit j of the basis index, so site 0
is the least significant bit. Every index formula in the package relies on
this.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonNormalizedLocal

MAX_SITES = 14

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_TILE = 512  # rows and columns of the blocks the dense checks walk


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _tiles(size: int, tile: int = _TILE) -> list[slice]:
    return [slice(i, i + tile) for i in range(0, size, tile)]


def _tile_pairs(size: int, tile: int = _TILE) -> list[tuple[slice, slice]]:
    """(rows, cols) of the tile pairs (a, b) with a <= b, on and above the
    diagonal, in row-major order."""
    tiles = _tiles(size, tile)
    return [(rows, cols) for a, rows in enumerate(tiles) for cols in tiles[a:]]


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
    deviation = 0.0
    for rows, cols in _tile_pairs(m.shape[0]):
        upper, lower = m[rows, cols], m[cols, rows]
        if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            raise ValueError(f"{name} has non-finite entries")
        deviation = max(deviation, np.max(np.abs(upper - lower.conj().T)))
    if deviation > _HERM_TOL:
        raise ValueError(f"{name} is not Hermitian within {_HERM_TOL}")
    return _freeze(m)


def _n_sites(dim: int) -> int:
    """The site count N of a dimension 2^N, once 1 <= N <= MAX_SITES."""
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise DimensionMismatch(f"dimension {dim} is not a power of two")
    if not 1 <= n <= MAX_SITES:
        raise ValueError(f"n_sites must be in [1, {MAX_SITES}], got {n}")
    return n


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitudes over the 2^N configurations of N sites."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1:
            raise DimensionMismatch(f"state has {amp.shape} amplitudes, expected one axis")
        _n_sites(amp.size)
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(amp))


def product_state(locals: Sequence[Sequence[complex]]) -> PureState:
    """Kronecker product of per-site two-component unit vectors.

    locals[j] is the state of site j. With site 0 in the least significant
    bit, the product is assembled so that amplitude[i] is the product of
    locals[j][bit j of i].
    """
    _n_sites(2 ** len(locals))
    factors = []
    for j, v in enumerate(locals):
        arr = np.asarray(v, dtype=complex).reshape(-1)
        if arr.shape != (2,):
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
    return PureState(amp)


def _matmul(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec, without the complex copy numpy makes of a real mat.

    A real mat meets a complex vec as two real products, written straight
    into the real and imaginary parts of the result.
    """
    if np.iscomplexobj(mat) or not np.iscomplexobj(vec):
        return mat @ vec
    out = np.empty(mat.shape[:1] + vec.shape[1:], dtype=complex)
    np.matmul(mat, vec.real, out=out.real)
    np.matmul(mat, vec.imag, out=out.imag)
    return out
