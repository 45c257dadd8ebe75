"""Hilbert-space primitives for chains of two-level sites.

The site count of a state dimension, normalized pure and product states, the
blockwise finiteness check of large arrays, and the product of a possibly
real matrix with complex vectors that every eigenbasis projection shares.

Site-to-bit convention: site j maps to bit j of the basis index, so site 0
is the least significant bit. Every index formula in the package relies on
this.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonNormalizedLocal
from .params import MAX_SITES

_NORM_TOL = 1e-12
_TILE = 512  # rows of the blocks the finiteness check walks


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _all_finite(a: np.ndarray) -> bool:
    """np.all(np.isfinite(a)), one block of _TILE rows at a time."""
    return all(np.isfinite(a[r : r + _TILE]).all() for r in range(0, a.shape[0], _TILE))


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
