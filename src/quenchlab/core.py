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


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _hermitian(matrix: np.ndarray, name: str) -> np.ndarray:
    """matrix frozen, once it is square, finite and Hermitian within _HERM_TOL."""
    m = np.ascontiguousarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
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
