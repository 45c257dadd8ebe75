"""Chain parameters and the library defaults that a config falls back on.

This module imports no numpy, so validating a config loads no numerics;
the numeric modules import these names from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

MAX_SITES = 14
DEFAULT_WEIGHT_FLOOR = 1e-8
DEFAULT_FRONT_THRESHOLD = 0.01
DEFAULT_THRESHOLD_FRACTION = 1.0 / math.e


@dataclass(frozen=True)
class ChainParams:
    """Couplings and geometry of the local chain."""

    n_sites: int
    J: float = 1.0
    h: float = 4.2
    g: float = 2.0
    disorder_width: float = 0.0
    boundary: str = "open"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.n_sites <= MAX_SITES:
            raise ValueError(f"n_sites must be in [2, {MAX_SITES}], got {self.n_sites}")
        if not all(math.isfinite(x) for x in (self.J, self.h, self.g, self.disorder_width)):
            raise ValueError("J, h, g and disorder_width must be finite")
        if self.disorder_width < 0:
            raise ValueError("disorder_width must be nonnegative")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be open or periodic, got {self.boundary!r}")
