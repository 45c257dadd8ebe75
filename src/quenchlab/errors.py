"""Exception types shared across the package."""


class QuenchError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(QuenchError):
    """Operands act on Hilbert spaces of different dimension."""


class NonNormalizedLocal(QuenchError):
    """A single-site factor deviates from unit norm beyond tolerance."""


class RegionOutOfBounds(QuenchError):
    """An entropy cut or a site region does not fit inside the chain."""


class SiteOutOfBounds(QuenchError):
    """A site index falls outside the chain."""


class DegenerateWidth(QuenchError):
    """Energy width is numerically zero, so 1/width timescales are undefined."""


class TooFewOccupied(QuenchError):
    """Not enough occupied levels above the weight floor for the requested statistic."""


class ConvergenceFailure(QuenchError):
    """The eigensolver failed to converge."""


class LapackUnavailable(QuenchError):
    """numpy does not ship the ILP64 OpenBLAS whose LAPACK routines quenchlab calls."""


class NoFrontDetected(QuenchError):
    """Fewer than three radii ever crossed the correlation threshold."""
