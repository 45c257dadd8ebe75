"""Numerical laboratory for closed-system quantum quenches on spin chains.

Exact diagonalization of transverse-and-longitudinal-field Ising chains, exact
dephasing dynamics of expectation values in the eigenbasis, Gaussian analysis
of the occupied density of states, slow versus typical observables and their
relaxation times, entanglement-entropy growth across cuts, and correlation
light cones. Everything targets desk scale: full spectra up to 14 sites.
"""
import os
import sys

# OpenBLAS reads this once, when numpy loads it, and the first submodule
# below loads numpy. After its last job an idle BLAS worker spins for 2**N
# cycles before it sleeps; at OpenBLAS's default of 28 (about 0.1 s) every
# BLAS call would keep the second core busy through most of a short run,
# away from the threads of _lapack.share. At 20 it sleeps within a
# millisecond; thread counts and bits do not change. A value the user set
# wins, and the line does nothing where numpy was imported first, which
# info reports.
_timeout_too_late = "numpy" in sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in os.environ
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from .core import (
    MAX_SITES,
    PureState,
    product_state,
)
from .dynamics import (
    TimeGrid,
    TimeSeries,
    default_relax_grid,
    default_slow_grid,
    diagonal_ensemble,
    expectation_series,
    linear_grid,
)
from .entanglement import (
    CorrelationFront,
    CutGrowth,
    EntanglementProfile,
    GrowthFit,
    entropy_scan,
    fit_front,
    growth_fit,
    light_cone,
)
from .errors import (
    ConvergenceFailure,
    DegenerateWidth,
    DimensionMismatch,
    LapackUnavailable,
    NoFrontDetected,
    NonNormalizedLocal,
    QuenchError,
    RegionOutOfBounds,
    SiteOutOfBounds,
    TooFewOccupied,
)
from .hamiltonian import (
    ChainParams,
    SpinChain,
    build_local_chain,
)
from .observables import (
    ObservableMatrix,
    RelaxationReport,
    local_series,
    pauli_expectations,
    relaxation_time,
    slow_series,
    typical_observable,
)
from .spectral import (
    DEFAULT_WEIGHT_FLOOR,
    EigenSystem,
    GaussianFit,
    HouseholderVectors,
    SectorVectors,
    SpectralData,
    Timescales,
    diagonalize,
    dos_fit,
    goe_eigensystem,
    goe_spectrum,
    occupied_spectrum,
    scramble,
    scrambled_spectrum,
    timescales,
)

__version__ = "0.9.2"

# the public names are those imported above: every name not private and not a module
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(sys))
]
