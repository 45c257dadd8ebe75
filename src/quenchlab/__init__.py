"""Numerical laboratory for closed-system quantum quenches on spin chains.

Exact diagonalization of transverse-and-longitudinal-field Ising chains, exact
dephasing dynamics of expectation values in the eigenbasis, Gaussian analysis
of the occupied density of states, slow versus typical observables and their
relaxation times, entanglement-entropy growth across cuts, and correlation
light cones. Everything targets desk scale: full spectra up to 14 sites.
"""
import importlib
import os
import sys

# OpenBLAS reads this once, when numpy loads it, which is no earlier than the
# first numeric name read through __getattr__ below. After its last job an
# idle BLAS worker spins for 2**N cycles before it sleeps; at OpenBLAS's
# default of 28 (about 0.1 s) every BLAS call would keep the second core busy
# through most of a short run, away from the threads of _lapack.share. At 20
# it sleeps within a millisecond; thread counts and bits do not change. A
# value the user set wins, and the line does nothing where numpy was imported
# first, which info reports.
_timeout_too_late = "numpy" in sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in os.environ
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

__version__ = "0.15.0"

# submodule -> its public names. A name is imported from its submodule when
# first read, so importing the package, or checking a config, loads no numpy.
_EXPORTS = {
    "core": ("PureState", "product_state"),
    "dynamics": (
        "TimeGrid", "TimeSeries", "default_relax_grid", "default_slow_grid",
        "diagonal_ensemble", "expectation_series", "linear_grid",
    ),
    "entanglement": (
        "CorrelationFront", "CutGrowth", "EntanglementProfile", "GrowthFit",
        "entropy_scan", "fit_front", "growth_fit", "light_cone",
    ),
    "errors": (
        "ConvergenceFailure", "DegenerateWidth", "DimensionMismatch", "LapackUnavailable",
        "NoFrontDetected", "NonNormalizedLocal", "QuenchError", "RegionOutOfBounds",
        "SiteOutOfBounds", "TooFewOccupied",
    ),
    "hamiltonian": ("SpinChain", "build_local_chain"),
    "observables": (
        "ObservableMatrix", "RelaxationReport", "local_series", "pauli_expectations",
        "relaxation_time", "slow_series", "typical_observable",
    ),
    "params": ("MAX_SITES", "ChainParams", "DEFAULT_WEIGHT_FLOOR"),
    "spectral": (
        "EigenSystem", "GaussianFit", "HouseholderVectors", "SectorVectors", "SpectralData",
        "Timescales", "diagonalize", "dos_fit", "goe_eigensystem", "goe_frame",
        "occupied_spectrum", "scramble", "scrambled_frame", "timescales",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not yet imported, as quenchlab.dynamics
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
