"""Session fixtures: diagonalized default chains and their nonlocal partners.

Every eigensystem here is in the gauge its construction returns, and each
comes with the Neel state it is quenched from and that state's occupied
spectrum. A chain's `chain` is its dense matrix from the oracle builder.
Everything heavy is computed once per session. The scrambled partners come
from `ql.scramble` (eigenvalues of the chain, seeded Haar eigenvectors W
drawn as reflector panels) and the GOE partner from `ql.goe_eigensystem`
(the seeded tridiagonal model's eigenvalues, shifted and scaled to the
chain's moments, and seeded Haar-orthogonal reflector panels), so no
fixture diagonalizes a random operator. Each partner holds its reflectors,
as a run with local Paulis draws them; the Haar frames that scans, cones and
runs reading no state reveal (`ql.scrambled_frame`, `ql.goe_frame`) are
another realization of the same law, tested on their own.
"""
# quenchlab before numpy: importing it sets the BLAS idle timeout, and OpenBLAS reads it
# when numpy first loads, which is the first numeric name read from quenchlab
import quenchlab as ql

import os
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from oracles import dense_chain

SRC = Path(__file__).resolve().parents[1] / "src"
SCRAMBLE_SEED = 20240817
GOE_SEED = 424242
TYPICAL_SEEDS = tuple(range(8))


class Quench(NamedTuple):
    params: ql.ChainParams
    chain: np.ndarray
    eig: ql.EigenSystem
    psi0: ql.PureState
    sdata: ql.SpectralData
    ts: ql.Timescales


class Partner(NamedTuple):
    eig: ql.EigenSystem
    psi0: ql.PureState
    sdata: ql.SpectralData
    ts: ql.Timescales


def fresh_env(**extra: str | None) -> dict:
    """The environment of a fresh interpreter that imports this checkout's quenchlab.

    src/ leads PYTHONPATH; each extra variable is set, or unset where None.
    """
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **extra)
    return {name: value for name, value in env.items() if value is not None}


def neel_state(n: int) -> ql.PureState:
    return ql.product_state([(1, 0) if j % 2 == 0 else (0, 1) for j in range(n)])


def _quench(n: int) -> Quench:
    params = ql.ChainParams(n_sites=n)
    chain = dense_chain(params)
    psi0 = neel_state(n)
    eig = ql.diagonalize(ql.build_local_chain(params))
    sdata = ql.occupied_spectrum(eig, psi0)
    ts = ql.timescales(sdata)
    return Quench(params, chain, eig, psi0, sdata, ts)


def _scrambled_partner(q: Quench) -> Partner:
    eig = ql.scramble(q.eig, SCRAMBLE_SEED)
    sdata = ql.occupied_spectrum(eig, q.psi0)
    return Partner(eig, q.psi0, sdata, ql.timescales(sdata))


@pytest.fixture(scope="session")
def quench6() -> Quench:
    return _quench(6)


@pytest.fixture(scope="session")
def quench8() -> Quench:
    return _quench(8)


@pytest.fixture(scope="session")
def quench10() -> Quench:
    return _quench(10)


@pytest.fixture(scope="session")
def quench12() -> Quench:
    return _quench(12)


@pytest.fixture(scope="session")
def scrambled10(quench10) -> Partner:
    return _scrambled_partner(quench10)


@pytest.fixture(scope="session")
def scrambled12(quench12) -> Partner:
    return _scrambled_partner(quench12)


@pytest.fixture(scope="session")
def goe10(quench10) -> Partner:
    unit = ql.goe_eigensystem(quench10.eig.dim, GOE_SEED)
    ts = quench10.ts
    eig = ql.EigenSystem(ts.energy_mean + ts.energy_width * unit.eigenvalues, unit.eigenvectors)
    sdata = ql.occupied_spectrum(eig, quench10.psi0)
    return Partner(eig, quench10.psi0, sdata, ql.timescales(sdata))


def typical_runs(partner, seeds=TYPICAL_SEEDS):
    """Aligned typical observables with their series and equilibrium values."""
    grid = ql.default_relax_grid(partner.ts)
    runs = []
    for seed in seeds:
        obs = ql.typical_observable(partner.sdata.dim, seed)
        series = ql.expectation_series(partner.sdata, obs, grid)
        runs.append((series, ql.diagonal_ensemble(partner.sdata, obs.diagonal())))
    return runs


@pytest.fixture(scope="session")
def typical_runs10(quench10):
    return typical_runs(quench10)


@pytest.fixture(scope="session")
def typical_runs10_goe(goe10):
    return typical_runs(goe10)
