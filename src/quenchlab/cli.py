"""Experiment runner: declarative configs in, CSV series and a manifest out.

A config names a model (local chain, Haar-scrambled chain, or a
moment-matched random matrix), an initial product state, and one of five
experiment kinds. validate normalizes it, filling each default from FIELDS,
and run diagonalizes the local chain once and derives every variant from
that solve; _variant_spectra says what each kind reads. Results are written
as CSV files with a YAML manifest carrying the normalized config, the
quench timescales, summary statistics, a digest of every emitted file, and
the numpy build and BLAS thread count. Every random draw derives its seed
from the master seed and a task label, so reruns on one build and thread
count are byte-identical; README's "Command line" section gives the routes,
the thread counts and the BLAS idle timeout.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Sequence

import yaml

from . import __all__ as _PUBLIC, __version__, _timeout_too_late
from .errors import QuenchError
from .params import (
    DEFAULT_FRONT_THRESHOLD,
    DEFAULT_THRESHOLD_FRACTION,
    DEFAULT_WEIGHT_FLOOR,
    MAX_SITES,
    ChainParams,
)

# _load binds np, _lapack, the package's public names and the private ones
# below on first use (run, build_initial_state, info, or a read of one of
# them), so validate loads no numpy. A name bound before, such as a tracer's
# wrapper of diagonalize, is kept, and a run calls through it.
_PRIVATE = {"GAP_WEIGHT_FLOOR": "dynamics", "_weighted_block": "observables"}
_LAZY = {"np", "_lapack", *_PUBLIC, *_PRIVATE}


def _load() -> None:
    bound = globals()
    bound.setdefault("np", importlib.import_module("numpy"))
    bound.setdefault("_lapack", importlib.import_module("._lapack", __package__))
    package = importlib.import_module(__package__)
    for name in _PUBLIC:
        bound.setdefault(name, getattr(package, name))
    for name, module in _PRIVATE.items():
        bound.setdefault(name, getattr(importlib.import_module(f".{module}", __package__), name))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    return globals()[name]


KINDS = ("relax", "dos", "entropy_scan", "light_cone", "equivalence")
VARIANTS = ("local", "scrambled", "goe")
STATES = ("all_up", "neel", "all_plus_x")

DEFAULT_SCAN_POINTS = 46
DEFAULT_FRONT_POINTS = 61
SCAN_SPAN = 3.0  # in units of 1/|J|: the window where local growth is linear


@dataclass(frozen=True)
class ExperimentConfig:
    """Normalized experiment description; all defaults filled."""

    kind: str
    variant: str
    chain: ChainParams
    initial_state: str
    custom_state: tuple | None
    grid_kind: str  # default | linear
    grid_t_max: float | None
    grid_points: int | None
    typical_count: int
    typical_seeds: tuple[int, ...] | None
    include_slow: bool
    include_identity: bool
    local_observables: tuple[tuple[int, str], ...]
    cuts: tuple[int, ...]
    reference_site: int
    front_threshold: float
    threshold_fraction: float
    weight_floor: float
    out_dir: str
    master_seed: int


def derive_seed(master_seed: int, label: str) -> int:
    """Per-task seed as a pure function of (master_seed, task label)."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _get(raw: dict, key: str, default: Any) -> Any:
    v = raw.get(key)
    return default if v is None else v


def _number(errors: list[str], field: str, value: Any, kind: type = float):
    """value as a finite int or float, or None after a named error.

    Text is parsed as well, since YAML 1.1 reads an exponent without a dot,
    such as 1e-8, as a string. Booleans and non-integral floats for integer
    fields are refused.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        out = kind(value)
        if not math.isfinite(out) or (isinstance(value, float) and out != value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a finite number"
        errors.append(f"{field}: expected {noun}, got {value!r}")
        return None
    return out


def _int(errors: list[str], field: str, value: Any) -> int | None:
    return _number(errors, field, value, int)


def _optional(parse):
    """parse, except that an absent field stays None."""
    return lambda errors, field, value: None if value is None else parse(errors, field, value)


def _choice(options: tuple, shown: str | None = None):
    """Parser keeping a value among options; shown names them in the error."""
    shown = shown or f"one of {options}"

    def parse(errors: list[str], field: str, value: Any):
        if value in options:
            return value
        errors.append(f"{field}: must be {shown}, got {value!r}")
        return None

    return parse


def _unknown_fields(errors: list[str], prefix: str, mapping: dict, known: set) -> None:
    """Name every key of mapping outside known, non-string keys included."""
    for key in sorted(set(mapping) - known, key=str):
        errors.append(f"{prefix}{key}: unknown field")


def _flag(errors: list[str], field: str, value: Any) -> bool:
    """value if it is a boolean, else False after a named error."""
    if isinstance(value, bool):
        return value
    errors.append(f"{field}: expected true or false, got {value!r}")
    return False


_named_state = _choice(STATES, f"one of {STATES} or a custom mapping")


def _initial_state(errors: list[str], field: str, value: Any) -> str | None:
    """A named product state, or "custom" for the mapping form validate reads."""
    return "custom" if isinstance(value, dict) else _named_state(errors, field, value)


def _typical_seeds(errors: list[str], field: str, value: Any) -> tuple[int, ...] | None:
    if not isinstance(value, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in value
    ):
        errors.append(f"{field}: expected a list of nonnegative integers")
        return None
    repeated = [seed for i, seed in enumerate(value) if seed in value[:i]]
    errors.extend(f"{field}: seed {seed} is repeated" for seed in repeated)
    return None if repeated else tuple(value)


def _out_dir(errors: list[str], field: str, value: Any) -> str | None:
    """A directory path; numbers name one as well, as YAML reads 2024 as an int."""
    if isinstance(value, (str, int, float)) and not isinstance(value, bool) and value != "":
        return str(value)
    errors.append(f"{field}: expected a directory path, got {value!r}")
    return None


# dsyevd would prescale a block with an entry beyond 2^485 (about 1e146),
# which _lapack.eigh leaves out; chain terms up to this size keep every
# block entry far below that, so a solve with eigenvectors, or for the
# eigenvalues alone, is np.linalg's to the bit, and the weights route's torn
# solve (from _lapack.TEAR on) agrees with it within rounding
MAX_COUPLING = 1e100

_NONNEGATIVE = ("must be nonnegative", lambda v: v >= 0)
_COUPLING = (f"must be at most {MAX_COUPLING:g} in magnitude", lambda v: abs(v) <= MAX_COUPLING)
_WIDTH = (f"must be in [0, {MAX_COUPLING:g}]", lambda v: 0 <= v <= MAX_COUPLING)
_SITES = (f"must be in [2, {MAX_SITES}]", lambda v: 2 <= v <= MAX_SITES)
_POSITIVE = ("must be positive", lambda v: v > 0)
_OPEN_UNIT = ("must be in (0, 1)", lambda v: 0 < v < 1)

# Every config field: path -> (ExperimentConfig attribute, parser, default,
# range check). A parser takes (errors, field, value) and returns the parsed
# value, or None after a named error. Fields without a parser keep their raw
# value for the cross-field rules in validate, which also read the chain.
FIELDS: dict[tuple[str, ...], tuple] = {
    ("kind",): ("kind", _choice(KINDS), None, None),
    ("model", "variant"): ("variant", _choice(VARIANTS), "local", None),
    ("model", "n_sites"): ("chain.n_sites", _int, 10, _SITES),
    ("model", "J"): ("chain.J", _number, ChainParams.J, _COUPLING),
    ("model", "h"): ("chain.h", _number, ChainParams.h, _COUPLING),
    ("model", "g"): ("chain.g", _number, ChainParams.g, _COUPLING),
    ("model", "disorder_width"): ("chain.disorder_width", _number, ChainParams.disorder_width, _WIDTH),
    ("model", "boundary"): (
        "chain.boundary", _choice(("open", "periodic"), "open or periodic"), ChainParams.boundary, None
    ),
    ("model", "seed"): ("chain.seed", _int, ChainParams.seed, _NONNEGATIVE),
    ("initial_state",): ("initial_state", _initial_state, "neel", None),
    ("time_grid", "kind"): (
        "grid_kind", _choice(("default", "linear"), "default or linear"), "default", None
    ),
    ("time_grid", "t_max"): ("grid_t_max", _optional(_number), None, None),
    ("time_grid", "points"): ("grid_points", _optional(_int), None, None),
    ("observables", "typical_count"): ("typical_count", _optional(_int), None, _NONNEGATIVE),
    ("observables", "typical_seeds"): ("typical_seeds", _optional(_typical_seeds), None, None),
    ("observables", "slow"): ("include_slow", _flag, False, None),
    ("observables", "identity"): ("include_identity", _flag, False, None),
    ("observables", "local"): ("local_observables", None, [], None),
    ("cuts",): ("cuts", None, [], None),
    ("reference_site",): ("reference_site", _int, 0, None),
    ("front_threshold",): ("front_threshold", _number, DEFAULT_FRONT_THRESHOLD, _POSITIVE),
    ("threshold_fraction",): (
        "threshold_fraction", _number, DEFAULT_THRESHOLD_FRACTION, _OPEN_UNIT
    ),
    ("weight_floor",): ("weight_floor", _number, DEFAULT_WEIGHT_FLOOR, _NONNEGATIVE),
    ("out_dir",): ("out_dir", _out_dir, "runs", None),
    ("master_seed",): ("master_seed", _int, 0, None),
}


def _custom_state(errors: list[str], custom: Any, chain: ChainParams | None) -> tuple | None:
    """Per-site (up, down) amplitudes from two [re, im] pairs of finite numbers.

    One normalized entry per chain site; None after a named error.
    """
    count = len(errors)
    if not isinstance(custom, (list, tuple)):
        errors.append("initial_state.custom: expected per-site [[re, im], [re, im]] pairs")
        return None
    if chain is not None and len(custom) != chain.n_sites:
        errors.append(f"initial_state.custom: {len(custom)} sites listed, model has {chain.n_sites}")
    sites = []
    for j, site in enumerate(custom):
        field = f"initial_state.custom[{j}]"
        if not (_pair(site) and all(_pair(p) for p in site)):
            errors.append(f"{field}: expected two [re, im] pairs, got {site!r}")
            continue
        parts = [_number(errors, f"{field}[{k}]", x) for k, pair in enumerate(site) for x in pair]
        if None not in parts:
            amps = (complex(*parts[:2]), complex(*parts[2:]))
            if not abs(math.hypot(abs(amps[0]), abs(amps[1])) - 1.0) <= 1e-10:
                errors.append(f"{field}: not normalized")
            sites.append(amps)
    return tuple(sites) if len(errors) == count else None


def _pair(x: Any) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == 2


def validate(raw: dict) -> tuple[ExperimentConfig | None, list[str]]:
    """Normalize a parsed config, aggregating every violation.

    Returns (config, []) on success or (None, errors); errors name the
    offending field. Each field is parsed through FIELDS; the rules after
    that relate fields to each other.
    """
    if not isinstance(raw, dict):
        return None, ["config: expected a mapping at top level"]
    errors: list[str] = []
    sections = {(): raw}
    for path in FIELDS:
        if path[:-1] not in sections:
            section = _get(raw, path[0], {})
            if not isinstance(section, dict):
                errors.append(f"{path[0]}: expected a mapping")
                section = {}
            sections[path[:-1]] = section
    for prefix, section in sections.items():
        known = {path[len(prefix)] for path in FIELDS if path[: len(prefix)] == prefix}
        _unknown_fields(errors, "".join(f"{key}." for key in prefix), section, known)
    values: dict[str, Any] = {}
    for path, (attr, parse, default, check) in FIELDS.items():
        field = ".".join(path)
        value = _get(sections[path[:-1]], path[-1], default)
        if parse is not None:
            value = parse(errors, field, value)
        if check is not None and value is not None and not check[1](value):
            errors.append(f"{field}: {check[0]}")
        values[attr] = value

    kind, variant = values["kind"], values["variant"]
    if kind == "equivalence" and variant not in (None, "local"):
        errors.append(
            f"model.variant: equivalence runs compare the local chain with its "
            f"goe partner, got {variant!r}"
        )
    params = {f.name: values.pop(f"chain.{f.name}") for f in fields(ChainParams)}
    failed = any(e.startswith(f"model.{name}:") for e in errors for name in params)
    chain = values["chain"] = None if failed else ChainParams(**params)

    values["custom_state"] = None
    if values["initial_state"] == "custom":
        state = raw["initial_state"]
        _unknown_fields(errors, "initial_state.", state, {"custom"})
        if state.get("custom") is None:
            errors.append("initial_state: mapping form must carry a 'custom' list")
        else:
            values["custom_state"] = _custom_state(errors, state["custom"], chain)

    grid = sections[("time_grid",)]
    if values["grid_kind"] == "default":
        for key in ("t_max", "points"):
            if grid.get(key) is not None:
                errors.append(f"time_grid.{key}: only a linear grid takes it")
    elif values["grid_kind"] == "linear":
        if values["grid_t_max"] is None or values["grid_t_max"] <= 0:
            errors.append("time_grid.t_max: linear grids need a positive t_max")
        if values["grid_points"] is None or values["grid_points"] < 2:
            errors.append("time_grid.points: linear grids need at least 2 points")

    seeds = values["typical_seeds"]
    if sections[("observables",)].get("typical_count") is None:
        values["typical_count"] = 1 if seeds is None else len(seeds)
    typical_count = values["typical_count"]
    if seeds is not None and typical_count is not None and len(seeds) != typical_count:
        errors.append(
            f"observables.typical_seeds: {len(seeds)} seeds listed for "
            f"typical_count {typical_count}"
        )
    locals_raw = values["local_observables"]
    local_observables: list[tuple[int, str]] = []
    if not isinstance(locals_raw, list):
        errors.append("observables.local: expected a list of {site, axis}")
    else:
        for i, entry in enumerate(locals_raw):
            if isinstance(entry, dict):
                _unknown_fields(errors, f"observables.local[{i}].", entry, {"site", "axis"})
            if not isinstance(entry, dict) or "site" not in entry:
                errors.append(f"observables.local[{i}]: expected a {{site, axis}} mapping")
                continue
            site = _int(errors, f"observables.local[{i}].site", entry["site"])
            axis = str(entry.get("axis", "z"))
            if site is not None and chain is not None and not 0 <= site < chain.n_sites:
                errors.append(
                    f"observables.local[{i}].site: {site} outside [0, {chain.n_sites})"
                )
            if axis not in ("x", "y", "z"):
                errors.append(f"observables.local[{i}].axis: must be x, y, or z")
            if site is not None and (site, axis) in local_observables:
                errors.append(f"observables.local[{i}]: repeats site {site}, axis {axis}")
            local_observables.append((site, axis))
    values["local_observables"] = tuple(local_observables)
    if kind == "relax" and typical_count == 0 and not (
        values["include_slow"] or values["include_identity"] or local_observables
    ):
        errors.append("observables: relax runs need at least one observable")
    if kind == "equivalence" and typical_count is not None and typical_count < 1:
        errors.append("observables.typical_count: equivalence runs need at least 1")

    cuts_raw = values["cuts"]
    cuts: list[int] = []
    if not isinstance(cuts_raw, list):
        errors.append("cuts: expected a list of cut positions")
    else:
        for c in cuts_raw:
            c = _int(errors, "cuts", c)
            if c is None:
                continue
            if chain is not None and not 1 <= c <= chain.n_sites - 1:
                errors.append(f"cuts: cut {c} must lie in [1, {chain.n_sites - 1}]")
            if c in cuts:
                errors.append(f"cuts: cut {c} is repeated")
            cuts.append(c)
    if not cuts and chain is not None and kind == "entropy_scan":
        cuts = list(range(1, chain.n_sites))
    values["cuts"] = tuple(cuts)

    ref = values["reference_site"]
    if ref is not None and chain is not None:
        # a ring has radii from every site; an open chain none from its last
        last = chain.n_sites if chain.boundary == "periodic" else chain.n_sites - 1
        if not 0 <= ref < last:
            errors.append(f"reference_site: {ref} leaves no radii in a chain of {chain.n_sites}")

    if errors:
        return None, errors
    return ExperimentConfig(**values), []


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical plain-data form of a normalized config: every FIELDS path."""
    out: dict = {}
    for path, (attr, *_) in FIELDS.items():
        value = attrgetter(attr)(cfg)
        if attr == "initial_state" and value == "custom":
            value = {"custom": [[[c.real, c.imag] for c in site] for site in cfg.custom_state]}
        elif attr == "local_observables":
            value = [{"site": s, "axis": a} for s, a in value]
        elif isinstance(value, tuple):
            value = list(value)
        node = out
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return out


def build_initial_state(cfg: ExperimentConfig) -> PureState:
    _load()
    n = cfg.chain.n_sites
    up = (1.0, 0.0)
    down = (0.0, 1.0)
    plus = (1.0 / math.sqrt(2), 1.0 / math.sqrt(2))
    if cfg.initial_state == "all_up":
        return product_state([up] * n)
    if cfg.initial_state == "neel":
        return product_state([up if j % 2 == 0 else down for j in range(n)])
    if cfg.initial_state == "all_plus_x":
        return product_state([plus] * n)
    return product_state(list(cfg.custom_state))


def _variant_spectra(cfg: ExperimentConfig, psi0: PureState) -> tuple:
    """The eigensystem of a run's site-basis readers (None without them), and
    the spectral data of each variant, from one diagonalization of the
    chain. Only an entropy scan, a light cone or a relax run with local
    Paulis reads eigenvectors; the local chain of any other run is solved
    for the quench's spectrum alone, and the scrambled chain for its
    eigenvalues alone. The random matrix takes the occupied moments: its
    eigenvalues are drawn at mean 0 and width 1, then shifted and scaled to
    them. Each random variant draws only what the run reads: its reflectors
    where every eigenstate column is read (local Paulis; see scramble and
    goe_eigensystem), and otherwise the frame of the directions its reads
    reveal (see scrambled_frame and goe_frame), whose first read, psi0, gives
    the weights; a run that reads no state reads nothing more.
    """
    # only relax reads local Paulis; other kinds accept and ignore the field
    reflectors = cfg.kind == "relax" and bool(cfg.local_observables)
    reads_states = reflectors or cfg.kind in ("entropy_scan", "light_cone")
    if cfg.variant == "scrambled":
        ev = diagonalize(build_local_chain(cfg.chain), None, vectors=False)
        eig = (scramble if reflectors else scrambled_frame)(ev, derive_seed(cfg.master_seed, "scramble"))
        return (eig if reads_states else None), {"scrambled": occupied_spectrum(eig, psi0)}
    vectors = cfg.variant == "local" and reads_states
    eig = diagonalize(build_local_chain(cfg.chain), psi0, vectors=vectors)
    spectra = {"local": occupied_spectrum(eig, psi0) if vectors else eig}
    if cfg.kind == "equivalence" or cfg.variant == "goe":
        ts = timescales(spectra["local"], cfg.weight_floor)
        del eig
        seed = derive_seed(cfg.master_seed, "goe")
        unit = (goe_eigensystem if reflectors else goe_frame)(psi0.amplitudes.size, seed)
        eig = replace(unit, eigenvalues=ts.energy_mean + ts.energy_width * unit.eigenvalues)
        spectra["goe"] = occupied_spectrum(eig, psi0)
    return (eig if reads_states else None), spectra


class _RunWriter:
    """Collects output files, hashes them, and removes them all on failure."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.records: list[dict] = []

    def write_csv(self, name: str, header: str, rows) -> None:
        path = self.out_dir / name
        lines = [header]
        lines.extend(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) for row in rows)
        data = ("\n".join(lines) + "\n").encode()
        path.write_bytes(data)
        self.records.append(
            {"path": name, "sha256": hashlib.sha256(data).hexdigest()}
        )

    def cleanup(self) -> None:
        for rec in self.records:
            try:
                (self.out_dir / rec["path"]).unlink()
            except OSError:
                pass


def _typical_seed(cfg: ExperimentConfig, i: int) -> int:
    if cfg.typical_seeds is not None:
        return cfg.typical_seeds[i]
    return derive_seed(cfg.master_seed, f"typical:{i}")


def _typical_menu(cfg: ExperimentConfig, reads: list[tuple[SpectralData, TimeGrid]]):
    """Labelled typical observables as (series on each read, eigenstate expectations).

    Each draw is read against every (spectrum, grid) pair of reads and
    released before the next is built. Its diagonal is read first, off its
    diagonal tiles; the series then read only the rows and columns of the
    levels that some read weights, compacted one block row at a time, since
    a level of weight exactly 0 adds exactly 0 to every series. So only one
    draw, about half a dense matrix, is alive at a time. An equivalence
    run's GOE read weights every level, so it compacts nothing.
    """
    dim = reads[0][0].dim
    levels = np.nonzero(np.logical_or.reduce([sdata.weights != 0 for sdata, _ in reads]))[0]
    compact = levels.size < dim
    if compact:
        reads = [(SpectralData(s.eigenvalues[levels], s.weights[levels]), g) for s, g in reads]
    for i in range(cfg.typical_count):
        obs = typical_observable(dim, _typical_seed(cfg, i))
        diagonal = obs.diagonal()
        if compact:
            obs = _weighted_block(obs, levels)
        series = [expectation_series(sdata, obs, grid) for sdata, grid in reads]
        del obs
        yield f"typical_{i}", series, diagonal


def _observable_menu(cfg, eig, psi0, sdata, ts):
    """Every observable of a relax run, as (label, series, eigenstate expectations).

    The entries come in the order typical_i, slow, identity, local_*, but
    the local Paulis are read first: the menu then drops its reference to
    eig, so once the caller has dropped its own, the eigenvectors are
    released before the first typical draw is built.
    """
    grid = _series_grid(cfg, ts)
    local = []
    if cfg.local_observables:  # every Pauli is read off one pass of the states
        paulis = cfg.local_observables
        series = local_series(eig, psi0, paulis, grid)
        # a level without weight adds nothing to the diagonal ensemble, and
        # its eigenvector may be unsolved (see diagonalize): it reads 0, as
        # do the levels whose weight is rounding noise (see diagonal_ensemble)
        weighted = np.nonzero(sdata.weights > GAP_WEIGHT_FLOOR)[0]
        diagonals = np.zeros((len(paulis), sdata.dim))
        diagonals[:, weighted] = pauli_expectations(eig.eigenvectors, paulis, weighted)
        local = [
            (f"local_{axis}{site}", pauli, diagonal)
            for (site, axis), pauli, diagonal in zip(paulis, series, diagonals)
        ]
    del eig
    for label, (series,), diagonal in _typical_menu(cfg, [(sdata, grid)]):
        yield label, series, diagonal
    if cfg.include_slow:
        series = slow_series(sdata, _series_grid(cfg, ts, slow=True), cfg.weight_floor)
        yield "slow", series, np.zeros(sdata.dim)
    if cfg.include_identity:  # the normalized state reads 1 at every time
        yield "identity", TimeSeries(grid, np.ones(len(grid))), np.ones(sdata.dim)
    yield from local


def _series_grid(cfg: ExperimentConfig, ts: Timescales, slow: bool = False) -> TimeGrid:
    if cfg.grid_kind == "linear":
        return linear_grid(cfg.grid_t_max, cfg.grid_points)
    return default_slow_grid(ts) if slow else default_relax_grid(ts)


def _scan_grid(cfg: ExperimentConfig, points: int) -> TimeGrid:
    if cfg.grid_kind == "linear":
        return linear_grid(cfg.grid_t_max, cfg.grid_points)
    j = abs(cfg.chain.J)
    t_max = SCAN_SPAN / j if j > 0 else SCAN_SPAN
    return linear_grid(t_max, points)


def _time_major_rows(times: np.ndarray, labels, values: np.ndarray) -> list[tuple]:
    """(t, label, value) rows, time-major, of a labels x times array."""
    columns = zip(times.tolist(), values.T.tolist())
    return [(t, label, v) for t, column in columns for label, v in zip(labels, column)]


def _series_outputs(cfg, sdata, writer, menu, prefix: str = "") -> dict:
    """Write series_<prefix><label>.csv per menu entry; return the reports."""
    reports = {}
    for label, series, diagonal in menu:
        rep = relaxation_time(series, diagonal_ensemble(sdata, diagonal), cfg.threshold_fraction)
        writer.write_csv(
            f"series_{prefix}{label}.csv",
            "t,value",
            zip(series.times.tolist(), series.values.tolist()),
        )
        reports[label] = {**asdict(rep), "relaxed": rep.relaxed}
    return reports


def _dos_outputs(cfg, sdata, writer, prefix: str = "") -> dict:
    name = f"dos_{prefix}.csv" if prefix else "dos.csv"
    writer.write_csv(
        name,
        "energy,weight",
        zip(sdata.eigenvalues.tolist(), sdata.weights.tolist()),
    )
    fit = dos_fit(sdata, cfg.weight_floor)
    return {"gaussian_fit": asdict(fit)}


def _entropy_outputs(cfg, eig, psi0, writer) -> dict:
    grid = _scan_grid(cfg, DEFAULT_SCAN_POINTS)
    profile = entropy_scan(eig, psi0, cfg.cuts, grid)
    rows = _time_major_rows(grid.times, profile.cuts, profile.entropies)
    writer.write_csv("entropy.csv", "t,cut,entropy_nats", rows)
    fit = growth_fit(profile)
    per_cut = {str(f.cut): asdict(f) | {"fit_window": list(f.fit_window)} for f in fit.fits}
    for entry in per_cut.values():
        del entry["cut"]
    return {"growth_fit": per_cut, "saturation_fraction": fit.saturation_fraction}


def _front_outputs(cfg, eig, psi0, writer) -> dict:
    grid = _scan_grid(cfg, DEFAULT_FRONT_POINTS)
    front = light_cone(
        eig, psi0, cfg.reference_site, grid, cfg.front_threshold, cfg.chain.boundary == "periodic"
    )
    rows = _time_major_rows(grid.times, front.radii, front.correlator)
    writer.write_csv("front.csv", "t,r,correlation", rows)
    arrivals = {
        str(r): (None if np.isnan(a) else float(a))
        for r, a in zip(front.radii, front.arrival_times)
    }
    return {
        "velocity": front.velocity,
        "threshold": front.threshold,
        "arrival_times": arrivals,
    }


def run(cfg: ExperimentConfig, log=None) -> dict:
    """Execute a validated config; emit files and the manifest into out_dir.

    Returns the manifest as written: config echo, timescales, summaries,
    file digests, and the numpy build and BLAS thread count that solved it.
    """
    _load()
    log = log or (lambda msg: None)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = _RunWriter(out_dir)
    psi0 = build_initial_state(cfg)
    try:
        eig, spectra = _variant_spectra(cfg, psi0)
        if cfg.kind == "equivalence":
            results: dict = {"dos_fits": {}, "reports": {}}
            all_ts = {tag: timescales(sdata, cfg.weight_floor) for tag, sdata in spectra.items()}
            timescale_info = {tag: asdict(ts) for tag, ts in all_ts.items()}
            # each draw is read against both spectra, each on its own grid
            reads = [(spectra[tag], _series_grid(cfg, ts)) for tag, ts in all_ts.items()]
            draws = list(_typical_menu(cfg, reads))
            for k, (tag, sdata) in enumerate(spectra.items()):
                results["dos_fits"][tag] = _dos_outputs(cfg, sdata, writer, prefix=tag)[
                    "gaussian_fit"
                ]
                menu = ((label, series[k], diagonal) for label, series, diagonal in draws)
                results["reports"][tag] = _series_outputs(cfg, sdata, writer, menu, prefix=f"{tag}_")
        else:
            sdata = spectra[cfg.variant]
            ts = timescales(sdata, cfg.weight_floor)
            timescale_info = asdict(ts)
            if cfg.kind == "relax":
                menu = _observable_menu(cfg, eig, psi0, sdata, ts)
                del eig  # the menu holds the only reference until its Paulis are read
                results = {"reports": _series_outputs(cfg, sdata, writer, menu)}
            elif cfg.kind == "dos":
                results = _dos_outputs(cfg, sdata, writer)
            elif cfg.kind == "entropy_scan":
                results = _entropy_outputs(cfg, eig, psi0, writer)
            else:
                results = _front_outputs(cfg, eig, psi0, writer)
        # the solves' last bits follow the build and the BLAS thread count
        manifest = {
            "version": __version__,
            "blas_threads": _lapack.threads(),
            "numpy_version": np.__version__,
            "openblas_library": _lapack.library().name,
            "config": config_to_dict(cfg),
            "timescales": timescale_info,
            "results": results,
            "files": writer.records,
        }
        (out_dir / "manifest.yaml").write_bytes(yaml.safe_dump(manifest).encode())
        log(f"wrote {len(writer.records)} data files + manifest to {out_dir}")
        return manifest
    except Exception:
        writer.cleanup()
        raise


def _load_config(path: str, overrides: dict) -> tuple[ExperimentConfig | None, list[str]]:
    """The validated config at path, with the set overrides in place of its fields."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        return None, [f"config: cannot read {path}: {exc}"]
    except yaml.YAMLError as exc:
        return None, [f"config: parse error: {exc}"]
    if raw is None:
        raw = {}
    if isinstance(raw, dict):
        raw.update((key, value) for key, value in overrides.items() if value is not None)
    return validate(raw)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quenchlab",
        description="Quench experiments on spin chains: relaxation, DOS, entanglement, light cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a YAML experiment config")
    p_run.add_argument("--out-dir", help="override the config's output directory")
    p_run.add_argument("--seed", type=int, help="override the config's master_seed")
    p_run.add_argument("--threads", type=int, default=1, help="kept for compatibility; no effect")

    p_val = sub.add_parser("validate", help="check a config and print its normalized form")
    p_val.add_argument("config", help="path to a YAML experiment config")

    sub.add_parser("info", help="print version, desk-scale limits, LAPACK library, BLAS threads")

    args = parser.parse_args(argv)

    if args.command == "info":
        _load()
        print(f"quenchlab {__version__}")
        print(
            f"max sites: {MAX_SITES} (exact spectra; every chain kept as its terms and "
            "solved block by block in place, in its two reflection sectors where "
            "its diagonal allows)"
        )
        print(
            f"default chain: J={ChainParams.J}, h={ChainParams.h}, g={ChainParams.g}, "
            "open boundary"
        )
        try:
            print(f"lapack: {_lapack.describe()}")
            print(f"blas threads: {_lapack.threads()}")
            timeout = os.environ["OPENBLAS_THREAD_TIMEOUT"]
            late = " (not applied: numpy was loaded before quenchlab)" if _timeout_too_late else ""
            print(f"blas idle timeout: 2**{timeout} cycles (OPENBLAS_THREAD_TIMEOUT={timeout}){late}")
        except QuenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    overrides = {"out_dir": args.out_dir, "master_seed": args.seed} if args.command == "run" else {}
    cfg, errors = _load_config(args.config, overrides)
    if errors:
        for e in errors:
            print(f"invalid: {e}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print(yaml.safe_dump(config_to_dict(cfg)), end="")
        return 0

    if args.threads < 1:
        print("invalid: --threads must be at least 1", file=sys.stderr)
        return 1
    try:
        run(cfg, log=lambda m: print(m, file=sys.stderr))
    except QuenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures keep diagnostics on stderr
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
