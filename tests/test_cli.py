import hashlib
import inspect
import math
import os
import re
import subprocess
import sys
import textwrap
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import quenchlab as ql
from conftest import fresh_env
from oracles import (
    chain_matrix,
    dense_chain,
    dense_pauli,
    dense_vectors,
    eigensystem,
    evolve_spectral,
    frame_matrix,
    goe_tridiagonal,
    typical_matrix,
)
from quenchlab import _lapack, cli, observables, spectral

LN2 = math.log(2.0)
ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, raw, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def read_manifest(out_dir):
    return yaml.safe_load((out_dir / "manifest.yaml").read_text())


def test_validate_minimal_config_fills_defaults():
    cfg, errors = cli.validate({"kind": "relax"})
    assert errors == []
    assert cfg.variant == "local"
    assert cfg.chain.n_sites == 10
    assert (cfg.chain.J, cfg.chain.h, cfg.chain.g) == (1.0, 4.2, 2.0)
    assert cfg.chain.boundary == "open"
    assert cfg.initial_state == "neel"
    assert cfg.grid_kind == "default"
    assert cfg.typical_count == 1 and cfg.typical_seeds is None
    assert cfg.cuts == ()
    assert cfg.threshold_fraction == pytest.approx(1.0 / math.e)
    assert cfg.front_threshold == 0.01
    assert cfg.weight_floor == 1e-8
    assert cfg.out_dir == "runs" and cfg.master_seed == 0


def test_validate_entropy_scan_defaults_all_cuts():
    cfg, errors = cli.validate({"kind": "entropy_scan", "model": {"n_sites": 6}})
    assert errors == []
    assert cfg.cuts == (1, 2, 3, 4, 5)


def test_validate_rejects_out_of_range_cut():
    cfg, errors = cli.validate(
        {"kind": "entropy_scan", "model": {"n_sites": 6}, "cuts": [3, 6]}
    )
    assert cfg is None
    assert len(errors) == 1
    assert errors[0].startswith("cuts:") and "[1, 5]" in errors[0]


def test_validate_aggregates_errors():
    cfg, errors = cli.validate(
        {
            "kind": "warp",
            "model": {"variant": "banana"},
            "threshold_fraction": 1.5,
            "bogus": 1,
        }
    )
    assert cfg is None
    prefixes = {e.split(":")[0] for e in errors}
    assert {"kind", "model.variant", "threshold_fraction", "bogus"} <= prefixes


def test_validate_names_non_finite_numbers():
    raw = {
        "kind": "light_cone",
        "model": {"J": math.inf, "h": math.nan, "g": -math.inf, "disorder_width": math.nan},
        "time_grid": {"kind": "linear", "t_max": math.nan, "points": 5},
        "front_threshold": math.nan,
        "threshold_fraction": math.nan,
        "weight_floor": math.inf,
    }
    cfg, errors = cli.validate(raw)
    assert cfg is None
    prefixes = {e.split(":")[0] for e in errors}
    assert prefixes == {
        "model.J", "model.h", "model.g", "model.disorder_width", "time_grid.t_max",
        "front_threshold", "threshold_fraction", "weight_floor",
    }


def test_validate_names_unparsable_and_negative_fields():
    raw = {
        "kind": "relax",
        "model": {"n_sites": 6, "seed": -1},
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": "abc"},
        "observables": {"local": [{"site": "x"}], "typical_seeds": [-3]},
        "cuts": ["a"],
    }
    cfg, errors = cli.validate(raw)
    assert cfg is None
    prefixes = {e.split(":")[0] for e in errors}
    assert {
        "model.seed", "time_grid.points", "observables.local[0].site", "cuts",
        "observables.typical_seeds",
    } <= prefixes


def test_run_rejects_nan_time_grid(tmp_path, capsys):
    out = tmp_path / "out"
    raw = {
        "kind": "relax",
        "model": {"n_sites": 4},
        "time_grid": {"kind": "linear", "t_max": math.nan, "points": 5},
        "out_dir": str(out),
    }
    assert cli.main(["run", write_config(tmp_path, raw)]) == 1
    assert "invalid: time_grid.t_max:" in capsys.readouterr().err
    assert not out.exists()


# every scalar leaf of a config, set through a path of keys or list indices
SCALAR_FIELDS = (
    ("kind",), ("model", "variant"), ("model", "n_sites"), ("model", "J"),
    ("model", "h"), ("model", "g"), ("model", "disorder_width"),
    ("model", "boundary"), ("model", "seed"), ("initial_state",),
    ("time_grid", "kind"), ("time_grid", "t_max"), ("time_grid", "points"),
    ("observables", "typical_count"), ("observables", "typical_seeds", 0),
    ("observables", "slow"), ("observables", "identity"),
    ("observables", "local", 0, "site"), ("observables", "local", 0, "axis"),
    ("cuts", 0), ("reference_site",), ("front_threshold",),
    ("threshold_fraction",), ("weight_floor",), ("out_dir",), ("master_seed",),
)
SCALARS = st.one_of(
    st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.text(), st.none()
)


def fuzz_base() -> dict:
    return {
        "kind": "entropy_scan",
        "model": {"n_sites": 4},
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": 3},
        "observables": {"typical_seeds": [1], "local": [{"site": 0, "axis": "z"}]},
        "cuts": [1],
    }


@given(st.dictionaries(st.sampled_from(SCALAR_FIELDS), SCALARS, max_size=4))
@settings(max_examples=300, deadline=None)
def test_validate_never_raises_on_scalar_fields(updates):
    raw = fuzz_base()
    for path, value in updates.items():
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    cfg, errors = cli.validate(raw)
    assert (cfg is None) == bool(errors)
    assert all(isinstance(e, str) for e in errors)
    if cfg is not None:
        # an accepted config carries only finite numbers
        def leaves(x):
            if isinstance(x, dict):
                return [v for item in x.values() for v in leaves(item)]
            if isinstance(x, list):
                return [v for item in x for v in leaves(item)]
            return [x]

        floats = [v for v in leaves(cli.config_to_dict(cfg)) if isinstance(v, float)]
        assert all(math.isfinite(v) for v in floats)
        # the observable flags take booleans only; None means absent
        for flag in ("slow", "identity"):
            value = updates.get(("observables", flag))
            assert value is None or isinstance(value, bool)


@pytest.mark.parametrize("flag", ["slow", "identity"])
@pytest.mark.parametrize("value", ["no", "false", 1, 0, 1.0])
def test_validate_requires_boolean_observable_flags(tmp_path, capsys, flag, value):
    raw = {"kind": "relax", "observables": {"typical_count": 1, flag: value}}
    cfg, errors = cli.validate(raw)
    assert cfg is None
    assert errors == [f"observables.{flag}: expected true or false, got {value!r}"]
    assert cli.main(["run", write_config(tmp_path, raw)]) == 1
    assert f"invalid: observables.{flag}:" in capsys.readouterr().err
    for ok in (True, False):
        cfg, errors = cli.validate({**raw, "observables": {"typical_count": 1, flag: ok}})
        assert errors == []
        assert getattr(cfg, f"include_{flag}") is ok


def test_validate_site_cap_reports_model_only():
    cfg, errors = cli.validate({"kind": "entropy_scan", "model": {"n_sites": 99}})
    assert cfg is None
    assert len(errors) == 1 and errors[0].startswith("model.n_sites:")


def test_validate_names_every_model_field_error():
    model = {"n_sites": 20, "disorder_width": -1, "boundary": "ring", "J": "abc"}
    cfg, errors = cli.validate({"kind": "dos", "model": model})
    assert cfg is None
    assert sorted(e.split(":")[0] for e in errors) == [
        "model.J", "model.boundary", "model.disorder_width", "model.n_sites",
    ]
    assert cli.validate({"kind": "dos", "model": {"n_sites": 1}})[1] == [
        f"model.n_sites: must be in [2, {ql.MAX_SITES}]"
    ]



@pytest.mark.parametrize("name", ["J", "h", "g", "disorder_width"])
def test_validate_bounds_the_chain_terms(name):
    # beyond about 1e146 dsyevd would prescale a block, which the solver
    # leaves out; the bound keeps every admitted chain far below that
    assert cli.validate({"kind": "dos", "model": {name: 1e100}})[1] == []
    cfg, errors = cli.validate({"kind": "dos", "model": {name: 1e101}})
    assert cfg is None
    assert len(errors) == 1 and errors[0].startswith(f"model.{name}:")
    if name != "disorder_width":
        assert cli.validate({"kind": "dos", "model": {name: -1e100}})[1] == []
        assert cli.validate({"kind": "dos", "model": {name: -1e101}})[1] != []


def test_run_refuses_couplings_beyond_the_bound(tmp_path, capsys):
    out = tmp_path / "out"
    raw = {
        "kind": "entropy_scan",
        "model": {"n_sites": 8, "J": 1e150, "h": 1e150, "g": 1e150},
        "out_dir": str(out),
    }
    assert cli.main(["run", write_config(tmp_path, raw)]) == 1
    err = capsys.readouterr().err
    assert "invalid: model.J: must be at most 1e+100 in magnitude" in err
    assert "model.h:" in err and "model.g:" in err
    assert not out.exists()

def test_config_key_order_invariance():
    a = {"kind": "dos", "model": {"n_sites": 6, "h": 3.0}, "master_seed": 4}
    b = {"master_seed": 4, "model": {"h": 3.0, "n_sites": 6}, "kind": "dos"}
    cfg_a, _ = cli.validate(a)
    cfg_b, _ = cli.validate(b)
    assert cli.config_to_dict(cfg_a) == cli.config_to_dict(cfg_b)


def test_validate_typical_seeds_set_count():
    cfg, errors = cli.validate(
        {"kind": "relax", "observables": {"typical_seeds": [5, 9]}}
    )
    assert errors == []
    assert cfg.typical_count == 2 and cfg.typical_seeds == (5, 9)
    _, errors = cli.validate(
        {"kind": "relax", "observables": {"typical_seeds": [5, 9], "typical_count": 3}}
    )
    assert any(e.startswith("observables.typical_seeds:") for e in errors)


def test_validate_relax_needs_an_observable():
    _, errors = cli.validate(
        {"kind": "relax", "observables": {"typical_count": 0}}
    )
    assert any(e.startswith("observables:") for e in errors)


def test_validate_rejects_repeated_entries():
    raw = {
        "kind": "relax",
        "model": {"n_sites": 6},
        "observables": {
            "local": [
                {"site": 0, "axis": "z"}, {"site": 0, "axis": "x"}, {"site": 0, "axis": "z"}
            ]
        },
    }
    cfg, errors = cli.validate(raw)
    assert cfg is None
    assert errors == ["observables.local[2]: repeats site 0, axis z"]
    cfg, errors = cli.validate({"kind": "entropy_scan", "model": {"n_sites": 6}, "cuts": [2, 3, 2]})
    assert cfg is None
    assert errors == ["cuts: cut 2 is repeated"]
    cfg, errors = cli.validate({"kind": "relax", "observables": {"typical_seeds": [5, 9, 5]}})
    assert cfg is None
    assert errors == ["observables.typical_seeds: seed 5 is repeated"]


def test_run_rejects_repeated_entries(tmp_path, capsys):
    out = tmp_path / "out"
    raw = {**relax_config(out), "observables": {"local": [{"site": 1}, {"site": 1}]}}
    assert cli.main(["run", write_config(tmp_path, raw)]) == 1
    assert "invalid: observables.local[1]:" in capsys.readouterr().err
    assert not out.exists()


NEEL6 = [[[1.0, 0.0], [0.0, 0.0]] if j % 2 == 0 else [[0.0, 0.0], [1.0, 0.0]] for j in range(6)]


@pytest.mark.parametrize(
    "raw, expected",
    [
        ({"kind": "dos", "model": {"n_site": 12}}, ["model.n_site: unknown field"]),
        (
            {"kind": "relax", "observables": {"local": [{"site": 1, "axsi": "x"}]}},
            ["observables.local[0].axsi: unknown field"],
        ),
        ({"kind": "relax", "observables": {"typical_cout": 3}}, ["observables.typical_cout: unknown field"]),
        (
            {"kind": "relax", "time_grid": {"kind": "linear", "t_max": 1.0, "points": 5, "tmax": 2.0}},
            ["time_grid.tmax: unknown field"],
        ),
        (
            {"kind": "dos", "model": {"n_sites": 6}, "initial_state": {"custom": NEEL6, "phase": 0}},
            ["initial_state.phase: unknown field"],
        ),
        (
            {"kind": "dos", "model": {"n_sites": 6, 7: "x", None: 1}},
            ["model.7: unknown field", "model.None: unknown field"],
        ),
        ({"kind": "dos", 3: "x", "zeta": 1}, ["3: unknown field", "zeta: unknown field"]),
    ],
    ids=["model", "local_entry", "observables", "time_grid", "initial_state", "non_string", "top_level"],
)
def test_validate_names_unknown_nested_fields(tmp_path, capsys, raw, expected):
    cfg, errors = cli.validate(raw)
    assert cfg is None
    assert errors == expected
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    for command in ("validate", "run"):
        assert cli.main([command, str(path)]) == 1
        assert f"invalid: {expected[0]}\n" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["scrambled", "goe"])
def test_validate_equivalence_takes_only_the_local_variant(variant):
    raw = {"kind": "equivalence", "model": {"n_sites": 6, "variant": variant}}
    cfg, errors = cli.validate(raw)
    assert cfg is None
    assert len(errors) == 1 and errors[0].startswith("model.variant:")
    assert variant in errors[0]
    raw["model"]["variant"] = "local"
    assert cli.validate(raw)[1] == []


def test_validate_custom_state():
    s = 1.0 / math.sqrt(2.0)
    raw = {
        "kind": "dos",
        "model": {"n_sites": 2},
        "initial_state": {"custom": [[[s, 0.0], [s, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
    }
    cfg, errors = cli.validate(raw)
    assert errors == []
    assert cfg.initial_state == "custom"
    assert cfg.custom_state[1][0] == 1.0 + 0.0j
    raw["initial_state"]["custom"][0][0] = [0.9, 0.0]
    cfg, errors = cli.validate(raw)
    assert cfg is None and any("not normalized" in e for e in errors)


@pytest.mark.parametrize(
    "pair, expected",
    [
        (["0.6+0.8j", 0.0], "initial_state.custom[0][0]: expected a finite number, got '0.6+0.8j'"),
        ([True, 0.0], "initial_state.custom[0][0]: expected a finite number, got True"),
        (
            [1.0, 0.0, 5.0],
            "initial_state.custom[0]: expected two [re, im] pairs, got [[1.0, 0.0, 5.0], [0.0, 0.0]]",
        ),
    ],
    ids=["complex_text", "boolean", "three_parts"],
)
def test_validate_custom_components_are_two_finite_numbers(tmp_path, capsys, pair, expected):
    raw = {
        "kind": "dos",
        "model": {"n_sites": 2},
        "initial_state": {"custom": [[pair, [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
    }
    cfg, errors = cli.validate(raw)
    assert cfg is None
    assert errors == [expected]
    assert cli.main(["run", write_config(tmp_path, raw)]) == 1
    assert f"invalid: {expected}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid, expected",
    [
        ({"t_max": 2.0}, ["time_grid.t_max: only a linear grid takes it"]),
        (
            {"kind": "default", "t_max": 2.0, "points": 50},
            [
                "time_grid.t_max: only a linear grid takes it",
                "time_grid.points: only a linear grid takes it",
            ],
        ),
    ],
    ids=["t_max_only", "default_kind"],
)
def test_validate_rejects_grid_fields_the_default_grid_ignores(tmp_path, capsys, grid, expected):
    raw = {"kind": "relax", "time_grid": grid}
    cfg, errors = cli.validate(raw)
    assert cfg is None
    assert errors == expected
    assert cli.main(["run", write_config(tmp_path, raw)]) == 1
    assert f"invalid: {expected[0]}\n" in capsys.readouterr().err


def named_paths(raw: dict) -> set:
    """Every key path of a config, one or two levels deep."""
    nested = {(k, sub) for k, v in raw.items() if isinstance(v, dict) for sub in v}
    return {(k,) for k in raw} | nested


ROUND_TRIPS = {
    "light_cone": {"kind": "light_cone", "model": {"n_sites": 7}, "front_threshold": 0.02},
    **{
        f"shipped_{path.stem}": yaml.safe_load(path.read_text())
        for path in sorted((ROOT / "scripts" / "configs").glob("*.yaml"))
    },
    "custom": {
        "kind": "dos",
        "model": {"n_sites": 4},
        "initial_state": {"custom": [[[0.6, 0.0], [0.0, 0.8]], [[1.0, 0.0], [0.0, 0.0]]] * 2},
    },
    "goe": {"kind": "relax", "model": {"n_sites": 6, "variant": "goe"}, "initial_state": "all_up"},
    "scrambled": {"kind": "entropy_scan", "model": {"n_sites": 6, "variant": "scrambled"}},
    "linear_grid": {
        "kind": "relax",
        "time_grid": {"kind": "linear", "t_max": 2.5, "points": 7},
        "observables": {"typical_count": 0, "local": [{"site": 2, "axis": "y"}]},
    },
    "typical_seeds": {"kind": "equivalence", "observables": {"typical_seeds": [5, 9]}},
}


@pytest.mark.parametrize("raw", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_validate_normalization_is_idempotent(raw):
    cfg1, errors = cli.validate(raw)
    assert errors == []
    echoed = cli.config_to_dict(cfg1)
    cfg2, errors = cli.validate(yaml.safe_load(yaml.safe_dump(echoed)))
    assert errors == []
    assert cli.config_to_dict(cfg2) == echoed
    assert set(cli.FIELDS) <= named_paths(echoed)


def test_fuzz_sets_every_config_field():
    for path in cli.FIELDS:
        assert any(field[: len(path)] == path for field in SCALAR_FIELDS), path


def test_readme_config_in_full_validates_and_names_every_field():
    readme = (ROOT / "README.md").read_text()
    raw = yaml.safe_load(readme.split("A config in full")[1].split("```yaml\n")[1].split("```")[0])
    assert cli.validate(raw)[1] == []
    linear_only = {("time_grid", "t_max"), ("time_grid", "points")}
    assert set(cli.FIELDS) - named_paths(raw) == linear_only


def test_derive_seed_is_stable_and_label_sensitive():
    assert cli.derive_seed(3, "typical:0") == cli.derive_seed(3, "typical:0")
    assert cli.derive_seed(3, "typical:0") != cli.derive_seed(3, "typical:1")
    assert cli.derive_seed(3, "typical:0") != cli.derive_seed(4, "typical:0")


def relax_config(out_dir):
    return {
        "kind": "relax",
        "model": {"n_sites": 6},
        "time_grid": {"kind": "linear", "t_max": 2.0, "points": 40},
        "observables": {"typical_count": 1, "slow": True},
        "out_dir": str(out_dir),
        "master_seed": 11,
    }


def test_run_identity_reports_already_relaxed(tmp_path):
    out = tmp_path / "out"
    raw = {
        "kind": "relax",
        "model": {"n_sites": 5},
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": 12},
        "observables": {"typical_count": 0, "identity": True},
        "out_dir": str(out),
    }
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    rows = (out / "series_identity.csv").read_text().strip().splitlines()
    assert rows[0] == "t,value"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert values == [1.0] * 12
    report = read_manifest(out)["results"]["reports"]["identity"]
    assert report["relaxation_time"] == 0.0
    assert report["zero_initial_deviation"] is True
    assert report["relaxed"] is True


def test_run_is_deterministic_across_reruns_and_threads(tmp_path):
    outs = [tmp_path / f"run{i}" for i in range(3)]
    threads = ["1", "1", "3"]
    for out, th in zip(outs, threads):
        path = write_config(tmp_path, relax_config(out), name=f"{out.name}.yaml")
        assert cli.main(["run", path, "--threads", th]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert "manifest.yaml" in names and "series_slow.csv" in names
    for name in names:
        if name == "manifest.yaml":
            continue
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref
        assert (outs[2] / name).read_bytes() == ref
    manifests = [read_manifest(o) for o in outs]
    for m in manifests:
        m["config"]["out_dir"] = ""
    assert manifests[0] == manifests[1] == manifests[2]


def test_manifest_digests_match_files(tmp_path):
    # the file loads back as the manifest run returns, floats whose repr has
    # no dot (1e-08, 1e+100) included
    out = tmp_path / "out"
    cfg, errors = cli.validate({**relax_config(out), "weight_floor": 1e-8, "front_threshold": 1e100})
    assert errors == []
    returned = cli.run(cfg)
    manifest = read_manifest(out)
    assert manifest == returned
    assert (manifest["config"]["weight_floor"], manifest["config"]["front_threshold"]) == (1e-8, 1e100)
    assert manifest["files"]
    for rec in manifest["files"]:
        digest = hashlib.sha256((out / rec["path"]).read_bytes()).hexdigest()
        assert digest == rec["sha256"]


def test_seed_and_out_dir_overrides(tmp_path):
    out = tmp_path / "elsewhere"
    raw = relax_config(tmp_path / "ignored")
    path = write_config(tmp_path, raw)
    assert cli.main(["run", path, "--out-dir", str(out), "--seed", "7"]) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["master_seed"] == 7
    assert not (tmp_path / "ignored").exists()


def test_entropy_scan_run_reloads_with_invariants(tmp_path):
    out = tmp_path / "out"
    raw = {
        "kind": "entropy_scan",
        "model": {"n_sites": 8},
        "out_dir": str(out),
    }
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    rows = (out / "entropy.csv").read_text().strip().splitlines()
    assert rows[0] == "t,cut,entropy_nats"
    by_time: dict[float, dict[int, float]] = {}
    for line in rows[1:]:
        t, cut, s = line.split(",")
        by_time.setdefault(float(t), {})[int(cut)] = float(s)
    assert len(by_time) == 46
    for t, cols in by_time.items():
        assert sorted(cols) == list(range(1, 8))
        for cut, s in cols.items():
            assert -1e-12 <= s <= min(cut, 8 - cut) * LN2 + 1e-9
    assert all(s < 1e-10 for s in by_time[0.0].values())  # separable start
    fits = read_manifest(out)["results"]["growth_fit"]
    assert set(fits) == {str(c) for c in range(1, 8)}
    assert fits["4"]["rate"] > 0


def test_light_cone_run(tmp_path):
    out = tmp_path / "out"
    raw = {"kind": "light_cone", "model": {"n_sites": 6}, "out_dir": str(out)}
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    manifest = read_manifest(out)
    assert manifest["results"]["velocity"] > 0
    arrivals = manifest["results"]["arrival_times"]
    assert set(arrivals) == {str(r) for r in range(1, 6)}
    header = (out / "front.csv").read_text().splitlines()[0]
    assert header == "t,r,correlation"


def test_ring_light_cone_run_measures_ring_distances(tmp_path):
    # seven sites from site 0: radii 1..3 round the ring, not 1..6 one way,
    # so the front fits a positive velocity instead of NoFrontDetected
    out = tmp_path / "out"
    raw = {"kind": "light_cone", "model": {"n_sites": 7, "boundary": "periodic"}, "out_dir": str(out)}
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    manifest = read_manifest(out)
    assert manifest["results"]["velocity"] > 0
    assert set(manifest["results"]["arrival_times"]) == {"1", "2", "3"}


def test_reference_site_rule_holds_on_open_chains_only():
    # the last site has no radii to its right on an open chain; on a ring
    # every site has neighbors both ways
    for boundary, errors in (("open", 1), ("periodic", 0)):
        raw = {"kind": "light_cone", "model": {"n_sites": 5, "boundary": boundary}, "reference_site": 4}
        assert len(cli.validate(raw)[1]) == errors
    raw = {"kind": "light_cone", "model": {"n_sites": 5, "boundary": "periodic"}, "reference_site": 5}
    assert cli.validate(raw)[1] == ["reference_site: 5 leaves no radii in a chain of 5"]


def test_dos_run(tmp_path):
    out = tmp_path / "out"
    raw = {"kind": "dos", "model": {"n_sites": 8}, "out_dir": str(out)}
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    fit = read_manifest(out)["results"]["gaussian_fit"]
    assert fit["sigma"] > 0
    assert abs(fit["skewness"]) < 1.0
    rows = (out / "dos.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2**8


def test_equivalence_run(tmp_path):
    out = tmp_path / "out"
    raw = {
        "kind": "equivalence",
        "model": {"n_sites": 6},
        "time_grid": {"kind": "linear", "t_max": 2.0, "points": 30},
        "observables": {"typical_count": 1},
        "out_dir": str(out),
    }
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    manifest = read_manifest(out)
    assert set(manifest["timescales"]) == {"local", "goe"}
    assert set(manifest["results"]["dos_fits"]) == {"local", "goe"}
    for tag in ("local", "goe"):
        assert (out / f"dos_{tag}.csv").exists()
        assert (out / f"series_{tag}_typical_0.csv").exists()
    # the partner matches the chain's occupied moments up to overlap noise
    ts = manifest["timescales"]
    width = ts["local"]["energy_width"]
    assert abs(ts["goe"]["energy_mean"] - ts["local"]["energy_mean"]) < 0.5 * width
    assert 0.5 < ts["goe"]["energy_width"] / width < 2.0


def test_goe_partner_is_the_matched_draw_with_its_own_eigenvectors(tmp_path):
    out = tmp_path / "out"
    raw = {
        "kind": "equivalence",
        "model": {"n_sites": 7},
        "observables": {"typical_count": 1},
        "out_dir": str(out),
        "master_seed": 4,
    }
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    cfg, _ = cli.validate(raw)
    psi0 = cli.build_initial_state(cfg)
    chain = ql.diagonalize(ql.build_local_chain(cfg.chain))
    local = ql.timescales(ql.occupied_spectrum(chain, psi0))
    rows = [r.split(",") for r in (out / "dos_goe.csv").read_text().strip().splitlines()[1:]]
    energies, weights = np.array(rows, dtype=float).T
    # oracle: eigvalsh of the dense tridiagonal model drawn from the seed,
    # matched to the chain's moments, and the weights of the real Neel state
    # in law, g^2 / ||g||^2 of the dim normals the same generator draws next
    rng = np.random.default_rng(cli.derive_seed(4, "goe"))
    want = local.energy_mean + local.energy_width * np.linalg.eigvalsh(goe_tridiagonal(128, rng))
    assert np.max(np.abs(energies - want)) < 1e-12 * np.max(np.abs(want))
    assert abs(energies.mean() - local.energy_mean) < 1e-9
    assert abs(energies.std() - local.energy_width) < 1e-9
    g = rng.standard_normal(128)
    assert np.max(np.abs(weights - g**2 / (g @ g))) < 1e-12


def _dense_conjugation(tmp_path, raw):
    """A random-variant state run, and its oracle eigensystem and inputs.

    The run goes through the CLI. Replayed in process, _variant_spectra and
    the reader's own reads reveal the same Haar frame, to the bit; the
    oracle is the dense eigh of W diag(E) W^dag, with W the frame completed
    by any orthonormal complement (see frame_matrix).
    """
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    cfg, _ = cli.validate(raw)
    psi0 = cli.build_initial_state(cfg)
    eig, _ = cli._variant_spectra(cfg, psi0)
    assert isinstance(eig.eigenvectors, spectral._HaarFrame)
    return cfg, psi0, eig


def test_scrambled_entropy_scan_matches_dense_conjugation(tmp_path):
    out = tmp_path / "out"
    raw = {
        "kind": "entropy_scan",
        "model": {"n_sites": 8, "variant": "scrambled"},
        "out_dir": str(out),
        "master_seed": 3,
    }
    cfg, psi0, eig = _dense_conjugation(tmp_path, raw)
    grid = cli._scan_grid(cfg, cli.DEFAULT_SCAN_POINTS)
    replay = ql.entropy_scan(eig, psi0, cfg.cuts, grid)
    w = frame_matrix(eig.eigenvectors)
    m = (w * eig.eigenvalues[None, :]) @ w.conj().T
    profile = ql.entropy_scan(eigensystem((m + m.conj().T) / 2.0), psi0, cfg.cuts, grid)
    rows = (out / "entropy.csv").read_text().strip().splitlines()[1:]
    got = np.array([float(r.split(",")[2]) for r in rows]).reshape(grid.times.size, -1)
    assert got.shape == (46, 7)
    assert np.array_equal(got, replay.entropies.T)
    assert np.max(np.abs(got - profile.entropies.T)) < 1e-12


@pytest.mark.parametrize("variant, n", [("scrambled", 8), ("goe", 10)])
def test_random_light_cones_match_dense_conjugation(tmp_path, variant, n):
    out = tmp_path / "out"
    raw = {
        "kind": "light_cone",
        "model": {"n_sites": n, "variant": variant},
        "out_dir": str(out),
        "master_seed": 4,
    }
    cfg, psi0, eig = _dense_conjugation(tmp_path, raw)
    grid = cli._scan_grid(cfg, cli.DEFAULT_FRONT_POINTS)
    replay = ql.light_cone(eig, psi0, 0, grid, cfg.front_threshold)
    w = frame_matrix(eig.eigenvectors)
    m = (w * eig.eigenvalues[None, :]) @ w.conj().T
    front = ql.light_cone(eigensystem((m + m.conj().T) / 2.0), psi0, 0, grid, cfg.front_threshold)
    rows = (out / "front.csv").read_text().strip().splitlines()[1:]
    got = np.array([float(r.split(",")[2]) for r in rows]).reshape(grid.times.size, -1)
    assert got.shape == (61, n - 1)
    assert np.array_equal(got, replay.correlator.T)
    assert np.max(np.abs(got - front.correlator.T)) < 1e-12


@pytest.mark.parametrize("variant", ["local", "scrambled"])
def test_relax_local_paulis_match_state_vector_route(tmp_path, variant):
    out = tmp_path / "out"
    axes = ("x", "y", "z")
    raw = {
        "kind": "relax",
        "model": {"n_sites": 6, "variant": variant},
        "time_grid": {"kind": "linear", "t_max": 2.0, "points": 9},
        "observables": {
            "typical_count": 0,
            "local": [{"site": site, "axis": a} for site in (0, 4) for a in axes],
        },
        "out_dir": str(out),
        "master_seed": 5,
    }
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    # oracle: <psi(t)| sigma |psi(t)> with the dense site-basis Pauli
    cfg, _ = cli.validate(raw)
    eig = ql.diagonalize(ql.build_local_chain(cfg.chain))
    if variant == "scrambled":
        eig = ql.scramble(eig, cli.derive_seed(5, "scramble"))
    psi0 = cli.build_initial_state(cfg)
    grid = ql.linear_grid(2.0, 9)
    states = [evolve_spectral(eig, psi0, float(t)).amplitudes for t in grid.times]
    for site in (0, 4):
        for a in axes:
            dense = dense_pauli(6, site, a)
            want = [np.vdot(psi, dense @ psi).real for psi in states]
            rows = (out / f"series_local_{a}{site}.csv").read_text().strip().splitlines()
            got = [float(r.split(",")[1]) for r in rows[1:]]
            assert np.max(np.abs(np.array(got) - want)) < 1e-12


def test_relax_reads_every_local_pauli_from_one_pass_of_the_states(tmp_path, monkeypatch):
    # the Paulis of a run share its evolved states: one pass over the grid,
    # so one state product per block however many Paulis there are
    passes = []
    original = observables._state_blocks

    def counting(*args):
        passes.append(0)
        for item in original(*args):
            passes[-1] += 1
            yield item

    monkeypatch.setattr(observables, "_state_blocks", counting)
    out = tmp_path / "out"
    paulis = [{"site": 1, "axis": "z"}, {"site": 1, "axis": "x"}, {"site": 4, "axis": "y"}]
    raw = {
        "kind": "relax",
        "model": {"n_sites": 6},
        "time_grid": {"kind": "linear", "t_max": 2.0, "points": ql.dynamics.EVOLVE_BLOCK + 6},
        "observables": {"typical_count": 1, "identity": True, "local": paulis},
        "out_dir": str(out),
    }
    cfg, errors = cli.validate(raw)
    assert errors == []
    cli.run(cfg)
    assert passes == [2]
    for name in ("local_z1", "local_x1", "local_y4", "identity", "typical_0"):
        assert (out / f"series_{name}.csv").is_file()


def complex_custom_state(n: int) -> list:
    rng = np.random.default_rng(6)
    sites = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    sites /= np.linalg.norm(sites, axis=1, keepdims=True)
    return [[[z.real, z.imag] for z in site] for site in sites.tolist()]


@pytest.mark.parametrize("variant, state", [("local", "custom"), ("scrambled", "all_plus_x")])
def test_relax_typical_and_slow_match_the_dressed_double_sum(tmp_path, variant, state):
    out = tmp_path / "out"
    raw = {
        "kind": "relax",
        "model": {"n_sites": 6, "variant": variant},
        "initial_state": {"custom": complex_custom_state(6)} if state == "custom" else state,
        "time_grid": {"kind": "linear", "t_max": 2.0, "points": 9},
        "observables": {"typical_count": 2, "slow": True},
        "out_dir": str(out),
        "master_seed": 5,
    }
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    # oracle: the double sum over level pairs in the gauge diagonalize returns,
    # with complex overlaps c and each observable dressed as D O D^dag by
    # their phases D = diag(c / |c|)
    # (a scrambled run reads no state, so its overlaps are the in-law draw:
    # the seed's 64 complex normals, as interleaved pairs, over their norm)
    cfg, _ = cli.validate(raw)
    eig = ql.diagonalize(ql.build_local_chain(cfg.chain))
    if variant == "scrambled":
        z = np.random.default_rng(cli.derive_seed(5, "scramble")).standard_normal((64, 2))
        c = (z[:, 0] + 1j * z[:, 1]) / np.linalg.norm(z)
    else:
        c = dense_vectors(eig).conj().T @ cli.build_initial_state(cfg).amplitudes
    unit = c / np.abs(c)
    bare = {}
    for i in range(2):
        g = typical_matrix(64, cli._typical_seed(cfg, i))
        bare[f"typical_{i}"] = g / np.max(np.abs(np.linalg.eigvalsh(g)))
    occ = np.nonzero(np.abs(c) ** 2 > cfg.weight_floor)[0]
    band = np.zeros((64, 64))
    band[occ[:-1], occ[1:]] = band[occ[1:], occ[:-1]] = 1.0
    bare["slow"] = band
    e = eig.eigenvalues
    grid = ql.linear_grid(2.0, 9)
    for label, mat in bare.items():
        dressed = unit[:, None] * mat * unit.conj()[None, :]
        want = [
            (c.conj() @ (dressed * np.exp(1j * np.subtract.outer(e, e) * t)) @ c).real
            for t in grid.times
        ]
        rows = (out / f"series_{label}.csv").read_text().strip().splitlines()
        got = [float(r.split(",")[1]) for r in rows[1:]]
        assert np.max(np.abs(np.array(got) - want)) < 1e-12


def test_relax_reads_typical_series_on_the_weighted_levels_alone(tmp_path, monkeypatch):
    # the 9-site Neel state leaves its odd sector at weight exactly 0: the
    # series runs on the block rows of the weighted levels, and matches the
    # one on the whole draw; an equivalence run's GOE read weights every level
    shapes = []
    series = cli.expectation_series

    def tracking(sdata, obs, grid):
        shapes.append((obs.dim, obs.dim))
        return series(sdata, obs, grid)

    monkeypatch.setattr(cli, "expectation_series", tracking)
    raw = {
        "kind": "relax",
        "model": {"n_sites": 9},
        "initial_state": "neel",
        "time_grid": {"kind": "linear", "t_max": 3.0, "points": 70},
        "observables": {"typical_count": 1},
        "out_dir": str(tmp_path / "relax"),
    }
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    cfg, _ = cli.validate(raw)
    sdata = cli._variant_spectra(cfg, cli.build_initial_state(cfg))[1]["local"]
    levels = int(np.count_nonzero(sdata.weights))
    assert shapes == [(levels, levels)] and levels < 512
    obs = ql.typical_observable(512, cli._typical_seed(cfg, 0))
    want = series(sdata, obs, ql.linear_grid(3.0, 70)).values
    rows = (tmp_path / "relax" / "series_typical_0.csv").read_text().strip().splitlines()
    got = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.max(np.abs(got - want)) < 1e-12

    shapes.clear()
    raw.update(kind="equivalence", out_dir=str(tmp_path / "equivalence"))
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    assert shapes == [(512, 512), (512, 512)]


@pytest.mark.parametrize(
    "kind, variant, calls",
    [("equivalence", "local", 1), ("entropy_scan", "scrambled", 1), ("dos", "local", 1)],
)
def test_run_diagonalizes_the_chain_once(tmp_path, monkeypatch, kind, variant, calls):
    dtypes = []
    diagonalize = cli.diagonalize

    def counting(chain, psi0, **kwargs):
        # a chain has no dense matrix; its blocks share its terms' dtype
        dtypes.append(chain.diagonal.dtype)
        return diagonalize(chain, psi0, **kwargs)

    monkeypatch.setattr(cli, "diagonalize", counting)
    raw = {
        "kind": kind,
        "model": {"n_sites": 6, "variant": variant},
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": 5},
        "observables": {"typical_count": 1},
        "out_dir": str(tmp_path / "out"),
    }
    assert cli.main(["run", write_config(tmp_path, raw)]) == 0
    assert len(dtypes) == calls
    assert all(dt.kind == "f" for dt in dtypes)  # no complex eigh


# id -> (kind, variant, observables, eigendecompositions: the chain's alone,
# since the goe partner takes dsterf of a tridiagonal and a seeded eigenvector draw)
RUN_CONTRACT = {
    "relax": ("relax", "local", {"typical_count": 1, "slow": True, "local": [{"site": 1}]}, 1),
    "dos": ("dos", "local", {}, 1),
    "entropy_scan": ("entropy_scan", "local", {}, 1),
    "light_cone": ("light_cone", "local", {}, 1),
    "equivalence": ("equivalence", "local", {"typical_count": 1}, 1),
    "scrambled": ("relax", "scrambled", {"typical_count": 1, "local": [{"site": 0, "axis": "x"}]}, 1),
    "goe": ("entropy_scan", "goe", {}, 1),
}


@pytest.mark.parametrize("kind, variant, observables, eighs", RUN_CONTRACT.values(), ids=RUN_CONTRACT.keys())
def test_run_builds_and_diagonalizes_through_the_cli_globals(
    tmp_path, monkeypatch, kind, variant, observables, eighs
):
    # the benchmark's tracer wraps these two module globals; a run that
    # reaches the chain or its eigh another way reports no eigh to compare with
    calls = []

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("build_local_chain", "diagonalize"):
        monkeypatch.setattr(cli, name, counting(name))
    raw = {
        "kind": kind,
        "model": {"n_sites": 6, "variant": variant},
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": 5},
        "observables": observables,
        "out_dir": str(tmp_path / "out"),
    }
    cfg, errors = cli.validate(raw)
    assert errors == []
    cli.run(cfg)
    assert calls.count("build_local_chain") == 1
    assert calls.count("diagonalize") == eighs


# id -> (kind, variant, observables)
DENSE_ROUTE = {
    "relax": ("relax", "local", {
        "typical_count": 2, "slow": True, "identity": True,
        "local": [{"site": 1, "axis": axis} for axis in "xyz"],
    }),
    "relax_without_paulis": ("relax", "local", {"typical_count": 2, "slow": True, "identity": True}),
    "dos": ("dos", "local", {}),
    "entropy_scan": ("entropy_scan", "local", {}),
    "light_cone": ("light_cone", "local", {}),
    "equivalence": ("equivalence", "local", {"typical_count": 1}),
    "scrambled": ("relax", "scrambled", {"typical_count": 1, "local": [{"site": 0, "axis": "y"}]}),
    "goe": ("relax", "goe", {"typical_count": 1, "slow": True}),
}


def _equilibria(node, path=()):
    """(path, value) of every equilibrium_value in a manifest's results."""
    for key, value in node.items():
        if key == "equilibrium_value":
            yield path, value
        elif isinstance(value, dict):
            yield from _equilibria(value, path + (key,))


def _full_solve(solve):
    """A stand-in for cli.diagonalize that always solves by solve(chain, psi0), with eigenvectors.

    With vectors=False it returns the quench's spectrum read off that
    eigensystem, or with no state its eigenvalues, where the weights-only
    and eigenvalues-only solves return them directly.
    """
    def diagonalize(chain, psi0, vectors):
        eig = solve(chain, psi0)
        if vectors:
            return eig
        return eig.eigenvalues if psi0 is None else ql.occupied_spectrum(eig, psi0)

    return diagonalize


def _csv_tables(out_dir: Path) -> dict:
    tables = {}
    for path in sorted(out_dir.glob("*.csv")):
        header, *rows = path.read_text().splitlines()
        tables[path.name] = (header, [row.split(",") for row in rows])
    return tables


# On a ring, momenta k and -k pair into exactly degenerate levels. Where a
# quench occupies such a pair, its per-level weights, and so the eigenbasis
# outputs, depend on the basis chosen inside the pair, by the dense eigh as
# much as by the sectors. The Neel state of an even ring occupies none; the
# scrambled variant and the Neel state of an odd ring do, so there only the
# site-basis entropies compare.
# The Neel state of an odd chain, all_up and all_plus_x are reflection
# symmetric: the sector route leaves their odd sector unsolved. The slow
# series of all_up and all_plus_x runs to 25 Heisenberg times, where the
# eigenvalue rounding of either solver moves each cosine by its gap error
# times t: the dense eigh of the same matrix with its basis permuted already
# moves it by 1.4e-12 (N=8 open). It is held to SLOW_DRIFT_PER_TIME times
# the grid's last time instead of 1e-12; the largest drift seen, 3.42e-12 at
# t = 47.05 (all_plus_x, N=8 open, relax), is 7.3e-14 per unit time, so the
# bound leaves a margin of 2.7.
SLOW_DRIFT_PER_TIME = 2e-13
# A disordered chain breaks the reflection: the sector route solves it whole.
# The phased state (see phased_custom_state) has a complex component in
# both sectors, or in the one block of a disordered chain, so every run that
# reads no eigenvector solves for its overlaps as two real columns.
OVERLAP_ROUTE = ("relax_without_paulis", "dos", "equivalence", "goe")
DENSE_ROUTE_CASES = [
    *((label, n, "open", "neel", 0.0) for n in (7, 8) for label in DENSE_ROUTE),
    *((label, 8, "periodic", "neel", 0.0) for label in DENSE_ROUTE if label != "scrambled"),
    ("entropy_scan", 7, "periodic", "neel", 0.0),
    *(
        (label, 8, boundary, state, 0.0)
        for state in ("all_up", "all_plus_x")
        for boundary in ("open", "periodic")
        for label in DENSE_ROUTE
        if boundary == "open" or label != "scrambled"
    ),
    *((label, 7, "open", "neel", 0.5) for label in DENSE_ROUTE),
    *(
        (label, 8, boundary, "phased", width)
        for boundary, width in (("open", 0.0), ("periodic", 0.0), ("open", 0.5))
        for label in OVERLAP_ROUTE
    ),
]


def phased_custom_state(n: int) -> list:
    """A product state with a complex phase on every site, alike on sites of one parity.

    It breaks the site reflection, and on a ring it keeps the translation by
    two sites, so it occupies momenta 0 and pi alone: no degenerate +-k pair.
    """
    angles = [(0.4, 0.9), (1.2, -2.1)]
    return [
        [[math.cos(theta), 0.0], [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)]]
        for theta, phi in (angles[j % 2] for j in range(n))
    ]


@pytest.mark.filterwarnings("ignore:spectrum contains gaps below")  # the degenerate rings
@pytest.mark.parametrize(
    "label, n, boundary, state, width",
    DENSE_ROUTE_CASES,
    ids=[
        f"{l}-{n}-{b}" + ("" if s == "neel" else f"-{s}") + ("-disordered" if w else "")
        for l, n, b, s, w in DENSE_ROUTE_CASES
    ],
)
def test_run_outputs_match_the_dense_eigh(tmp_path, monkeypatch, label, n, boundary, state, width):
    # oracle: the same run with the chain's dense matrix solved by np.linalg.eigh
    kind, variant, observables = DENSE_ROUTE[label]
    outputs, manifests = {}, {}
    for route in ("sectors", "dense"):
        if route == "dense":
            monkeypatch.setattr(
                cli, "diagonalize", _full_solve(lambda chain, psi0: eigensystem(chain_matrix(chain)))
            )
        cfg, errors = cli.validate({
            "kind": kind,
            "model": {"n_sites": n, "variant": variant, "boundary": boundary,
                      "disorder_width": width},
            "initial_state": {"custom": phased_custom_state(n)} if state == "phased" else state,
            "observables": observables,
            "out_dir": str(tmp_path / route),
        })
        assert errors == []
        manifests[route] = cli.run(cfg)
        outputs[route] = _csv_tables(tmp_path / route)
    # the equilibria read the eigenstate expectations at the weighted levels
    want = dict(_equilibria(manifests["dense"]["results"]))
    got = dict(_equilibria(manifests["sectors"]["results"]))
    assert got.keys() == want.keys()
    assert all(abs(got[key] - want[key]) < 1e-12 for key in want), (got, want)
    assert outputs["sectors"].keys() == outputs["dense"].keys()
    for name, (header, rows) in outputs["dense"].items():
        got_header, got_rows = outputs["sectors"][name]
        assert got_header == header and len(got_rows) == len(rows), name
        want = np.array(rows, dtype=float)
        got = np.array(got_rows, dtype=float)
        drifts = state in ("all_up", "all_plus_x") and name == "series_slow.csv"
        bound = SLOW_DRIFT_PER_TIME * want[-1, 0] if drifts else 1e-12
        assert np.max(np.abs(got - want)) < bound, name


def _solver_calls(monkeypatch) -> list[str]:
    """The request of each block solve: eigh (V), eigvalsh, or eigh_values (values and overlaps)."""
    calls = []
    eigh = _lapack.eigh

    def counting(a, vectors=False, y=None):
        calls.append("eigh" if vectors else "eigvalsh" if y is None else "eigh_values")
        return eigh(a, vectors, y)

    monkeypatch.setattr(_lapack, "eigh", counting)
    return calls


@pytest.mark.parametrize(
    "n, solvers", [(7, ["eigh_values", "eigvalsh"]), (8, ["eigh_values", "eigh_values"])]
)
def test_a_symmetric_quench_solves_its_odd_sector_for_eigenvalues_only(
    tmp_path, monkeypatch, n, solvers
):
    # the Neel state is reflection symmetric at odd n only; no dos output
    # reads an eigenvector, so an occupied sector is solved for its
    # eigenvalues and the state's overlaps, and the empty one for its
    # eigenvalues alone
    calls = _solver_calls(monkeypatch)
    cfg, errors = cli.validate({"kind": "dos", "model": {"n_sites": n}, "out_dir": str(tmp_path)})
    assert errors == []
    cli.run(cfg)
    assert calls == solvers


@pytest.mark.parametrize(
    "kind, variant, observables, built",
    [
        ("dos", "local", {}, 0),
        ("equivalence", "local", {"typical_count": 1}, 0),
        ("relax", "goe", {"typical_count": 1, "slow": True}, 0),
        ("entropy_scan", "local", {}, 1),
    ],
    ids=["dos", "equivalence", "goe-relax", "entropy_scan"],
)
def test_a_run_that_reads_no_eigenvector_builds_no_sector_vectors(
    tmp_path, monkeypatch, kind, variant, observables, built
):
    # the weights-only solve returns the quench's spectrum itself, not an
    # eigensystem of unsolved blocks; an entropy scan, which reads the
    # eigenvectors, shows the count sees a construction
    dims = []
    build = spectral._built

    def counting(cls, *values):
        obj = build(cls, *values)
        if cls is spectral.SectorVectors:
            dims.append(obj.dim)
        return obj

    monkeypatch.setattr(spectral, "_built", counting)
    cfg, errors = cli.validate({
        "kind": kind,
        "model": {"n_sites": 6, "variant": variant},
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": 5},
        "observables": observables,
        "out_dir": str(tmp_path / "out"),
    })
    assert errors == []
    cli.run(cfg)
    assert dims == [64] * built


def test_only_relax_reads_local_paulis(tmp_path, monkeypatch):
    # a dos config may carry observables.local, which no dos output reads:
    # the run still solves for the overlaps alone, and writes the same bytes
    files = {}
    for carries in (False, True):
        calls = _solver_calls(monkeypatch)
        out = tmp_path / str(carries)
        raw = {"kind": "dos", "model": {"n_sites": 8}, "out_dir": str(out)}
        if carries:
            raw["observables"] = {"local": [{"site": 1, "axis": "z"}]}
        cfg, errors = cli.validate(raw)
        assert errors == []
        cli.run(cfg)
        assert calls == ["eigh_values", "eigh_values"]
        files[carries] = (out / "dos.csv").read_bytes()
    assert files[True] == files[False]


def test_ring_pauli_reads_skip_the_levels_of_rounding_noise(tmp_path, monkeypatch):
    # the 8-site Neel ring occupies momenta 0 and pi alone; its other levels
    # carry weights of rounding noise, below GAP_WEIGHT_FLOOR, whose
    # eigenstate expectations move no equilibrium. Oracle: the same run
    # reading every level of weight > 0
    gathered, manifests = [], []
    read = cli.pauli_expectations

    def counting(vectors, paulis, levels):
        gathered.append(levels.size)
        return read(vectors, paulis, levels)

    monkeypatch.setattr(cli, "pauli_expectations", counting)
    for floor in (cli.GAP_WEIGHT_FLOOR, 0.0):
        monkeypatch.setattr(cli, "GAP_WEIGHT_FLOOR", floor)
        cfg, errors = cli.validate({
            "kind": "relax",
            "model": {"n_sites": 8, "boundary": "periodic"},
            "observables": {"typical_count": 0, "local": [{"site": 1, "axis": a} for a in "xz"]},
            "out_dir": str(tmp_path / str(floor)),
        })
        assert errors == []
        manifests.append(cli.run(cfg))
    assert gathered[0] < gathered[1]
    got, want = (dict(_equilibria(m["results"])) for m in manifests)
    assert got.keys() == want.keys() and len(want) == 2
    assert all(abs(got[key] - want[key]) < 1e-12 for key in want), (got, want)


@pytest.mark.parametrize("variant, kinds", [("scrambled", ("dos", "entropy_scan")),
                                             ("goe", ("relax", "light_cone"))])
def test_a_state_run_and_a_weights_run_of_one_seed_carry_the_same_weights(variant, kinds):
    # a run that reads no state takes the weights off the first read of the
    # frame that a scan or a cone of its seed reads on: the same bits
    spectra = []
    for kind in kinds:
        cfg, errors = cli.validate({"kind": kind, "model": {"n_sites": 9, "variant": variant},
                                    "observables": {"typical_count": 1}, "master_seed": 6})
        assert errors == []
        spectra.append(cli._variant_spectra(cfg, cli.build_initial_state(cfg))[1][variant])
    assert np.array_equal(spectra[0].eigenvalues, spectra[1].eigenvalues)
    assert np.array_equal(spectra[0].weights, spectra[1].weights)


@pytest.mark.parametrize(
    "kind, variant, observables, drawn, frames",
    [
        ("dos", "scrambled", {}, 0, 1),
        ("relax", "scrambled", {"typical_count": 1, "slow": True}, 0, 1),
        ("equivalence", "local", {"typical_count": 1}, 0, 1),
        ("relax", "goe", {"typical_count": 1}, 0, 1),
        ("entropy_scan", "scrambled", {}, 0, 1),
        ("light_cone", "goe", {}, 0, 1),
        ("relax", "goe", {"typical_count": 0, "local": [{"site": 1}]}, 1, 0),
        ("relax", "scrambled", {"typical_count": 0, "local": [{"site": 1}]}, 1, 0),
    ],
    ids=["scrambled-dos", "scrambled-relax", "equivalence", "goe-relax", "scrambled-scan",
         "goe-light-cone", "goe-paulis", "scrambled-paulis"],
)
def test_a_random_partner_draws_reflectors_only_where_states_are_read(
    tmp_path, monkeypatch, kind, variant, observables, drawn, frames
):
    # a run that reads no state takes the partner's weights off its frame's
    # one read, with no reflector. A scan or a cone reads the frame on over
    # the directions it reads, and local Paulis, which read every eigenstate
    # column, draw the reflectors once
    panels, built = [], []
    draw = spectral._haar_reflectors
    frame = spectral._HaarFrame.__init__

    def counting(*args, **kwargs):
        vectors = draw(*args, **kwargs)
        panels.append(len(vectors.ys))
        return vectors

    def framing(self, *args, **kwargs):
        built.append(kwargs["real"])
        frame(self, *args, **kwargs)

    monkeypatch.setattr(spectral, "_haar_reflectors", counting)
    monkeypatch.setattr(spectral._HaarFrame, "__init__", framing)
    cfg, errors = cli.validate({
        "kind": kind,
        "model": {"n_sites": 6, "variant": variant},
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": 5},
        "observables": observables,
        "out_dir": str(tmp_path / "out"),
    })
    assert errors == []
    cli.run(cfg)
    assert panels == [1] * drawn
    assert built == [variant != "scrambled"] * frames


@pytest.mark.parametrize(
    "n, state, solvers, width",
    [
        pytest.param(8, "neel", ["eigvalsh", "eigvalsh"], 0.0, id="8-neel-solvers0"),
        pytest.param(7, "neel", ["eigvalsh", "eigvalsh"], 0.0, id="7-neel-solvers1"),
        pytest.param(9, "neel", ["eigvalsh", "eigvalsh"], 0.5, id="9-neel-disordered"),
    ],
)
def test_a_scrambled_run_solves_no_eigenvectors(tmp_path, monkeypatch, n, state, solvers, width):
    # scramble reads the chain's eigenvalues alone, so every sector, occupied
    # or not, is solved for its eigenvalues and nothing else (a disordered
    # chain is one block and an empty one). Oracle: the same run on the
    # eigenvalues of the full solve, which dstedc rounds differently from
    # dsterf, so every output agrees within 1e-12, not to the bit
    raw = {
        "kind": "entropy_scan",
        "model": {"n_sites": n, "variant": "scrambled", "disorder_width": width},
        "initial_state": state,
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": 5},
    }
    outputs = {}
    for route in ("values", "vectors"):
        cfg, errors = cli.validate({**raw, "out_dir": str(tmp_path / route)})
        assert errors == []
        if route == "vectors":
            monkeypatch.setattr(cli, "diagonalize", _full_solve(cli.diagonalize))
        calls = _solver_calls(monkeypatch)
        cli.run(cfg)
        if route == "values":
            assert calls == solvers
        outputs[route] = _csv_tables(tmp_path / route)
    assert outputs["values"].keys() == outputs["vectors"].keys() == {"entropy.csv"}
    (header, rows), (want_header, want_rows) = outputs["values"]["entropy.csv"], outputs["vectors"]["entropy.csv"]
    assert header == want_header
    assert np.max(np.abs(np.array(rows, dtype=float) - np.array(want_rows, dtype=float))) < 1e-12


def test_equivalence_draws_each_typical_observable_once(tmp_path, monkeypatch):
    # both spectra read the same draws, so each is built once, and released
    # before the next as in a relax run
    seeds, draws, live_at_draw = [], [], []
    draw = cli.typical_observable

    def counting(dim, seed):
        seeds.append(seed)
        live_at_draw.append(sum(ref() is not None for ref in draws))
        obs = draw(dim, seed)
        draws.extend([weakref.ref(obs), *map(weakref.ref, obs.rows)])
        return obs

    monkeypatch.setattr(cli, "typical_observable", counting)
    cfg, errors = cli.validate({
        "kind": "equivalence",
        "model": {"n_sites": 6},
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": 5},
        "observables": {"typical_count": 3},
        "out_dir": str(tmp_path / "out"),
    })
    assert errors == []
    manifest = cli.run(cfg)
    assert seeds == [cli._typical_seed(cfg, i) for i in range(3)]
    assert live_at_draw == [0, 0, 0]
    assert [f["path"] for f in manifest["files"]] == [
        "dos_local.csv", *(f"series_local_typical_{i}.csv" for i in range(3)),
        "dos_goe.csv", *(f"series_goe_typical_{i}.csv" for i in range(3)),
    ]


@pytest.mark.filterwarnings("ignore:spectrum contains gaps below")  # the degenerate ring
@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("state", ["all_up", "all_plus_x"])
@pytest.mark.parametrize("variant", ["local", "goe"])
def test_symmetric_slow_series_ignores_the_unsolved_sector(
    tmp_path, monkeypatch, variant, state, boundary
):
    # the slow series reads the occupied levels alone, all of them in the even
    # sector, whose solve is the same call on both routes: the same bytes.
    # The solved route takes the empty sector through the overlaps request
    # too, whose eigenvalues are those of the full solve
    files = {}
    eigh = _lapack.eigh

    def solved(a, vectors=False, y=None):
        return eigh(a, vectors, np.zeros(len(a)) if not vectors and y is None else y)

    for route in ("unsolved", "solved"):
        if route == "solved":
            monkeypatch.setattr(_lapack, "eigh", solved)
        cfg, errors = cli.validate({
            "kind": "relax",
            "model": {"n_sites": 8, "variant": variant, "boundary": boundary},
            "initial_state": state,
            "observables": {"typical_count": 0, "slow": True},
            "out_dir": str(tmp_path / route),
        })
        assert errors == []
        cli.run(cfg)
        files[route] = (tmp_path / route / "series_slow.csv").read_bytes()
    assert files["unsolved"] == files["solved"]


def test_each_typical_draw_is_released_before_the_next(tmp_path, monkeypatch):
    # a draw still referenced when the next is built keeps its block rows
    # alive; the yielded diagonal must not hold any of them either
    draws = []
    live_at_draw = []
    draw = cli.typical_observable

    def tracking(dim, seed):
        live_at_draw.append(sum(ref() is not None for ref in draws))
        obs = draw(dim, seed)
        draws.extend([weakref.ref(obs), *map(weakref.ref, obs.rows)])
        return obs

    monkeypatch.setattr(cli, "typical_observable", tracking)
    cfg, errors = cli.validate({
        "kind": "relax",
        "model": {"n_sites": 6},
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": 5},
        "observables": {"typical_count": 3},
        "out_dir": str(tmp_path / "out"),
    })
    assert errors == []
    cli.run(cfg)
    assert live_at_draw == [0, 0, 0]


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_relax_releases_the_eigenvectors_before_the_first_typical_draw(
    tmp_path, monkeypatch, boundary
):
    # only the local Paulis read V: it is read first and dropped, so no
    # typical draw is built next to it; the files keep their order
    vectors, live_at_draw = [], []
    solve, draw = cli.diagonalize, cli.typical_observable

    def tracking_solve(*args, **kwargs):
        eig = solve(*args, **kwargs)
        vectors.append(weakref.ref(eig.eigenvectors))
        return eig

    def tracking_draw(dim, seed):
        live_at_draw.append([ref() is not None for ref in vectors])
        return draw(dim, seed)

    monkeypatch.setattr(cli, "diagonalize", tracking_solve)
    monkeypatch.setattr(cli, "typical_observable", tracking_draw)
    cfg, errors = cli.validate({
        "kind": "relax",
        "model": {"n_sites": 8, "boundary": boundary},
        "observables": {
            "typical_count": 2, "slow": True,
            "local": [{"site": 5, "axis": "z"}, {"site": 5, "axis": "x"}],
        },
        "out_dir": str(tmp_path / "out"),
    })
    assert errors == []
    manifest = cli.run(cfg)
    assert live_at_draw == [[False], [False]]
    assert [rec["path"] for rec in manifest["files"]] == [
        f"series_{label}.csv" for label in ("typical_0", "typical_1", "slow", "local_z5", "local_x5")
    ]


def test_slow_and_local_equilibria_warn_on_a_repeated_level(tmp_path):
    # without a transverse field the chain is diagonal in the site basis,
    # and its spectrum repeats levels
    raw = {
        "kind": "relax",
        "model": {"n_sites": 4, "h": 0.0},
        "initial_state": "all_plus_x",
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": 5},
        "observables": {"typical_count": 0, "slow": True, "local": [{"site": 0, "axis": "x"}]},
        "out_dir": str(tmp_path / "out"),
    }
    cfg, _ = cli.validate(raw)
    with pytest.warns(UserWarning, match="gaps below") as record:
        cli.run(cfg)
    assert len(record) == 2  # one per equilibrium: the slow series and the local Pauli


def test_a_symmetric_ring_quench_does_not_warn_about_its_empty_levels(tmp_path):
    # all_up leaves the odd sector empty, and every sub-1e-12 gap of an
    # 8-site ring pairs a level with an empty partner; no weighted pair is
    # degenerate, so no term is left undephased
    cfg, errors = cli.validate({
        "kind": "relax",
        "model": {"n_sites": 8, "boundary": "periodic"},
        "initial_state": "all_up",
        "observables": {"typical_count": 1, "slow": True},
        "out_dir": str(tmp_path / "out"),
    })
    assert errors == []
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        cli.run(cfg)
    assert not [w for w in record if "gaps below" in str(w.message)]


def test_a_ring_quench_with_weight_on_a_momentum_pair_still_warns(tmp_path):
    # one flipped spin on a ring is neither reflection nor translation
    # symmetric: it puts real weight (above 1e-3) on both levels of some
    # degenerate +-k pair, whose off-diagonal term never dephases
    cfg, errors = cli.validate({
        "kind": "relax",
        "model": {"n_sites": 8, "boundary": "periodic"},
        "initial_state": {"custom": [[[0, 0], [1, 0]]] + [[[1, 0], [0, 0]]] * 7},
        "time_grid": {"kind": "linear", "t_max": 1.0, "points": 5},
        "observables": {"typical_count": 1},
        "out_dir": str(tmp_path / "out"),
    })
    assert errors == []
    with pytest.warns(UserWarning, match="gaps below 1e-12"):
        cli.run(cfg)


def test_run_rejects_invalid_config(tmp_path, capsys):
    out = tmp_path / "out"
    raw = {"kind": "warp", "out_dir": str(out)}
    assert cli.main(["run", write_config(tmp_path, raw)]) == 1
    assert "invalid: kind:" in capsys.readouterr().err
    assert not out.exists()


def test_run_cleans_up_on_runtime_failure(tmp_path, capsys):
    out = tmp_path / "out"
    raw = {
        "kind": "relax",
        "model": {"n_sites": 2, "h": 0.0, "g": 0.0},
        "initial_state": "all_up",
        "observables": {"typical_count": 0, "identity": True},
        "out_dir": str(out),
    }
    assert cli.main(["run", write_config(tmp_path, raw)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not any(out.iterdir())  # nothing left behind


def test_run_missing_config_file(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.yaml")]) == 1


def test_config_that_is_not_utf8_is_a_read_error(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_bytes(b"kind: dos\nout_dir: \xff\xfe\n")
    for command in ("validate", "run"):
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"invalid: config: cannot read {path}: ")


@pytest.mark.parametrize("out_dir", [{}, [1, 2], True, ""], ids=["mapping", "list", "boolean", "empty"])
def test_validate_requires_a_directory_path(tmp_path, monkeypatch, capsys, out_dir):
    raw = {"kind": "dos", "model": {"n_sites": 4}, "out_dir": out_dir}
    cfg, errors = cli.validate(raw)
    assert cfg is None
    assert errors == [f"out_dir: expected a directory path, got {out_dir!r}"]
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, raw)
    for command in ("validate", "run"):
        assert cli.main([command, path]) == 1
        assert "invalid: out_dir:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]
    cfg, errors = cli.validate({**raw, "out_dir": 2024})  # YAML reads a bare year as an int
    assert errors == [] and cfg.out_dir == "2024"


def test_out_dir_flag_requires_a_directory_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, {"kind": "dos", "model": {"n_sites": 4}})
    assert cli.main(["run", path, "--out-dir", ""]) == 1
    assert capsys.readouterr().err == "invalid: out_dir: expected a directory path, got ''\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]


def test_run_rejects_bad_thread_count(tmp_path):
    path = write_config(tmp_path, relax_config(tmp_path / "out"))
    assert cli.main(["run", path, "--threads", "0"]) == 1


def test_validate_subcommand_prints_normalized_config(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "dos", "model": {"n_sites": 6}})
    assert cli.main(["validate", path]) == 0
    printed = capsys.readouterr().out
    echoed = yaml.safe_load(printed)
    assert echoed["model"]["n_sites"] == 6
    assert echoed["model"]["h"] == 4.2
    assert "  h: 4.2\n" in printed and "weight_floor: 1.0e-08\n" in printed  # shortest repr
    assert echoed["time_grid"]["kind"] == "default"


def test_validate_subcommand_reports_errors(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "dos", "cuts": "nope"})
    assert cli.main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: cuts:")


def test_info_subcommand(capsys):
    assert cli.main(["info"]) == 0
    out = capsys.readouterr().out
    assert "quenchlab" in out and "max sites" in out
    # the library the eigensolvers resolved in, and each routine
    lapack = [line for line in out.splitlines() if line.startswith("lapack: ")]
    assert len(lapack) == 1 and str(_lapack.library()) in lapack[0]
    assert all(f"scipy_{name}_64_" in lapack[0] for name in _lapack.ROUTINES)


def test_info_reports_the_blas_threads(tmp_path):
    # OpenBLAS reads OPENBLAS_NUM_THREADS when numpy loads it: a fresh process
    proc = subprocess.run(
        [sys.executable, "-m", "quenchlab.cli", "info"], cwd=tmp_path,
        env=fresh_env(OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "blas threads: 1" in proc.stdout.splitlines()


def test_the_project_metadata_reads_the_version_from_the_package():
    # the version is written once, in quenchlab/__init__.py (a regex, since
    # tomllib is missing on Python 3.10)
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r"^(?:dynamic|version) = .*$", text, re.MULTILINE) == [
        'dynamic = ["version"]', 'version = {attr = "quenchlab.__version__"}'
    ]
    assert '[tool.setuptools.dynamic]\nversion = ' in text


def test_setuptools_reads_the_package_version_without_importing_it():
    pytest.importorskip("setuptools.config.pyprojecttoml")
    script = (
        "import sys, warnings\nwarnings.simplefilter('ignore')\n"
        "from setuptools.config.pyprojecttoml import read_configuration\n"
        f"print(read_configuration({str(ROOT / 'pyproject.toml')!r})['project']['version'])\n"
        "print('quenchlab' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=fresh_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [ql.__version__, "False"]


# the public names of 0.9.2, when __init__ imported each one eagerly, with
# 0.15.0's two frames in place of the weights in law, scrambled_spectrum and
# goe_spectrum
PUBLIC_NAMES = {
    "__version__", "MAX_SITES", "PureState", "product_state", "TimeGrid", "TimeSeries",
    "default_relax_grid", "default_slow_grid", "diagonal_ensemble", "expectation_series",
    "linear_grid", "CorrelationFront", "CutGrowth", "EntanglementProfile", "GrowthFit",
    "entropy_scan", "fit_front", "growth_fit", "light_cone", "ConvergenceFailure",
    "DegenerateWidth", "DimensionMismatch", "LapackUnavailable", "NoFrontDetected",
    "NonNormalizedLocal", "QuenchError", "RegionOutOfBounds", "SiteOutOfBounds",
    "TooFewOccupied", "ChainParams", "SpinChain", "build_local_chain", "ObservableMatrix",
    "RelaxationReport", "local_series", "pauli_expectations", "relaxation_time", "slow_series",
    "typical_observable", "DEFAULT_WEIGHT_FLOOR", "EigenSystem", "GaussianFit",
    "HouseholderVectors", "SectorVectors", "SpectralData", "Timescales", "diagonalize",
    "dos_fit", "goe_eigensystem", "goe_frame", "occupied_spectrum", "scramble",
    "scrambled_frame", "timescales",
}


def test_star_import_binds_the_export_table_and_the_version():
    # __all__ is derived from __init__'s export table; this pins the rule
    exported = [name for names in ql._EXPORTS.values() for name in names]
    assert ql.__all__ == ["__version__", *exported]
    assert len(set(ql.__all__)) == len(ql.__all__) == len(PUBLIC_NAMES)
    namespace: dict = {}
    exec("from quenchlab import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(ql.__all__) == PUBLIC_NAMES
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())


@pytest.mark.parametrize(
    "config", sorted((ROOT / "scripts" / "configs").glob("*.yaml")), ids=lambda path: path.stem
)
def test_validate_loads_no_numpy(tmp_path, capsys, config):
    script = textwrap.dedent(
        f"""
        import runpy, sys
        sys.argv = ["quenchlab", "validate", {str(config)!r}]
        try:
            runpy.run_module("quenchlab.cli", run_name="__main__")
        except SystemExit as exc:
            print(exc.code, "numpy" in sys.modules, file=sys.stderr)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=fresh_env(),
        capture_output=True, timeout=120,
    )
    assert proc.stderr.split() == [b"0", b"False"], proc.stderr
    assert cli.main(["validate", str(config)]) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def test_the_package_binds_its_numeric_names_on_first_read(tmp_path):
    script = textwrap.dedent(
        """
        import sys
        import quenchlab
        from quenchlab import cli
        print("numpy" in sys.modules)
        cfg, _ = cli.validate({"kind": "dos", "model": {"n_sites": 4}})
        print(cli.build_initial_state(cfg).amplitudes.size)
        import quenchlab.spectral
        print(quenchlab.diagonalize is cli.diagonalize is quenchlab.spectral.diagonalize)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=fresh_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "16", "True"]


@pytest.mark.parametrize("module", [ql, cli], ids=["quenchlab", "cli"])
@pytest.mark.parametrize("name", ["no_such_name", "to_eigenbasis", "build_goe"])
def test_an_unknown_name_is_an_attribute_error(module, name):
    # the tracer lists names that cli lacks; they must read as absent
    with pytest.raises(AttributeError, match=name):
        getattr(module, name)


@pytest.mark.parametrize("read_first", [True, False], ids=["getattr_setattr", "setattr_only"])
def test_wrappers_set_on_a_fresh_cli_import_are_the_ones_a_run_calls(tmp_path, read_first):
    # the benchmark's tracer imports quenchlab.cli and sets its wrappers
    # before any run has bound the numeric names; binding them keeps the wrappers
    raw = {"kind": "dos", "model": {"n_sites": 6}, "out_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path, raw)
    script = textwrap.dedent(
        f"""
        from importlib import import_module
        cli = import_module("quenchlab.cli")
        homes = {{"build_local_chain": "quenchlab.hamiltonian",
                  "diagonalize": "quenchlab.spectral"}}
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name, home in homes.items():
            original = getattr(cli if {read_first!r} else import_module(home), name)
            setattr(cli, name, counting(name, original))
        print("np" in vars(cli))
        assert cli.main(["run", {cfg!r}]) == 0
        print(calls.count("build_local_chain"), calls.count("diagonalize"))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=fresh_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(read_first), "1", "1"]


def test_validate_reads_its_defaults_from_the_library():
    cfg, errors = cli.validate({"kind": "dos"})
    assert errors == []
    assert cfg.chain == ql.ChainParams(10)
    cone = inspect.signature(ql.light_cone).parameters["threshold"]
    relax = inspect.signature(ql.relaxation_time).parameters["threshold_fraction"]
    assert (cfg.front_threshold, cfg.threshold_fraction) == (cone.default, relax.default)


def test_the_suite_runs_with_the_blas_idle_timeout():
    # conftest imports quenchlab before numpy, so OpenBLAS read the timeout
    # and idle workers sleep between the suite's BLAS calls
    assert not ql._timeout_too_late


def test_cli_processes_import_no_scipy(tmp_path):
    dos = write_config(
        tmp_path, {"kind": "dos", "model": {"n_sites": 6}, "out_dir": str(tmp_path / "dos")},
        name="dos.yaml",
    )
    relax = write_config(tmp_path, relax_config(tmp_path / "relax"), name="relax.yaml")
    script = textwrap.dedent(
        f"""
        import sys
        from quenchlab.cli import main
        codes = [main(["validate", {dos!r}]), main(["run", {dos!r}]), main(["run", {relax!r}])]
        assert codes == [0, 0, 0], codes
        print(sorted(m for m in sys.modules if m.split(".")[0].startswith("scipy")))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=fresh_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_import_leaves_the_thread_pool_module_unloaded(tmp_path):
    # concurrent.futures takes about 3 ms to import, which every run would
    # pay at start-up; the typical draw's workers are plain threads
    script = "import sys, quenchlab.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=fresh_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_a_clean_chain_run_leaves_numpy_random_unloaded(tmp_path):
    # a chain without disorder draws nothing; importing numpy.random takes
    # about 6 ms of every clean dos, entropy scan and light cone process
    dos = write_config(
        tmp_path, {"kind": "dos", "model": {"n_sites": 6}, "out_dir": str(tmp_path / "dos")},
        name="dos.yaml",
    )
    script = (
        f"import sys\nfrom quenchlab.cli import main\nassert main(['run', {dos!r}]) == 0\n"
        "print('numpy.random' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=fresh_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("set_to, shown", [(None, "20"), ("24", "24")])
def test_info_reports_the_blas_idle_timeout(tmp_path, set_to, shown):
    proc = subprocess.run(
        [sys.executable, "-m", "quenchlab.cli", "info"], cwd=tmp_path,
        env=fresh_env(OPENBLAS_THREAD_TIMEOUT=set_to), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = f"blas idle timeout: 2**{shown} cycles (OPENBLAS_THREAD_TIMEOUT={shown})"
    assert line in proc.stdout.splitlines()


def test_info_says_the_idle_timeout_came_too_late_after_numpy(tmp_path):
    # OpenBLAS read its environment when numpy loaded, before quenchlab set it
    script = "import numpy\nfrom quenchlab import cli\ncli.main(['info'])"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path,
        env=fresh_env(OPENBLAS_THREAD_TIMEOUT=None), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = (
        "blas idle timeout: 2**20 cycles (OPENBLAS_THREAD_TIMEOUT=20) "
        "(not applied: numpy was loaded before quenchlab)"
    )
    assert line in proc.stdout.splitlines()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores")
def test_idle_blas_workers_sleep_after_a_product(tmp_path):
    # at OpenBLAS's default 2**28 cycles the idle worker spins through the
    # whole sleep (about 100 ms of CPU for 100 ms); importing quenchlab first
    # parks it within a millisecond
    script = textwrap.dedent(
        """
        import resource, time
        import quenchlab
        import numpy as np
        a = np.ones((300, 300))
        a @ a
        def cpu():
            usage = resource.getrusage(resource.RUSAGE_SELF)
            return usage.ru_utime + usage.ru_stime
        before = cpu()
        time.sleep(0.1)
        print(cpu() - before)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path,
        env=fresh_env(OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=None),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.4 * 0.1


def test_csvs_that_follow_the_blas_thread_count_are_told_apart_by_the_manifest(tmp_path):
    # the eigensolves' last bits may follow the number of BLAS threads (at
    # 10 sites they do, on two cores); the manifest records it and the build
    csvs, manifests = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        config = write_config(
            tmp_path, {"kind": "dos", "model": {"n_sites": 10}, "out_dir": str(out)},
            name=f"{threads}.yaml",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "quenchlab.cli", "run", config], cwd=tmp_path,
            env=fresh_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        csvs.append({path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
        manifests.append(read_manifest(out))
    for manifest in manifests:
        assert manifest["numpy_version"] == np.__version__
        assert manifest["openblas_library"] == _lapack.library().name
        assert manifest["blas_threads"] >= 1
    assert manifests[0]["blas_threads"] == 1
    assert csvs[0] == csvs[1] or manifests[0]["blas_threads"] != manifests[1]["blas_threads"]


def test_the_idle_timeout_leaves_the_outputs_unchanged(tmp_path):
    # only how long an idle BLAS worker spins changes, not the threads or
    # how the work is split among them
    raw = {**relax_config(None), "observables": {"typical_count": 1, "local": [{"site": 2}]}}
    csvs = []
    for timeout in (None, "28"):
        out = tmp_path / f"out{timeout}"
        config = write_config(tmp_path, {**raw, "out_dir": str(out)}, name=f"{timeout}.yaml")
        proc = subprocess.run(
            [sys.executable, "-m", "quenchlab.cli", "run", config], cwd=tmp_path,
            env=fresh_env(OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=timeout),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        csvs.append({path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
    assert csvs[0] and csvs[0] == csvs[1]
