import hashlib
import math
import shutil

import pytest
import yaml

from checks import check_run, neel_moments
from quenchlab.cli import main as quenchlab_main

CONFIGS = {
    "relax": {
        "kind": "relax",
        "model": {"n_sites": 8},
        "observables": {"typical_count": 2, "slow": True, "local": [{"site": 3, "axis": "z"}]},
    },
    "entropy_scan": {
        "kind": "entropy_scan",
        "model": {"n_sites": 6},
        "time_grid": {"kind": "linear", "t_max": 3.0, "points": 20},
    },
    "light_cone": {"kind": "light_cone", "model": {"n_sites": 8}, "reference_site": 0},
    "equivalence": {"kind": "equivalence", "model": {"n_sites": 6}, "observables": {"typical_count": 1}},
    "dos": {"kind": "dos", "model": {"n_sites": 8}},
}


@pytest.fixture(scope="session")
def pristine(tmp_path_factory):
    """One real run directory per experiment kind, made by the CLI."""
    base = tmp_path_factory.mktemp("runs")
    dirs = {}
    for name, cfg in CONFIGS.items():
        path = base / f"{name}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = base / name
        assert quenchlab_main(["run", str(path), "--out-dir", str(out), "--seed", "5"]) == 0
        dirs[name] = out
    return dirs


@pytest.fixture
def run_copy(pristine, tmp_path):
    def copy(name):
        return shutil.copytree(pristine[name], tmp_path / name)

    return copy


def _manifest(run_dir):
    return yaml.safe_load((run_dir / "manifest.yaml").read_text())


def _write_manifest(run_dir, manifest):
    (run_dir / "manifest.yaml").write_text(yaml.safe_dump(manifest))


def _rewrite_csv(run_dir, name, edit):
    """Apply edit(rows) to a CSV and update its digest, so only content checks fire."""
    path = run_dir / name
    header, *rows = path.read_text().splitlines()
    rows = [row.split(",") for row in rows]
    edit(rows)
    data = "\n".join([header, *(",".join(r) for r in rows)]) + "\n"
    path.write_text(data)
    manifest = _manifest(run_dir)
    for rec in manifest["files"]:
        if rec["path"] == name:
            rec["sha256"] = hashlib.sha256(data.encode()).hexdigest()
    _write_manifest(run_dir, manifest)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_real_runs_pass(pristine, name):
    assert check_run(pristine[name]) == []


def test_neel_oracle_matches_the_run():
    assert neel_moments({"n_sites": 12, "J": 1.0, "h": 4.2, "g": 2.0}) == pytest.approx(
        (11.0, 4.2 * math.sqrt(12)), rel=1e-15)
    assert neel_moments({"n_sites": 11, "J": 1.0, "h": 4.2, "g": 2.0})[0] == 8.0


def test_nan_in_csv_is_rejected(run_copy):
    run = run_copy("relax")
    _rewrite_csv(run, "series_typical_0.csv", lambda rows: rows[3].__setitem__(1, "nan"))
    assert any("non-finite" in p for p in check_run(run))


def test_wrong_digest_is_rejected(run_copy):
    run = run_copy("dos")
    manifest = _manifest(run)
    manifest["files"][0]["sha256"] = "0" * 64
    _write_manifest(run, manifest)
    assert any("sha256" in p for p in check_run(run))


def test_edited_data_file_fails_its_digest(run_copy):
    run = run_copy("dos")
    with (run / "dos.csv").open("a") as f:
        f.write("0,0\n")
    assert any("sha256" in p for p in check_run(run))


@pytest.mark.parametrize("key", ["energy_width", "energy_mean"])
def test_energy_off_by_one_part_per_million_is_rejected(run_copy, key):
    run = run_copy("dos")
    manifest = _manifest(run)
    manifest["timescales"][key] *= 1 + 1e-6
    _write_manifest(run, manifest)
    assert any(key in p for p in check_run(run))


def test_equivalence_local_energy_is_checked(run_copy):
    run = run_copy("equivalence")
    manifest = _manifest(run)
    manifest["timescales"]["local"]["energy_width"] *= 1 + 1e-6
    _write_manifest(run, manifest)
    assert any("energy_width" in p for p in check_run(run))


def test_goe_moments_off_are_rejected(run_copy):
    def shift(rows):
        for row in rows:
            row[0] = repr(float(row[0]) * (1 + 1e-6))

    run = run_copy("equivalence")
    _rewrite_csv(run, "dos_goe.csv", shift)
    problems = check_run(run)
    assert any("dos_goe.csv" in p and "mean" in p for p in problems)


def test_entropy_above_the_page_bound_is_rejected(run_copy):
    run = run_copy("entropy_scan")
    _rewrite_csv(run, "entropy.csv", lambda rows: rows[-1].__setitem__(2, "5.0"))
    assert any("outside" in p for p in check_run(run))


def test_nonzero_initial_entropy_is_rejected(run_copy):
    run = run_copy("entropy_scan")
    _rewrite_csv(run, "entropy.csv", lambda rows: rows[0].__setitem__(2, "0.01"))
    assert any("S(0)" in p for p in check_run(run))


@pytest.mark.parametrize("velocity", [0.0, -1.0, float("inf")])
def test_bad_velocity_is_rejected(run_copy, velocity):
    run = run_copy("light_cone")
    manifest = _manifest(run)
    manifest["results"]["velocity"] = velocity
    _write_manifest(run, manifest)
    assert any("velocity" in p for p in check_run(run))


def test_slow_observable_must_relax_last(run_copy):
    run = run_copy("relax")
    manifest = _manifest(run)
    reports = manifest["results"]["reports"]
    reports["slow"]["relaxation_time"] = reports["typical_1"]["relaxation_time"]
    _write_manifest(run, manifest)
    assert any("not later than typical_1" in p for p in check_run(run))


def test_missing_manifest_is_rejected(run_copy):
    run = run_copy("dos")
    (run / "manifest.yaml").unlink()
    assert check_run(run) and "manifest.yaml" in check_run(run)[0]
