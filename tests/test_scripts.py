"""The shipped configs validate, and the example and benchmark scripts run end to end."""
import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import quenchlab
from conftest import fresh_env
from quenchlab import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.yaml"))


def _run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=fresh_env(), capture_output=True, text=True, timeout=120,
    )


def test_every_kind_has_a_shipped_config():
    kinds = {yaml.safe_load(path.read_text())["kind"] for path in CONFIGS}
    assert kinds == set(cli.KINDS)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_validates(path, capsys):
    cfg, errors = cli.validate(yaml.safe_load(path.read_text()))
    assert errors == []
    assert cfg.kind == path.stem
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_relaxation_hierarchy_script_runs(tmp_path):
    proc = _run_script("relaxation_hierarchy.py", "--sizes", "6", "--seeds", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["N", "tau_B", "t_H", "typical", "slow", "ratio"]
    assert row.split()[0] == "6"


def test_entanglement_regimes_script_runs(tmp_path):
    out = tmp_path / "out"
    proc = _run_script("entanglement_regimes.py", "--sites", "6", "--out-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0].strip() for line in lines[:2]] == ["local", "scrambled"]
    for tag in ("local", "scrambled"):
        rows = (out / f"entropy_{tag}.csv").read_text().splitlines()
        assert rows[0] == "t,cut,entropy_nats"
        assert len(rows) == 1 + 46 * 5


def test_bench_layers_script_writes_every_row(tmp_path):
    proc = _run_script(
        "bench_layers.py", str(ROOT), "--sizes", "6", "--label", "t", "--out-dir", str(tmp_path),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["report_only"] is True and "not recorded" in record["stage_times"]
    (checkout,) = record["checkouts"]
    assert checkout["version"] == quenchlab.__version__
    assert {"blas_threads", "numpy_version", "commit"} <= checkout.keys()
    runs = checkout["runs"]
    assert [run["row"] for run in runs] == list(record["rows"])
    for run in runs:
        assert run["n_sites"] == 6 and run["returncode"] == 0
        assert run["wall_s"] > 0 and run["cpu_s"] > 0 and run["peak_rss_mb"] > 0


def test_bench_layers_script_runs_picked_rows_in_alternating_pairs(tmp_path):
    # --rows dos --repeat 2 against HEAD: a warm-up, then two pairs, the
    # checkout first in the first pair and the baseline first in the second
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True)
    if head.returncode != 0:
        pytest.skip("the checkout is not a git repository with a HEAD")
    proc = _run_script(
        "bench_layers.py", str(ROOT), "--sizes", "6", "--rows", "dos", "--repeat", "2",
        "--baseline", "HEAD", "--label", "t", "--out-dir", str(tmp_path), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    order = [line.split()[0] for line in proc.stdout.splitlines() if " N=6 dos #" in line]
    assert order == ["checkout", "baseline", "baseline", "checkout"]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(record["rows"]) == ["dos"] and record["repeat"] == 2
    for checkout in record["checkouts"]:
        assert [(run["row"], run["pair"]) for run in checkout["runs"]] == [("dos", 0), ("dos", 1)]
    (summary,) = record["summary"]
    assert summary["row"] == "dos" and summary["n_sites"] == 6 and summary["pairs"] == 2
    for side in ("checkout", "baseline"):
        for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
            spread = summary[side][metric]
            assert spread["median"] > 0 and spread["iqr"] >= 0
    assert all(0 <= summary["checkout_lower"][m] <= 2 for m in ("wall_s", "cpu_s", "peak_rss_mb"))
