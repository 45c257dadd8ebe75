"""The shipped configs validate and the example scripts run end to end."""
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

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
