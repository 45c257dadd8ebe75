"""Output checks for one `quenchlab run` directory.

Every check reads only what the run wrote (manifest.yaml and the CSVs it
lists) and compares it against facts that do not depend on BLAS rounding:
file digests, finiteness, the analytic energy moments of a Néel quench of
the open local chain, entropy bounds, and the moment matching of the GOE
partner. `check_run` returns the list of problems; an empty list passes.
"""
from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import yaml

REL_TOL = 1e-9
# Rounding slack for quantities that are exact in exact arithmetic
# (entropy of a product state, entropy bounds).
ABS_TOL = 1e-12


def _rows(path: Path) -> tuple[list[str], list[list[float]]]:
    with path.open(newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        return header, [[float(x) for x in row] for row in reader]


def _close(value, expected: float) -> bool:
    return isinstance(value, float) and math.isclose(
        value, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL
    )


def neel_moments(model: dict) -> tuple[float, float]:
    """Energy mean and width of the Néel state under the open local chain.

    <H> = (N-1)J - g (N mod 2): every bond is antialigned and the
    magnetization is one spin for odd N. Var H = h^2 N: each transverse
    term flips one site into an orthogonal product state.
    """
    n = model["n_sites"]
    return (n - 1) * model["J"] - model["g"] * (n % 2), abs(model["h"]) * math.sqrt(n)


def _check_files(run_dir: Path, manifest: dict) -> list[str]:
    problems = []
    for rec in manifest.get("files") or []:
        path = run_dir / rec["path"]
        try:
            data = path.read_bytes()
        except OSError as exc:
            problems.append(f"{rec['path']}: unreadable ({exc})")
            continue
        if hashlib.sha256(data).hexdigest() != rec["sha256"]:
            problems.append(f"{rec['path']}: sha256 does not match the manifest")
        if path.suffix == ".csv":
            try:
                _, rows = _rows(path)
            except ValueError as exc:
                problems.append(f"{rec['path']}: unparsable value ({exc})")
                continue
            if not rows:
                problems.append(f"{rec['path']}: no data rows")
            if not all(math.isfinite(x) for row in rows for x in row):
                problems.append(f"{rec['path']}: non-finite value")
    if not manifest.get("files"):
        problems.append("manifest lists no files")
    return problems


def _check_energy(ts: dict, model: dict, label: str) -> list[str]:
    mean, width = neel_moments(model)
    problems = []
    if not _close(ts.get("energy_mean"), mean):
        problems.append(f"{label}energy_mean {ts.get('energy_mean')!r} != Néel {mean!r}")
    if not _close(ts.get("energy_width"), width):
        problems.append(f"{label}energy_width {ts.get('energy_width')!r} != Néel {width!r}")
    return problems


def _check_entropy(run_dir: Path, n_sites: int) -> list[str]:
    _, rows = _rows(run_dir / "entropy.csv")
    problems = []
    t0 = min(t for t, _, _ in rows)
    for t, cut, s in rows:
        bound = min(cut, n_sites - cut) * math.log(2)
        if not -ABS_TOL <= s <= bound + ABS_TOL:
            problems.append(f"entropy.csv: S={s!r} at t={t}, cut={cut} outside [0, {bound}]")
        elif t == t0 and abs(s) > ABS_TOL:
            problems.append(f"entropy.csv: S(0)={s!r} at cut={cut}, expected 0")
    return problems


def _check_goe(run_dir: Path, local_ts: dict) -> list[str]:
    header, rows = _rows(run_dir / "dos_goe.csv")
    energies = [row[header.index("energy")] for row in rows]
    mean = math.fsum(energies) / len(energies)
    std = math.sqrt(math.fsum((e - mean) ** 2 for e in energies) / len(energies))
    problems = []
    if not _close(mean, local_ts["energy_mean"]):
        problems.append(f"dos_goe.csv: eigenvalue mean {mean!r} != local {local_ts['energy_mean']!r}")
    if not _close(std, local_ts["energy_width"]):
        problems.append(f"dos_goe.csv: eigenvalue std {std!r} != local {local_ts['energy_width']!r}")
    return problems


def _check_relax(reports: dict) -> list[str]:
    slow = reports.get("slow")
    typical = {k: v for k, v in reports.items() if k.startswith("typical_")}
    if slow is None or not typical:
        return []
    problems = []
    for label, rep in sorted(typical.items()):
        t_typ, t_slow = rep["relaxation_time"], slow["relaxation_time"]
        if t_typ is None:
            problems.append(f"{label}: did not relax")
        elif t_slow is not None and not t_slow > t_typ:
            problems.append(f"slow relaxes at {t_slow!r}, not later than {label} at {t_typ!r}")
    return problems


def check_run(run_dir: Path) -> list[str]:
    """Every problem found in one run directory; an empty list passes."""
    run_dir = Path(run_dir)
    try:
        manifest = yaml.safe_load((run_dir / "manifest.yaml").read_text())
    except (OSError, yaml.YAMLError) as exc:
        return [f"manifest.yaml: unreadable ({exc})"]
    problems = _check_files(run_dir, manifest)
    if problems:
        return problems  # later checks read the files just found faulty
    cfg = manifest["config"]
    model = cfg["model"]
    kind = cfg["kind"]
    neel_chain = (
        cfg["initial_state"] == "neel"
        and model["boundary"] == "open"
        and model["disorder_width"] == 0.0
    )
    ts = manifest["timescales"]
    results = manifest["results"]
    if neel_chain and kind == "equivalence":
        problems += _check_energy(ts["local"], model, "local ")
        problems += _check_goe(run_dir, ts["local"])
    elif neel_chain and model["variant"] == "local":
        problems += _check_energy(ts, model, "")
    if kind == "entropy_scan":
        problems += _check_entropy(run_dir, model["n_sites"])
    if kind == "light_cone":
        v = results.get("velocity")
        if not (isinstance(v, float) and math.isfinite(v) and v > 0):
            problems.append(f"light cone velocity {v!r} is not finite and positive")
    if kind == "relax":
        problems += _check_relax(results["reports"])
    return problems
