"""Wall time, CPU time and peak RSS of the roadmap's table of CLI runs, as BENCH_<label>.json.

    python scripts/bench_layers.py CHECKOUT --sizes 12 13 --label 0.11.0 --baseline 007bcfc \
        --rows dos equivalence --repeat 5

Each row of the table (ROADMAP.md, "Where the time goes") is one fresh
`python -m quenchlab.cli run <config> --seed 1` process on CHECKOUT's src/,
with the default open chain and the Neel state unless the row names another;
--rows picks rows (all by default). Each process is timed around its start
and exit, and its CPU time and peak RSS come from os.wait4. With --baseline
REV, the script exports REV of CHECKOUT's repository with `git archive`
into a temporary directory and runs each row on it too, as pairs: --repeat
K runs K pairs per row and size, and the side that goes first alternates
from pair to pair. One untimed warm-up process (the first row on CHECKOUT)
runs before the first timed one, so that no side pays for a cold start.
The BLAS thread count, the numpy version and the OpenBLAS library are read
from each checkout's first run manifest.

Per row, size and side, the summary gives the median and the interquartile
range of wall, CPU and peak RSS, and with a baseline the number of pairs in
which the checkout read lower. The file is report-only: nothing is gated.
It holds no stage times yet: they wait for the run's own stage timer and
run_stats.yaml (ROADMAP item 1 (a)).
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

PAULIS = [{"site": 5, "axis": "z"}, {"site": 5, "axis": "x"}]

# (row, config without its size); n_sites is filled in per size
ROWS = (
    ("dos", {"kind": "dos"}),
    ("entropy_scan", {"kind": "entropy_scan"}),
    ("light_cone", {"kind": "light_cone"}),
    ("relax", {"kind": "relax", "observables": {"typical_count": 2, "slow": True, "local": PAULIS}}),
    ("relax_without_typical", {"kind": "relax", "observables": {"typical_count": 0, "slow": True, "local": PAULIS}}),
    ("equivalence", {"kind": "equivalence", "observables": {"typical_count": 1}}),
    ("entropy_scan_scrambled", {"kind": "entropy_scan", "model": {"variant": "scrambled"}}),
    ("dos_scrambled", {"kind": "dos", "model": {"variant": "scrambled"}}),
    ("light_cone_goe", {"kind": "light_cone", "model": {"variant": "goe"}}),
    ("relax_goe", {"kind": "relax", "model": {"variant": "goe"}, "observables": {"typical_count": 1, "slow": True}}),
    ("relax_scrambled_paulis", {"kind": "relax", "model": {"variant": "scrambled"}, "observables": {"typical_count": 0, "local": PAULIS}}),
    ("dos_disordered", {"kind": "dos", "model": {"disorder_width": 0.5}}),
)
STAGES = "not recorded: they wait for the run's stage timer and run_stats.yaml (ROADMAP item 1 (a))"


def config(row: dict, n_sites: int, out_dir: Path) -> dict:
    body = {**row, "model": {**row.get("model", {}), "n_sites": n_sites}, "initial_state": "neel"}
    return {**body, "out_dir": str(out_dir)}


def run_once(src: Path, cfg: dict, work: Path) -> tuple[dict, dict]:
    """One fresh CLI process; its measurements, and its manifest (empty if it failed)."""
    path = work / "config.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "quenchlab.cli", "run", str(path), "--seed", "1"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    manifest_path = Path(cfg["out_dir"]) / "manifest.yaml"
    manifest = yaml.safe_load(manifest_path.read_text()) if code == 0 else {}
    measured = {
        "wall_s": round(wall, 4),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "returncode": code,
    }
    return measured, manifest


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def describe(repo: Path, rev: str | None) -> dict:
    """The commit a checkout holds, or rev's, where git knows it."""
    try:
        if rev is not None:
            return {"commit": git(repo, "rev-parse", rev), "uncommitted_changes": False}
        dirty = bool(git(repo, "status", "--porcelain", "--untracked-files=no"))
        return {"commit": git(repo, "rev-parse", "HEAD"), "uncommitted_changes": dirty}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "uncommitted_changes": None}


def export(repo: Path, rev: str, into: Path) -> Path:
    """rev's files, from `git archive`, unpacked into a new directory of into."""
    dest = into / "baseline"
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(repo), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return dest


METRICS = ("wall_s", "cpu_s", "peak_rss_mb")


def spread(values: list[float]) -> dict:
    """The median and the interquartile range of values."""
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                  else values * 3)
    return {"median": round(q2, 4), "iqr": round(q3 - q1, 4)}


def summarize(checkouts: list[dict], picked: list[str], sizes: list[int]) -> list[dict]:
    """Per row and size: each side's spread of every metric, and the pairs the checkout won."""
    out = []
    for n in sizes:
        for name in picked:
            entry = {"row": name, "n_sites": n}
            runs = {c["role"]: [r for r in c["runs"] if r["row"] == name and r["n_sites"] == n]
                    for c in checkouts}
            for role, rs in runs.items():
                entry[role] = {m: spread([r[m] for r in rs]) for m in METRICS}
            if "baseline" in runs:
                pairs = list(zip(runs["checkout"], runs["baseline"]))
                entry["pairs"] = len(pairs)
                entry["checkout_lower"] = {m: sum(c[m] < b[m] for c, b in pairs) for m in METRICS}
            out.append(entry)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path, help="root of a quenchlab checkout")
    ap.add_argument("--sizes", type=int, nargs="+", required=True, help="chain sizes N")
    ap.add_argument("--label", default="local", help="the file is BENCH_<label>.json")
    ap.add_argument("--baseline", help="a git revision of the checkout, measured beside it")
    ap.add_argument("--rows", nargs="+", choices=[name for name, _ in ROWS],
                    help="the rows to run (default: every row)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per row and size on each side (pairs, with --baseline)")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    picked = [(name, row) for name, row in ROWS if args.rows is None or name in args.rows]

    root = args.checkout.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        checkouts = [{"role": "checkout", **describe(root, None), "src": root / "src"}]
        if args.baseline:
            base = export(root, args.baseline, tmp)
            checkouts.append({"role": "baseline", **describe(root, args.baseline), "src": base / "src"})
        for entry in checkouts:
            entry["runs"] = []
        out = tmp / "out"
        run_once(checkouts[0]["src"], config(picked[0][1], args.sizes[0], out), tmp)  # warm-up
        shutil.rmtree(out, ignore_errors=True)
        failed = 0
        for n in args.sizes:
            for name, row in picked:
                for pair in range(args.repeat):
                    for entry in checkouts[:: 1 if pair % 2 == 0 else -1]:
                        measured, manifest = run_once(entry["src"], config(row, n, out), tmp)
                        failed += measured["returncode"] != 0
                        entry["runs"].append({"row": name, "n_sites": n, "pair": pair, **measured})
                        for key in ("version", "blas_threads", "numpy_version", "openblas_library"):
                            if key in manifest:
                                entry.setdefault(key, manifest[key])
                        print(f"{entry['role']} N={n} {name} #{pair}: {measured}", flush=True)
                        shutil.rmtree(out, ignore_errors=True)
    for entry in checkouts:
        del entry["src"]
    record = {
        "label": args.label,
        "report_only": True,
        "stage_times": STAGES,
        "command": "python -m quenchlab.cli run <row config> --seed 1, one fresh process per run",
        "repeat": args.repeat,
        "warm_up": "one untimed run of the first row on the checkout, before the first timed run",
        "order": "each pair alternates which side runs first, the checkout first in pair 0",
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "rows": {name: row for name, row in picked},
        "summary": summarize(checkouts, [name for name, _ in picked], args.sizes),
        "checkouts": checkouts,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
