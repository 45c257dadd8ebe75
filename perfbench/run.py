"""Benchmark of the quenchlab pipeline, end to end and per layer.

    python3 perfbench/run.py --workload relax --seed 1 --seconds 20 --trace 0

Run from the root of a quenchlab checkout. Each workload is a fixed list of
`quenchlab run` configs; every run is a fresh `python -m quenchlab.cli`
process on the checkout's `src/`, with OpenBLAS pinned to the number of
usable cores, and its outputs are checked (see checks.py) after it exits.

--trace 0 measures `setup_s` (median over SETUP_REPEATS rounds of
`quenchlab validate` on the workload's configs), then repeats the workload's
runs while another repeat fits in --seconds (at least once) and reports
medians of wall and CPU time and the largest peak RSS of any run.

--trace 1 runs the workload once untraced and once under spans.py, which
wraps every layer function in-process, and reports per-layer self times,
call counts, computed counts and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A line before it records the environment; the full record, with
every sample, is also written to .perfbench_out/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from checks import check_run
from spans import COUNT_NAMES, LAYER_FUNCTIONS

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REQUIRED = ("src/quenchlab/cli.py",)


@dataclass(frozen=True)
class Config:
    """One `quenchlab run` of a workload: its config and --threads."""

    name: str
    threads: int
    body: dict


# At these sizes one repeat takes 2-5 s, so a run reports the median of
# several repeats. One site more (10-20 s, one repeat per run) spread by
# 10-16% between runs on a shared 2-core machine.
NEEL_GRID = {"kind": "linear", "t_max": 3.0, "points": 240}

# Each workload loads different layers (reasons also in BENCHMARK.json).
WORKLOADS: dict[str, tuple[Config, ...]] = {
    # observables and expectation series: typical, slow and local observables
    "relax": (
        Config("relax", 1, {
            "kind": "relax",
            "model": {"n_sites": 10},
            "initial_state": "neel",
            "observables": {
                "typical_count": 2,
                "slow": True,
                "local": [{"site": 5, "axis": "z"}, {"site": 5, "axis": "x"}],
            },
        }),
    ),
    # evolve_spectral and partial_trace; the only user of the worker pool
    "entanglement": (
        Config("entropy_scan", 2, {
            "kind": "entropy_scan",
            "model": {"n_sites": 10},
            "initial_state": "neel",
            "time_grid": NEEL_GRID,
        }),
        Config("light_cone", 1, {
            "kind": "light_cone",
            "model": {"n_sites": 10},
            "initial_state": "neel",
            "time_grid": NEEL_GRID,
            "reference_site": 0,
        }),
    ),
    # Haar scrambling, the complex eigh and the GOE partner
    "random_matrix": (
        Config("scrambled_scan", 1, {
            "kind": "entropy_scan",
            "model": {"n_sites": 10, "variant": "scrambled"},
            "initial_state": "neel",
        }),
        Config("equivalence", 1, {
            "kind": "equivalence",
            "model": {"n_sites": 10},
            "initial_state": "neel",
            "observables": {"typical_count": 1},
        }),
    ),
    # the real-symmetric eigh floor at the largest size; little else runs
    "dos_floor": (
        Config("dos", 1, {
            "kind": "dos",
            "model": {"n_sites": 11},
            "initial_state": "neel",
        }),
    ),
}

LAYER_NAMES = tuple(f"{layer}.{fn}" for layer, fn, _ in LAYER_FUNCTIONS)


@dataclass
class Child:
    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.problems


def run_child(argv: list[str], env: dict, log: Path) -> Child:
    """Run one process to completion; time it and read its own rusage."""
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(argv, wall_s, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


class Bench:
    """One benchmark invocation: its work directory, configs and children."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / OUT_DIR / "work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        (root / OUT_DIR / "spans").mkdir(exist_ok=True)
        self.configs = []
        for cfg in WORKLOADS[workload]:
            path = self.work / f"{cfg.name}.yaml"
            path.write_text(yaml.safe_dump(cfg.body, sort_keys=True))
            self.configs.append((cfg, path))
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["OPENBLAS_NUM_THREADS"] = str(self.nproc)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.children: list[Child] = []

    def _run(self, args: list[str], tag: str, check_dir: Path | None = None) -> Child:
        log = self.work / f"{tag}.log"
        child = run_child([sys.executable, *args], self.env, log)
        if child.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            child.problems = [f"{tag}: exit code {child.returncode}: {' '.join(tail)}"]
        elif check_dir is not None:
            child.problems = [f"{tag}: {problem}" for problem in check_run(check_dir)]
        self.children.append(child)
        return child

    def validate_round(self, tag: str) -> float:
        walls = [
            self._run(["-m", "quenchlab.cli", "validate", str(path)], f"{tag}-{cfg.name}").wall_s
            for cfg, path in self.configs
        ]
        return sum(walls)

    def repeat(self, tag: str, traced: bool = False) -> list[Child]:
        """Every config of the workload once, each in a fresh process, checked."""
        children = []
        for cfg, path in self.configs:
            out = self.work / f"{tag}-{cfg.name}"
            cli = ["run", str(path), "--seed", str(self.seed), "--out-dir", str(out),
                   "--threads", str(cfg.threads)]
            if traced:
                args = [str(HERE / "spans.py"), "--out", str(self.spans_path(cfg)), "--", *cli]
            else:
                args = ["-m", "quenchlab.cli", *cli]
            children.append(self._run(args, f"{tag}-{cfg.name}", check_dir=out))
            shutil.rmtree(out, ignore_errors=True)
        return children

    def spans_path(self, cfg: Config) -> Path:
        return self.root / OUT_DIR / "spans" / f"{self.workload}-seed{self.seed}-{cfg.name}.json"

    def environment(self) -> dict:
        probe = (
            "import json, platform, numpy, scipy\n"
            "blas = numpy.__config__.CONFIG['Build Dependencies']['blas']\n"
            "print(json.dumps({'python': platform.python_version(),"
            " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
            " 'blas': blas.get('name'), 'blas_version': blas.get('version')}))\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=self.env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root, check=True,
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None  # a checkout exported without .git
        digest = hashlib.sha256()
        for path in sorted((self.root / "src" / "quenchlab").glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return {
            "git_commit": commit,
            "source_sha256": digest.hexdigest(),
            **json.loads(out),
            "nproc": self.nproc,
            "child_thread_vars": {k: self.env.get(k) for k in THREAD_VARS},
        }

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def timed(bench: Bench, seconds: float) -> tuple[dict, dict]:
    # the first round also fills the bytecode and page caches; the median
    # keeps that one-off cost out of setup_s
    setup = [bench.validate_round(f"setup{k}") for k in range(SETUP_REPEATS)]
    repeats = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        repeats.append(bench.repeat(f"r{len(repeats)}"))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    walls = [sum(c.wall_s for c in rep) for rep in repeats]
    cpus = [sum(c.cpu_s for c in rep) for rep in repeats]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (max(c.rss_mb for rep in repeats for c in rep), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    samples = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus}
    return metrics, samples


def layered(bench: Bench) -> tuple[dict, dict]:
    bench.validate_round("warm")
    untraced = bench.repeat("untraced")
    for cfg, _ in bench.configs:
        bench.spans_path(cfg).unlink(missing_ok=True)
    traced_children = bench.repeat("traced", traced=True)
    paths = [bench.spans_path(cfg) for cfg, _ in bench.configs]
    records = [json.loads(p.read_text()) for p in paths if p.is_file()]

    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_NAMES:
        funcs = [r["functions"].get(name, {"calls": 0, "self_s": 0.0}) for r in records]
        metrics[f"{name}.self_s"] = (sum(f["self_s"] for f in funcs), "s")
        metrics[f"{name}.calls"] = (sum(f["calls"] for f in funcs), "count")
    for name in COUNT_NAMES:
        unit = "B" if name.endswith("bytes") else "count"
        metrics[name] = (sum(r["counts"].get(name, 0) for r in records), unit)
    wall = sum(r["wall_s"] for r in records)
    eigh = metrics["spectral.diagonalize.self_s"][0]
    untraced_wall = sum(c.wall_s for c in untraced)
    # without a dense eigh there is no floor: the ratio is unbounded, reported
    # as the largest float so the output stays valid JSON
    metrics["layers.other_over_eigh"] = (
        (wall - eigh) / eigh if eigh else sys.float_info.max, "ratio")
    metrics["trace.overhead_frac"] = (
        sum(c.wall_s for c in traced_children) / untraced_wall - 1.0, "ratio")
    metrics["trace.span_coverage"] = (
        sum(r["covered_s"] for r in records) / wall if wall else 0.0, "ratio")
    samples = {
        "untraced_wall_s": [c.wall_s for c in untraced],
        "traced_wall_s": [c.wall_s for c in traced_children],
        "absent": sorted({n for r in records for n in r["absent"]}),
    }
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="quenchlab pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from a quenchlab checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    try:
        env = bench.environment()
        print("environment: " + json.dumps(env, sort_keys=True))
        if args.trace:
            metrics, samples = layered(bench)
        else:
            metrics, samples = timed(bench, args.seconds)
    finally:
        bench.close()

    children = bench.children
    failed = sum(not c.ok for c in children)
    for c in children:
        for problem in c.problems:
            print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed / len(children):.6g} "
          f"({failed} of {len(children)} processes)")

    result = {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record_dir = root / OUT_DIR / "results"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "failed_frac": failed / len(children), "samples": samples,
        "children": [asdict(c) for c in children], **result,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
