#!/usr/bin/env python3
"""Benchmark for reprank: paper-scale ranking, a cr sweep row and CLI ingest.

    python3 bench/run.py --workload rank-paper --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Run from the repository root. `--trace 0` is the timed pass and reports the
end-to-end metrics; `--trace 1` is the separate traced pass and reports the
per-layer metrics. Each line of output names a metric, its value and its
unit; the last line is one JSON object with `correct`, `attempted`,
`failed` and the metrics listed in BENCHMARK.json. See bench/README.md.
"""

import os

# pinned before numpy loads; sweep workers inherit them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse             # noqa: E402
import json                 # noqa: E402
import math                 # noqa: E402
import platform             # noqa: E402
import resource             # noqa: E402
import shutil               # noqa: E402
import subprocess           # noqa: E402
import sys                  # noqa: E402
from pathlib import Path    # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("rank-paper", "sweep-row-paper", "cli-ml1m")
# the workloads BENCHMARK.json lists. cli-ml1m runs on request and in
# `--workload all` but is not listed: its pure-Python ingest of a
# 1M-line file slows by up to 25% when the host's other tenants contend
# for memory, which no median over one run removes (see README.md)
GATED = ("rank-paper", "sweep-row-paper")

# the metrics of the final JSON line, as listed in BENCHMARK.json
END_TO_END = ("setup_s", "unit_ms", "peak_rss_mb")
PER_LAYER = (
    "synth.topology_s", "synth.network_s", "synth.calls",
    "graph.build_s", "projection.project_ms", "projection.calls",
    "ranking.ir.iter_ms", "ranking.cr.iter_ms", "ranking.rr.iter_ms",
    "ranking.ir.iterations", "ranking.cr.iterations",
    "ranking.rr.iterations", "ranking.rr.converged_frac",
    "ranking.rr.corner_iterations", "metrics.ranking_score_ms",
    "sweep.self_s", "sweep.speedup", "cli.self_s", "cli.bytes_written",
    "trace.overhead_frac",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mib(workers: int) -> float:
    """Peak resident memory of this process plus `workers` sweep workers.

    The kernel keeps the peak of this process and the largest peak among
    its ended children; workers run at the same time, so each is charged
    that largest peak. Pages a forked worker shares with this process
    count in both.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) * 1024 / 2**20


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown: git failed"
    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    l3 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        if _read(index / "level") == "3":
            l3 = _read(index / "size")
    return {"git_sha": sha, "nproc": nproc(), "cpu_model": cpu,
            "l3_cache": l3, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "seed": seed,
            "thread_env": {v: os.environ[v] for v in THREAD_VARS}}


def _number(value):
    """JSON has no NaN: an undefined measurement is written as null."""
    return value if math.isfinite(value) else None


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import reprank
    if Path(reprank.__file__).resolve().parent != SRC / "reprank":
        print(f"error: imported reprank from {reprank.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                      nproc())
        if args.trace:
            measured = workload.run_traced(args.seconds)
        else:
            measured = workload.run_timed(args.seconds)
            measured["peak_rss_mb"] = (peak_rss_mib(workload.workers), "MiB")
            measured["failed_frac"] = (
                workload.failed / max(workload.attempted, 1), "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass        # another run is still using it

    report = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds,
              "environment": environment(args.seed),
              "attempted": workload.attempted, "failed": workload.failed,
              "metrics": {k: {"value": _number(v), "unit": u}
                          for k, (v, u) in measured.items()},
              "notes": workload.extra,
              # name, phase, parent index, start and end in seconds
              "spans": [(s.name, s.phase, s.parent, s.start, s.end)
                        for s in workload.spans]}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={workload.attempted} failed={workload.failed}")
    for name, (value, unit) in measured.items():
        note = workload.extra.get(name)
        print(f"{name:<30} {value!r} {unit}" + (f"  ({note})" if note else ""))
    for name, note in workload.extra.items():
        if name not in measured:
            print(f"# {name}: {note}")
    print("report: " + json.dumps(report, default=str))

    wanted = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": _number(measured[name][0]),
                   "unit": measured[name][1]}
            for name in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            if not line.startswith("report: "):
                print(line)
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit code {proc.returncode}")
            status = 1
        elif not json.loads(lines[-1])["correct"]:
            status = 1
        print()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reprank" / "__init__.py").is_file():
        print(f"error: {SRC / 'reprank'} not found; run from a reprank "
              "checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
