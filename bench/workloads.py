"""The benchmark's workloads, each a closed loop with one caller.

rank-paper       identity project+rank+score calls for mean, ir, cr and rr
                 on one paper-scale case-0 network, round robin, then one
                 rr call at the (p1, p2) = (1, 1) corner.
sweep-row-paper  `reprank sweep` over one cr row (p1 = 0.5, 21 p2 cells),
                 paper scale, two realizations, one worker per core.
cli-ml1m         `reprank ingest` of a MovieLens-1M-shaped file, then
                 `reprank rank --algorithm cr` on the normalized CSV.

A workload builds its inputs in `setup`, then repeats its job until the
measuring time is over. The timed pass runs untraced; the traced pass
alternates untraced and traced jobs, so the difference between the two is
the tracing overhead. Every operation is checked (see checks.py) and a
failed check or an exception counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from spans import Tracer, patched, self_times

from reprank import cli, metrics, projection, ranking, sweep, synth
from reprank.graph import RatingGraph

clock = time.perf_counter

SETUP_REPEATS = 3
IDENTITY = projection.ProjectionParams(0.5, 0.5)
CORNER = projection.ProjectionParams(1.0, 1.0)
RANKERS = ("mean", "ir", "cr", "rr")
SWEEP_REALIZATIONS = 2
SWEEP_P2 = sweep.grid_values(sweep.DEFAULT_GRID_STEP)
ML1M_USERS, ML1M_ITEMS, ML1M_LINKS = 6040, 3706, 1_000_209


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """(value, percentile, samples) of the highest percentile with at least
    ten samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def _describe_rank(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"algorithm": config.algorithm,
            "iterations": result.iterations_used,
            "converged": result.converged}


def _describe_ingest(args, kwargs, result):
    return {"links": result.graph.num_links}


# Public names the driving modules look up at call time. reprank.cli and
# reprank.sweep bind them at import, so each binding is patched; the
# defining modules are patched for the benchmark's own calls.
_DRIVEN = {
    "ingest_ratings": ("graph.ingest_ratings", _describe_ingest),
    "write_ratings_csv": ("graph.write_ratings_csv", None),
    "generate_network": ("synth.generate_network", None),
    "project_graph": ("projection.project_graph", None),
    "rank": ("ranking.rank", _describe_rank),
    "ranking_score": ("metrics.ranking_score", None),
    "top_fraction_benchmark": ("metrics.top_fraction_benchmark", None),
}


def trace_targets():
    targets = []
    for module in (cli, sweep, synth, projection, ranking, metrics):
        for attr, (name, describe) in _DRIVEN.items():
            if attr in vars(module):
                targets.append((module, attr, name, describe))
    return targets + [
        (cli, "main", "cli.main", None),
        (cli, "run_sweep", "sweep.run_sweep", None),
        (synth, "generate_topology", "synth.generate_topology", None),
        (RatingGraph, "build", "graph.build", None),
    ]


class Workload:
    name = ""
    workers = 0         # worker processes running at once

    def __init__(self, seed: int, workdir: Path, nproc: int):
        self.seed = seed
        self.workdir = workdir
        self.nproc = nproc
        self.attempted = 0
        self.failed = 0
        self.extra: dict = {}
        self.spans = []

    # -- operations ---------------------------------------------------

    def attempt(self, label: str, call):
        """Run one operation. `call` returns (measurement, problems); the
        measurement is returned, or None if the operation raised."""
        self.attempted += 1
        measurement = None
        try:
            measurement, problems = call()
        except Exception as exc:    # a failing operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"FAILED {self.name} {label}: " + "; ".join(problems),
                  file=sys.stderr)
        return measurement

    # -- to be provided -----------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def job(self) -> float:
        """One unit job; returns its duration in seconds."""
        raise NotImplementedError

    def timed_metrics(self, job_times) -> dict:
        raise NotImplementedError

    def trace_pair(self, tracer, targets):
        """One untraced baseline and one traced job: (untraced s, traced s)."""
        untraced = self.job()
        with patched(tracer, targets):
            tracer.phase = "job"
            traced = self.job()
        return untraced, traced

    def after_jobs(self) -> dict:
        """Work done once after the jobs; returns its metrics."""
        return {}

    def trace_extra(self, untraced, traced) -> dict:
        """Layer metrics that only some workloads measure; 0 elsewhere."""
        return {"sweep.speedup": (0.0, "ratio"),
                "cli.bytes_written": (0, "bytes")}

    # -- passes -------------------------------------------------------

    def run_timed(self, seconds: float) -> dict:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            self.setup()
            setup_times.append(clock() - t0)
        job_times = []
        start = clock()
        while not job_times or clock() - start < seconds:
            job_times.append(self.job())
        out = self.timed_metrics(job_times)
        out.update(self.after_jobs())
        out["setup_s"] = (median(setup_times), "s")
        out["wall_s"] = (median(job_times), "s")
        return out

    def run_traced(self, seconds: float) -> dict:
        tracer = Tracer()
        targets = trace_targets()
        with patched(tracer, targets):
            tracer.phase = "setup"
            self.setup()
        untraced, traced = [], []
        start = clock()
        while not traced or clock() - start < seconds:
            u, t = self.trace_pair(tracer, targets)
            untraced.append(u)
            traced.append(t)
        with patched(tracer, targets):
            tracer.phase = "after"
            self.after_jobs()
        self.spans = tracer.spans
        out = layer_metrics(tracer.spans, len(traced))
        out["trace.overhead_frac"] = (median(traced) / median(untraced) - 1.0,
                                      "ratio")
        out.update(self.trace_extra(untraced, traced))
        return out


def layer_metrics(spans, traced_jobs: int) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    Times are means per call over every traced call. Counts are per traced
    sequence: the traced setup, one traced job and the work done once
    after the jobs (the rank-paper corner call).
    """
    selfs = self_times(spans)

    def named(name, **match):
        return [s for s in spans if s.name == name and all(
            s.attrs.get(k) == v for k, v in match.items())]

    def mean_time(name, scale=1.0):
        found = named(name)
        return (scale * sum(s.duration for s in found) / len(found)
                if found else 0.0)

    def count(found, attr=None):
        once = jobs = 0
        for s in found:
            n = s.attrs[attr] if attr else 1
            if s.phase == "job":
                jobs += n
            else:
                once += n
        return once + jobs / traced_jobs

    def mean_self(name):
        found = named(name)
        return (sum(selfs[s.id] for s in found) / len(found)
                if found else 0.0)

    ingests = named("graph.ingest_ratings")
    ingest_time = sum(s.duration for s in ingests)
    out = {
        "synth.topology_s": (mean_time("synth.generate_topology"), "s"),
        "synth.network_s": (mean_time("synth.generate_network"), "s"),
        "synth.calls": (count(named("synth.generate_network")), "count"),
        "graph.ingest_s": (mean_time("graph.ingest_ratings"), "s"),
        "graph.ingest_lines_per_s": (
            sum(s.attrs["links"] for s in ingests) / ingest_time
            if ingest_time else 0.0, "1/s"),
        "graph.write_csv_s": (mean_time("graph.write_ratings_csv"), "s"),
        "graph.build_s": (mean_time("graph.build"), "s"),
        "projection.project_ms": (
            mean_time("projection.project_graph", 1e3), "ms"),
        "projection.calls": (count(named("projection.project_graph")),
                             "count"),
        "metrics.ranking_score_ms": (
            mean_time("metrics.ranking_score", 1e3), "ms"),
        "sweep.self_s": (mean_self("sweep.run_sweep"), "s"),
        "cli.self_s": (mean_self("cli.main"), "s"),
    }
    for alg in ("ir", "cr", "rr"):
        found = named("ranking.rank", algorithm=alg)
        iters = sum(s.attrs["iterations"] for s in found)
        out[f"ranking.{alg}.iter_ms"] = (
            1e3 * sum(s.duration for s in found) / iters if iters else 0.0,
            "ms")
        out[f"ranking.{alg}.iterations"] = (count(found, "iterations"),
                                            "count")
    rr = named("ranking.rank", algorithm="rr")
    out["ranking.rr.converged_frac"] = (
        count(rr, "converged") / count(rr) if rr else 0.0, "ratio")
    corner = [s for s in rr if s.phase == "after"]
    out["ranking.rr.corner_iterations"] = (
        sum(s.attrs["iterations"] for s in corner), "count")
    return out


# ---------------------------------------------------------------- rank-paper

class RankPaper(Workload):
    """Ranking dominates; synth runs only in setup. The corner call carries
    rr's non-converging 2-cycle at the seeds where it appears."""

    name = "rank-paper"

    def setup(self):
        self.graph, truth = synth.generate_network(
            synth.SynthSpec(seed=self.seed))
        self.benchmark = metrics.top_fraction_benchmark(
            truth, sweep.DEFAULT_BENCHMARK_FRACTION)
        self.users = checks.sample_users(self.graph.num_users, self.seed)
        self.calls = {alg: [] for alg in RANKERS}

    def call(self, algorithm, params):
        """One checked project+rank+score call; returns (project s, rank s,
        score s, iterations, converged)."""
        config = ranking.RankingConfig(algorithm=algorithm)

        def run():
            t0 = clock()
            projected = projection.project_graph(self.graph, params)
            t1 = clock()
            result = ranking.rank(projected, config)
            t2 = clock()
            rs = metrics.ranking_score(result.qualities, self.benchmark).value
            t3 = clock()
            record = (t1 - t0, t2 - t1, t3 - t2, result.iterations_used,
                      result.converged)
            return record, checks.check_rank(projected, result, config,
                                             self.users, rs)

        return self.attempt(f"{algorithm} at ({params.p1:g}, {params.p2:g})",
                            run)

    def job(self):
        total = 0.0
        for alg in RANKERS:
            record = self.call(alg, IDENTITY)
            if record is not None:
                self.calls[alg].append(record)
                total += sum(record[:3])
        return total

    def after_jobs(self):
        record = self.call("rr", CORNER)
        if record is None:
            return {"rr_corner_s": (float("nan"), "s")}
        self.extra["rr_corner"] = {"iterations": record[3],
                                   "converged": record[4]}
        return {"rr_corner_s": (record[0] + record[1], "s")}

    def timed_metrics(self, job_times):
        out = {}
        unit = 0.0
        for alg in RANKERS:
            recs = self.calls[alg]
            # per-call costs plus one iteration: iteration counts depend on
            # the seed (rr can 2-cycle), the cost of an iteration does not
            unit += median([p + s + r / it for p, r, s, it, _ in recs])
            if alg == "mean":
                continue
            lat = [1e3 * (p + r) for p, r, _, _, _ in recs]
            out[f"rank_{alg}_ms_p50"] = (median(lat), "ms")
            t = tail(lat)
            out[f"rank_{alg}_ms_tail"] = (t[0] if t else float("nan"), "ms")
            self.extra[f"rank_{alg}_ms_tail"] = (
                f"p{t[1]:.0f} of {t[2]} samples" if t
                else f"undefined: {len(lat)} samples, needs 11")
            self.extra[f"rank_{alg}_iterations"] = sorted(
                {it for _, _, _, it, _ in recs})
        out["unit_ms"] = (1e3 * unit, "ms")
        return out


# ----------------------------------------------------------- sweep-row-paper

class SweepRowPaper(Workload):
    """The paper's main experiment shape: every realization regenerates its
    network and its 21 cells share that topology."""

    name = "sweep-row-paper"

    @property
    def workers(self):
        return min(self.nproc, SWEEP_REALIZATIONS)

    def setup(self):
        """The identity cell computed directly, one realization at a time,
        with the sweep's paired seeds; the sweep output must match it."""
        spec = synth.SynthSpec(seed=self.seed)
        config = ranking.RankingConfig(algorithm="cr")
        values = []
        for j in range(SWEEP_REALIZATIONS):
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, j]))
            graph, truth = synth.generate_network(spec, rng)
            benchmark = metrics.top_fraction_benchmark(
                truth, sweep.DEFAULT_BENCHMARK_FRACTION)
            result = ranking.rank(projection.project_graph(graph, IDENTITY),
                                  config)
            values.append(metrics.ranking_score(result.qualities,
                                                benchmark).value)
        self.identity_mean = float(np.mean(values))
        self.reference = None
        self.bytes_written = 0
        self.parallel = []

    def sweep(self, threads: int) -> float:
        out = self.workdir / f"sweep-t{threads}.csv"
        argv = ["sweep", "--synth-case", "0", "--algorithm", "cr",
                "--fix-p1", "0.5", "--threads", str(threads),
                "--realizations", str(SWEEP_REALIZATIONS),
                "--seed", str(self.seed), "--outdir", str(self.workdir),
                "--out", out.name]

        def run():
            t0 = clock()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            elapsed = clock() - t0
            if code != 0:
                return elapsed, [f"exit code {code}"]
            text = out.read_text(encoding="utf-8")
            self.bytes_written = out.stat().st_size
            problems = checks.check_sweep_row(text, SWEEP_P2,
                                              SWEEP_REALIZATIONS,
                                              self.identity_mean)
            body = checks.below_config(text)
            if self.reference is None:
                self.reference = body
            elif body != self.reference:
                problems.append(f"--threads {threads} output differs from "
                                "the first sweep of this run")
            return elapsed, problems

        elapsed = self.attempt(f"sweep --threads {threads}", run)
        return float("nan") if elapsed is None else elapsed

    def job(self):
        return self.sweep(self.nproc)

    def timed_metrics(self, job_times):
        cells = SWEEP_REALIZATIONS * len(SWEEP_P2)
        wall = median(job_times)
        return {"cells_per_s": (cells / wall, "cells/s"),
                "unit_ms": (1e3 * wall / cells, "ms")}

    def trace_pair(self, tracer, targets):
        # all spans stay in this process at --threads 1; the untraced
        # serial sweep is the overhead baseline and the speedup numerator
        self.parallel.append(self.sweep(self.nproc))
        untraced = self.sweep(1)
        with patched(tracer, targets):
            tracer.phase = "job"
            traced = self.sweep(1)
        return untraced, traced

    def trace_extra(self, untraced, traced):
        return {"sweep.speedup": (median(untraced) / median(self.parallel),
                                  "ratio"),
                "cli.bytes_written": (self.bytes_written, "bytes")}


# ------------------------------------------------------------------ cli-ml1m

def write_surrogate(path: Path, seed: int) -> None:
    """MovieLens-1M shape: 6040 users x 3706 items, 1,000,209 `::` lines,
    each user rating a contiguous window of about 166 items. The seed
    relabels user and item ids."""
    rng = np.random.default_rng(seed)
    user_ids = (rng.permutation(ML1M_USERS) + 1).tolist()
    item_ids = (rng.permutation(ML1M_ITEMS) + 1).tolist()
    base, extra = divmod(ML1M_LINKS, ML1M_USERS)
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(ML1M_USERS):
            uid = user_ids[u]
            start = (u * 37) % ML1M_ITEMS
            for step in range(base + 1 if u < extra else base):
                i = (start + step) % ML1M_ITEMS
                fh.write(f"{uid}::{item_ids[i]}::{(u + i) % 5 + 1}::0\n")


class CliMl1m(Workload):
    """Graph I/O does most of the work, with writes beside reads; cr runs
    on a uniform-degree sparsity pattern."""

    name = "cli-ml1m"
    outputs = ("ml.csv", "qualities.csv", "reputations.csv")

    def setup(self):
        self.ratings = self.workdir / "ratings.dat"
        write_surrogate(self.ratings, self.seed)
        self.digests = None
        self.commands = []
        self.bytes_written = 0

    def job(self):
        out = self.workdir / "out"
        ingest = ["ingest", "--ratings", str(self.ratings),
                  "--format", "movielens", "--out", "ml.csv",
                  "--outdir", str(out)]
        rank = ["rank", "--ratings", str(out / "ml.csv"), "--algorithm", "cr",
                "--outdir", str(out), "--out-items", "qualities.csv",
                "--out-users", "reputations.csv"]

        def run():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                t0 = clock()
                code = cli.main(ingest)
                t1 = clock()
                code = code or cli.main(rank)
                t2 = clock()
            times = (t1 - t0, t2 - t1)
            if code != 0:
                return times, [f"exit code {code}"]
            problems = []
            shape = (f"users={ML1M_USERS} items={ML1M_ITEMS} "
                     f"links={ML1M_LINKS} ")
            if shape not in stdout.getvalue():
                problems.append("ingest did not report the ML-1M shape")
            texts = [(out / name).read_bytes() for name in self.outputs]
            problems += checks.check_rank_tables(
                texts[1].decode(), texts[2].decode(), ML1M_ITEMS, ML1M_USERS)
            digests = [hashlib.sha256(t).hexdigest() for t in texts]
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append("outputs differ from the first job's")
            self.bytes_written = sum(len(t) for t in texts)
            return times, problems

        times = self.attempt("ingest + rank", run) or (float("nan"),) * 2
        self.commands.append(times)
        return sum(times)

    def timed_metrics(self, job_times):
        return {
            "ingest_cmd_s": (median([t[0] for t in self.commands]), "s"),
            "rank_cmd_s": (median([t[1] for t in self.commands]), "s"),
            "unit_ms": (1e3 * median(job_times), "ms"),
        }

    def trace_extra(self, untraced, traced):
        return {**super().trace_extra(untraced, traced),
                "cli.bytes_written": (self.bytes_written, "bytes")}


WORKLOADS = {w.name: w for w in (RankPaper, SweepRowPaper, CliMl1m)}
