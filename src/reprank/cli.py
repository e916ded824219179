"""Command-line entry point.

Subcommands: ingest, synth, rank, eval, sweep, table. Every output file is
written atomically (temp file then rename). All but synth's truth JSON
start with a `# config:` comment echoing the fully resolved flag set,
which suffices to reproduce the file. All randomness flows from --seed;
there are no hidden entropy sources, so identical invocations produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .graph import (FORMATS, GENERIC_CSV, BenchmarkSet, IdMap, _open_text,
                    ingest_ratings, load_benchmark, write_ratings_csv)
from .metrics import (quality_ranks, ranking_score,
                      reputation_error_correlation, top_fraction_benchmark)
from .projection import ProjectionParams
from .ranking import ALGORITHMS, RankingConfig, rank_projections
from .sweep import (DEFAULT_BENCHMARK_FRACTION, DEFAULT_GRID_STEP,
                    DEFAULT_REALIZATIONS, RealSource, SweepGrid, SynthSource,
                    compare_table, find_optimum, grid_values, run_sweep)
from .synth import (CASES, SynthSpec, SynthTruth, generate_network,
                    read_truth, write_truth)

_METRIC_ALIASES = {"rs": "rs", "corr": "correlation"}

# the sweep file's second line, `# tag=... algorithm=... metric=... n=...`;
# a tag is a file stem or `case<n>` and may hold spaces
_SWEEP_META = re.compile(r"# tag=(.*) algorithm=(\S+) metric=(\S+) n=(\d+)")


def _say(args, message):
    if args.verbose:
        print(message, file=sys.stderr)


def _out_path(args, name: str) -> Path:
    p = Path(name)
    return p if p.is_absolute() else Path(args.outdir) / p


def _config_line(args) -> str:
    cfg = {k: v for k, v in vars(args).items()
           if k != "func" and v is not None}
    return "config: " + json.dumps(cfg, sort_keys=True)


def _atomic_write(path: Path, write_body) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    fh = open(tmp, "x", encoding="utf-8")   # umask's mode; mkstemp's is 0600
    try:
        with fh:
            write_body(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_stamped(args, name: str, write_body) -> None:
    """Writes output `name` atomically: the `# config:` line, then the
    body; prints `wrote <path>`."""
    path = _out_path(args, name)

    def write(fh):
        fh.write(f"# {_config_line(args)}\n")
        write_body(fh)

    _atomic_write(path, write)
    print(f"wrote {path}")


def _ranking_config(args) -> RankingConfig:
    return RankingConfig(
        algorithm=args.algorithm,
        beta=args.beta,
        epsilon=args.epsilon,
        theta=args.theta,
        delta=args.delta,
        max_iterations=args.max_iter,
    )


def _synth_spec(args, case: int) -> SynthSpec:
    # --truth and --benchmark name the items of a real ratings file
    for flag in ("truth", "benchmark"):
        if getattr(args, flag, None):
            raise ValueError(f"--{flag} requires a real ratings file")
    return SynthSpec(
        num_users=args.users,
        num_items=args.items,
        num_links=args.links,
        case=case,
        spam_fraction=args.spam_p,
        seed=args.seed,
    )


def _load_source(args):
    """Returns (graph, user_map, item_map, truth); maps/truth may be None."""
    if args.ratings is not None:
        graph, user_map, item_map = ingest_ratings(args.ratings, args.format)
        truth = None
        if getattr(args, "truth", None):
            truth = _align_truth(read_truth(args.truth), user_map, item_map)
        return graph, user_map, item_map, truth
    graph, truth = generate_network(_synth_spec(args, args.synth_case))
    return graph, None, None, truth


def _align_truth(truth, user_map: IdMap, item_map: IdMap):
    """Reorder truth vectors into the ingested index space.

    Works when external ids are the stringified indices a synth run wrote,
    which is the only case where a truth file can accompany a ratings file.
    Any other id (`-1`, `01`, `a`) is an error.
    """
    def indices(id_map: IdMap) -> np.ndarray:
        if not all(ext.isdecimal() and str(int(ext)) == ext
                   for ext in id_map.ids):
            raise ValueError("truth alignment requires integer external ids "
                             "(ratings written by the synth command)")
        return np.array([int(ext) for ext in id_map.ids])

    item_src, user_src = indices(item_map), indices(user_map)
    q = truth.intrinsic_quality
    e = truth.error_magnitude
    if item_src.max() >= q.size or user_src.max() >= e.size:
        raise ValueError("truth file does not cover the ratings file")
    return SynthTruth(q[item_src], e[user_src])


def _resolve_benchmark(args, item_map, truth) -> BenchmarkSet:
    if getattr(args, "benchmark", None):
        loaded = load_benchmark(args.benchmark, item_map)
        if loaded.skipped:
            _say(args, f"benchmark: skipped {loaded.skipped} unknown ids")
        return loaded.benchmark
    if truth is not None:
        return top_fraction_benchmark(truth, args.benchmark_fraction)
    raise ValueError("no benchmark available: pass --benchmark or use a "
                     "synthetic source")


# ----------------------------------------------------------------- commands

def cmd_ingest(args) -> int:
    graph, user_map, item_map = ingest_ratings(args.ratings, args.format)
    print(f"users={graph.num_users} items={graph.num_items} "
          f"links={graph.num_links} sparsity={graph.sparsity:.6f}")
    _write_stamped(args, args.out, lambda fh: write_ratings_csv(
        graph, fh, user_map, item_map))
    return 0


def cmd_synth(args) -> int:
    graph, truth = generate_network(_synth_spec(args, args.case))
    print(f"users={graph.num_users} items={graph.num_items} "
          f"links={graph.num_links}")
    _write_stamped(args, args.out_ratings,
                   lambda fh: write_ratings_csv(graph, fh))
    # JSON has no comments; the ratings file beside it carries the config
    truth_path = _out_path(args, args.out_truth)
    _atomic_write(truth_path, lambda fh: write_truth(truth, fh))
    print(f"wrote {truth_path}")
    return 0


def _rank_projected(args, graph):
    """Ranks `graph` under the --p1/--p2 projection, on its own classes."""
    cfg = _ranking_config(args)
    params = ProjectionParams(args.p1, args.p2)
    [(_, result)] = rank_projections(graph, cfg, [params])
    _say(args, f"{cfg.algorithm}: iterations={result.iterations_used} "
               f"converged={result.converged} "
               f"residual={result.final_residual:.3e}")
    return result


def cmd_rank(args) -> int:
    graph, user_map, item_map, _ = _load_source(args)
    result = _rank_projected(args, graph)
    if not result.converged:
        print(f"warning: not converged after {result.iterations_used} "
              f"iterations (residual {result.final_residual:.3e})",
              file=sys.stderr)
    ranks = quality_ranks(result.qualities)

    def write_items(fh):
        fh.write("item_id,quality,rank\n")
        for j in np.argsort(ranks, kind="stable"):
            ext = item_map.external(int(j)) if item_map else str(int(j))
            fh.write(f"{ext},{float(result.qualities[j])!r},"
                     f"{float(ranks[j])!r}\n")

    def write_users(fh):
        fh.write("user_id,reputation\n")
        for i, rep in enumerate(result.reputations):
            ext = user_map.external(i) if user_map else str(i)
            fh.write(f"{ext},{float(rep)!r}\n")

    _write_stamped(args, args.out_items, write_items)
    _write_stamped(args, args.out_users, write_users)
    return 0


def cmd_eval(args) -> int:
    graph, _, item_map, truth = _load_source(args)
    benchmark = _resolve_benchmark(args, item_map, truth)
    result = _rank_projected(args, graph)
    rs = ranking_score(result.qualities, benchmark)
    lines = [f"rs={rs.value!r}",
             f"benchmark_size={rs.benchmark_size}",
             f"converged={result.converged}"]
    if truth is not None:
        corr = reputation_error_correlation(result.reputations,
                                            truth.error_magnitude)
        lines.append(f"correlation={corr.value!r}")
        if corr.degenerate:
            lines.append("correlation_degenerate=true")
    for line in lines:
        print(line)
    if args.out:
        _write_stamped(args, args.out, lambda fh: fh.writelines(
            line + "\n" for line in lines))
    return 0


def cmd_sweep(args) -> int:
    metric = _METRIC_ALIASES[args.metric]
    cfg = _ranking_config(args)
    if args.ratings is not None:
        graph, _, item_map, _ = _load_source(args)
        source = RealSource(graph, _resolve_benchmark(args, item_map, None),
                            tag=Path(args.ratings).stem)
    else:
        source = SynthSource(_synth_spec(args, args.synth_case),
                             benchmark_fraction=args.benchmark_fraction)

    def axis(fixed):
        return grid_values(args.grid_step) if fixed is None else (fixed,)

    grid = run_sweep(source, cfg, metric=metric,
                     p1_values=axis(args.fix_p1), p2_values=axis(args.fix_p2),
                     n_realizations=args.realizations, threads=args.threads)
    try:
        opt = find_optimum(grid)
        summary = (f"optimum p1={opt.p1:g} p2={opt.p2:g} "
                   f"value={opt.value!r}")
    except ValueError as exc:
        summary = f"optimum unavailable: {exc}"
    print(summary)

    def write_grid(fh):
        fh.write(f"# tag={grid.tag} algorithm={grid.algorithm} "
                 f"metric={grid.metric} n={grid.n_realizations}\n")
        fh.write("p1,p2,mean,std,n,converged_frac\n")
        for a, p1 in enumerate(grid.p1_values):
            for b, p2 in enumerate(grid.p2_values):
                fh.write(f"{p1!r},{p2!r},{float(grid.mean[a, b])!r},"
                         f"{float(grid.std[a, b])!r},{grid.n_realizations},"
                         f"{float(grid.converged_frac[a, b])!r}\n")
        fh.write(f"# {summary}\n")

    _write_stamped(args, args.out, write_grid)
    return 0


def _read_sweep_csv(path: Path) -> SweepGrid:
    """The grid of a sweep output file: its `# tag=` line, its header and
    a row per cell, each row parsed once into its (p1, p2) cell. A cell
    given twice, or a row whose n is not the tag line's, is an error."""
    refused = ValueError(f"{path}: not a sweep output file")
    meta, header, cells, ns = None, False, {}, set()
    with _open_text(path) as fh:
        for raw in fh:
            line = raw.strip()
            if match := _SWEEP_META.fullmatch(line):
                meta = match.groups()
            elif line.startswith("p1,"):
                header = True
            elif line and not line.startswith("#"):
                try:
                    p1, p2, mean, std, n, conv = line.split(",")
                    ns.add(int(n))
                    cell = float(p1), float(p2)
                    row = float(mean), float(std), float(conv)
                except ValueError:
                    raise refused from None
                if cells.setdefault(cell, row) is not row:
                    raise ValueError(f"{path}: cell ({p1}, {p2}) repeated")
    if not (cells and meta and header):
        raise refused
    if ns != {int(meta[3])}:
        raise ValueError(f"{path}: a row's n differs from n={meta[3]}")
    p1_values, p2_values = (tuple(sorted(set(axis))) for axis in zip(*cells))
    mean, std, conv = np.array(
        [[cells.get((p1, p2), (np.nan,) * 3) for p2 in p2_values]
         for p1 in p1_values]).transpose(2, 0, 1)
    if np.isnan(mean).any():
        raise ValueError(f"{path}: incomplete grid")
    tag, algorithm, metric, n = meta
    return SweepGrid(p1_values, p2_values, mean, std, conv, int(n), metric,
                     algorithm, tag)


def cmd_table(args) -> int:
    grids = [_read_sweep_csv(Path(p)) for p in args.sweeps]
    rows = compare_table(grids)
    for r in rows:
        print(f"{r.tag} {r.algorithm}: original={r.original:.6f} "
              f"projected={r.projected:.6f} at ({r.opt_p1:g}, {r.opt_p2:g})")

    def write_table(fh):
        fh.write("tag,algorithm,original,projected,opt_p1,opt_p2\n")
        out = csv.writer(fh, lineterminator="\n")
        for r in rows:
            out.writerow((r.tag, r.algorithm, repr(r.original),
                          repr(r.projected), f"{r.opt_p1:g}", f"{r.opt_p2:g}"))

    _write_stamped(args, args.out, write_table)
    return 0


# ------------------------------------------------------------------- parser

def _add_common(p):
    p.add_argument("--outdir",
                   default=os.environ.get("REPRANK_OUTDIR", "."),
                   help="output directory (env REPRANK_OUTDIR)")
    p.add_argument("--verbose", action="store_true")


# Flag defaults are read from the dataclass field defaults they feed.

def _add_projection(p):
    p.add_argument("--p1", type=float, default=ProjectionParams.p1,
                   help="projection parameter for rating 2")
    p.add_argument("--p2", type=float, default=ProjectionParams.p2,
                   help="projection parameter for rating 4")


def _add_ranking(p):
    p.add_argument("--algorithm", choices=ALGORITHMS,
                   default=RankingConfig.algorithm)
    p.add_argument("--beta", type=float, default=RankingConfig.beta)
    p.add_argument("--epsilon", type=float, default=RankingConfig.epsilon)
    p.add_argument("--theta", type=float, default=RankingConfig.theta)
    p.add_argument("--delta", type=float, default=RankingConfig.delta)
    p.add_argument("--max-iter", type=int,
                   default=RankingConfig.max_iterations)


def _add_network(p):
    """Synthetic network size, spam and seed flags."""
    p.add_argument("--users", type=int, default=SynthSpec.num_users)
    p.add_argument("--items", type=int, default=SynthSpec.num_items)
    p.add_argument("--links", type=int, default=SynthSpec.num_links)
    p.add_argument("--spam-p", type=float, default=SynthSpec.spam_fraction)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)


def _add_source(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--ratings", help="ratings file (real data source)")
    source.add_argument("--synth-case", type=int, choices=CASES,
                        help="synthetic data source: discretization case")
    p.add_argument("--format", choices=FORMATS, default=GENERIC_CSV)
    _add_network(p)


def _add_benchmark(p):
    p.add_argument("--benchmark", help="benchmark item list (real data)")
    p.add_argument("--benchmark-fraction", type=float,
                   default=DEFAULT_BENCHMARK_FRACTION,
                   help="top intrinsic-quality fraction (synthetic data)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprank",
        description="Reputation-aware ranking on bipartite rating networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and normalize a ratings file")
    p.add_argument("--ratings", required=True)
    p.add_argument("--format", choices=FORMATS, default=GENERIC_CSV)
    p.add_argument("--out", default="ratings.csv")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic rating network")
    _add_network(p)
    p.add_argument("--case", type=int, choices=CASES, default=SynthSpec.case)
    p.add_argument("--out-ratings", default="ratings.csv")
    p.add_argument("--out-truth", default="truth.json")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rank", help="run a ranking algorithm")
    _add_source(p)
    _add_ranking(p)
    _add_projection(p)
    p.add_argument("--out-items", default="qualities.csv")
    p.add_argument("--out-users", default="reputations.csv")
    _add_common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("eval", help="rank and score against a benchmark")
    _add_source(p)
    _add_ranking(p)
    _add_projection(p)
    _add_benchmark(p)
    p.add_argument("--truth", help="ground-truth file from the synth command")
    p.add_argument("--out", help="optional metrics output file")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="metric over the (p1, p2) grid")
    _add_source(p)
    _add_ranking(p)
    p.add_argument("--metric", choices=tuple(_METRIC_ALIASES), default="rs")
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--realizations", type=int, default=None,
                   help=f"default {DEFAULT_REALIZATIONS} synthetic, 1 real")
    p.add_argument("--fix-p1", type=float, default=None,
                   help="freeze p1 (1-D slice over p2)")
    p.add_argument("--fix-p2", type=float, default=None,
                   help="freeze p2 (1-D slice over p1)")
    _add_benchmark(p)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default="sweep.csv")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table", help="original vs projected-optimum table")
    p.add_argument("--sweeps", nargs="+", required=True,
                   help="sweep output CSVs")
    p.add_argument("--out", default="table.csv")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
