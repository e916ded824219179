"""Experiment harness: metric values over a (p1, p2) projection grid.

A sweep evaluates one ranking algorithm at every grid cell, averaged over
independent synthetic realizations. Realization seeds derive from
(`SynthSpec.seed`, realization index) only, so every cell sees the same
networks and cells differ purely through the projection parameters
(paired design). Real datasets are deterministic and use one realization.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .graph import BenchmarkSet, RatingGraph, _is_int, _is_real, _require
from .metrics import (ranking_score, reputation_error_correlation,
                      top_fraction_benchmark)
from .projection import ProjectionParams
from .ranking import RankingConfig, rank_projections
from .synth import SynthSpec, generate_network

METRICS = ("rs", "correlation")

DEFAULT_GRID_STEP = 0.05
DEFAULT_REALIZATIONS = 10
DEFAULT_BENCHMARK_FRACTION = 0.05


def grid_values(step: float = DEFAULT_GRID_STEP) -> tuple[float, ...]:
    """0, step, 2*step, ... capped at 1; rounding keeps exact decimals so
    the identity point 0.5 is representable when step divides it."""
    _require(_is_real(step) and 0.0 < step <= 1.0,
             "grid step must be in (0, 1]")
    values = []
    i = 0
    while i * step <= 1.0 + 1e-9:
        values.append(min(round(i * step, 12), 1.0))
        i += 1
    return tuple(values)


@dataclass(frozen=True)
class SynthSource:
    """Synthetic data source: fresh network per realization.

    Realization j is drawn from `SeedSequence([spec.seed, j])`; a sweep
    over it runs `DEFAULT_REALIZATIONS` realizations unless told otherwise.
    """

    spec: SynthSpec
    benchmark_fraction: float = DEFAULT_BENCHMARK_FRACTION

    def __post_init__(self):
        _require(_is_real(self.benchmark_fraction)
                 and 0.0 < self.benchmark_fraction <= 1.0,
                 "benchmark_fraction must be in (0, 1]")

    @property
    def tag(self) -> str:
        return f"case{self.spec.case}"


@dataclass(frozen=True)
class RealSource:
    """Fixed real graph plus benchmark; ranking is deterministic, so a
    sweep over it runs one realization."""

    graph: RatingGraph
    benchmark: BenchmarkSet
    tag: str = "real"

    def __post_init__(self):
        _require(max(self.benchmark.item_indices) < self.graph.num_items,
                 "benchmark item index out of range for the graph")


@dataclass(frozen=True)
class SweepGrid:
    p1_values: tuple[float, ...]
    p2_values: tuple[float, ...]
    mean: np.ndarray            # (len(p1_values), len(p2_values))
    std: np.ndarray
    converged_frac: np.ndarray
    n_realizations: int
    metric: str
    algorithm: str
    tag: str

    def __post_init__(self):
        shape = (len(self.p1_values), len(self.p2_values))
        for name in ("mean", "std", "converged_frac"):
            _require(getattr(self, name).shape == shape,
                     f"{name} shape does not match grid")
        for name in ("p1", "p2"):   # so finite, and no cell twice
            axis = getattr(self, f"{name}_values")
            _require(axis, "empty grid")
            _require(all(_is_real(v) and 0.0 <= v <= 1.0 for v in axis),
                     f"{name} value outside [0, 1]")
            _require(len(set(axis)) == len(axis), f"{name} value repeated")
        _require(0 <= self.converged_frac.min()       # NaN fails both
                 and self.converged_frac.max() <= 1,
                 "converged fraction outside [0, 1]")
        _require(self.n_realizations >= 1, "n_realizations must be >= 1")
        _require(not (self.std < 0).any(), "negative standard deviation")
        _require(self.n_realizations > 1 or not self.std.any(),
                 "std must be 0 with a single realization")
        _require(self.metric in METRICS, f"metric must be one of {METRICS}")

    def cell(self, p1: float, p2: float) -> tuple[int, int]:
        """Grid coordinates of an exact (p1, p2) pair."""
        try:
            return self.p1_values.index(p1), self.p2_values.index(p2)
        except ValueError:
            raise ValueError(f"({p1}, {p2}) not on the grid") from None


class Optimum(NamedTuple):
    p1: float
    p2: float
    value: float


def _realization(source, config, params, metric, j):
    """Each cell's metric and convergence on realization j of `source`, as
    rank(project_graph(graph, cell)) would give them; `rank_projections`
    batches the cells."""
    if isinstance(source, RealSource):
        graph, benchmark, truth = source.graph, source.benchmark, None
    else:
        seed = np.random.SeedSequence([source.spec.seed, j])
        graph, truth = generate_network(source.spec,
                                        np.random.default_rng(seed))
        benchmark = (top_fraction_benchmark(truth, source.benchmark_fraction)
                     if metric == "rs" else None)
    values = np.empty(len(params))
    conv = np.empty(len(params), dtype=bool)
    for i, result in rank_projections(graph, config, params):
        values[i] = (ranking_score(result.qualities, benchmark).value
                     if metric == "rs" else reputation_error_correlation(
                         result.reputations, truth.error_magnitude).value)
        conv[i] = result.converged
    return values, conv


def run_sweep(
    source: SynthSource | RealSource,
    config: RankingConfig,
    *,
    metric: str = "rs",
    p1_values: Sequence[float] | None = None,
    p2_values: Sequence[float] | None = None,
    n_realizations: int | None = None,
    threads: int = 1,
) -> SweepGrid:
    """Evaluate `metric` for `config` over the projection grid.

    The grid is every (p1, p2) pair of `p1_values` x `p2_values`, each
    `grid_values()` by default. `n_realizations` defaults to 1 for a
    `RealSource` and to `DEFAULT_REALIZATIONS` for a `SynthSource`, whose
    realizations are seeded from its `spec.seed`. Non-converged runs are
    recorded, not discarded; the per-cell converged fraction reports them.
    The grid is reproducible from (source, config) regardless of `threads`.
    """
    _require(metric in METRICS, f"metric must be one of {METRICS}")
    _require(_is_int(threads) and threads >= 1, "threads must be >= 1")
    p1s = tuple(p1_values) if p1_values is not None else grid_values()
    p2s = tuple(p2_values) if p2_values is not None else grid_values()
    params = [ProjectionParams(p1, p2) for p1 in p1s for p2 in p2s]

    real = isinstance(source, RealSource)
    if n_realizations is None:
        n_realizations = 1 if real else DEFAULT_REALIZATIONS
    if real:
        _require(metric == "rs", "real data carries no ground truth; only "
                 "the rs metric applies")
        _require(n_realizations == 1, "real data is deterministic; "
                 "n_realizations must be 1")
    _require(_is_int(n_realizations) and n_realizations >= 1,
             "n_realizations must be >= 1")
    # the grid's own checks run before any realization does
    blank = np.zeros((len(p1s), len(p2s)))
    grid = SweepGrid(p1s, p2s, blank, blank, blank, n_realizations, metric,
                     config.algorithm, source.tag)
    run = partial(_realization, source, config, params, metric)
    if threads == 1 or n_realizations == 1:
        results = list(map(run, range(n_realizations)))
    else:
        with ProcessPoolExecutor(max_workers=min(threads,
                                                 n_realizations)) as pool:
            results = list(pool.map(run, range(n_realizations)))
    shape = (n_realizations, len(p1s), len(p2s))
    stack, conv_stack = (np.reshape(a, shape) for a in zip(*results))
    return replace(grid, mean=stack.mean(axis=0),
                   std=stack.std(axis=0, ddof=0),
                   converged_frac=conv_stack.mean(axis=0))


def find_optimum(grid: SweepGrid) -> Optimum:
    """Best grid cell: lowest mean for rs, largest correlation magnitude
    for the correlation metric (the useful signal is anticorrelation, so
    magnitude, not the signed value, is what improves). Ties break toward
    the smallest p2, then the smallest p1.
    """
    _require(grid.converged_frac.any(), "every cell failed to converge")
    if grid.metric == "rs":
        score = grid.mean
    else:
        score = -np.abs(grid.mean)
    _, p2, p1, a, b = min((score[a, b], p2, p1, a, b)
                          for a, p1 in enumerate(grid.p1_values)
                          for b, p2 in enumerate(grid.p2_values))
    return Optimum(p1, p2, float(grid.mean[a, b]))


class TableRow(NamedTuple):
    tag: str
    algorithm: str
    original: float
    projected: float
    opt_p1: float
    opt_p2: float


def compare_table(grids: Sequence[SweepGrid]) -> list[TableRow]:
    """Original (identity projection) vs optimum rs per sweep.

    Requires rs sweeps whose grid contains (0.5, 0.5); that makes
    projected <= original structural.
    """
    _require(len(grids) > 0, "no sweeps provided")
    rows = []
    for grid in grids:
        _require(grid.metric == "rs",
                 "comparison table is defined on rs sweeps")
        a, b = grid.cell(0.5, 0.5)
        opt = find_optimum(grid)
        rows.append(TableRow(
            tag=grid.tag,
            algorithm=grid.algorithm,
            original=float(grid.mean[a, b]),
            projected=opt.value,
            opt_p1=opt.p1,
            opt_p2=opt.p2,
        ))
    return rows
