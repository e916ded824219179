"""Experiment harness: metric values over a (p1, p2) projection grid.

A sweep evaluates one ranking algorithm at every grid cell, averaged over
independent synthetic realizations. Realization seeds derive from
(`SynthSpec.seed`, realization index) only, so every cell sees the same
networks and cells differ purely through the projection parameters
(paired design). Real datasets are deterministic and use one realization.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .graph import BenchmarkSet, RatingGraph
from .metrics import (ranking_score, reputation_error_correlation,
                      top_fraction_benchmark)
from .projection import ProjectionParams, project_classes
from .ranking import RankingConfig, rank_projections
from .synth import SynthSpec, generate_network

METRICS = ("rs", "correlation")

DEFAULT_GRID_STEP = 0.05
DEFAULT_REALIZATIONS = 10
DEFAULT_BENCHMARK_FRACTION = 0.05
CHUNK = 21      # most projections ranked at once, a default grid row


def grid_values(step: float = DEFAULT_GRID_STEP) -> tuple[float, ...]:
    """0, step, 2*step, ... capped at 1; rounding keeps exact decimals so
    the identity point 0.5 is representable when step divides it."""
    if not 0.0 < step <= 1.0:
        raise ValueError("grid step must be in (0, 1]")
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
        if not 0.0 < self.benchmark_fraction <= 1.0:
            raise ValueError("benchmark_fraction must be in (0, 1]")

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
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape does not match grid")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if (self.std < 0).any():
            raise ValueError("negative standard deviation")
        if self.n_realizations == 1 and self.std.any():
            raise ValueError("std must be 0 with a single realization")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")

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


def _metric_value(result, metric, benchmark, truth):
    if metric == "rs":
        return ranking_score(result.qualities, benchmark).value
    return reputation_error_correlation(
        result.reputations, truth.error_magnitude).value


def _grid_for_graph(graph, config, cells, metric, benchmark, truth):
    """Cells whose projections group the links alike are ranked together,
    CHUNK at a time; each as rank(project_graph(graph, cell)) would."""
    values = np.empty((len(cells), len(cells[0])))
    conv = np.empty_like(values, dtype=bool)
    groups = {}
    for at in np.ndindex(values.shape):
        classes = project_classes(graph.rating_classes, cells[at[0]][at[1]])
        groups.setdefault(id(classes.cache), []).append((at, classes))
    for group in groups.values():
        for s in range(0, len(group), CHUNK):
            chunk = group[s:s + CHUNK]
            results = rank_projections(graph, config, [c for _, c in chunk])
            for (at, _), result in zip(chunk, results):
                values[at] = _metric_value(result, metric, benchmark, truth)
                conv[at] = result.converged
    return values, conv


def _synth_realization(source, config, cells, metric, j):
    seed = np.random.SeedSequence([source.spec.seed, j])
    graph, truth = generate_network(source.spec, np.random.default_rng(seed))
    benchmark = (top_fraction_benchmark(truth, source.benchmark_fraction)
                 if metric == "rs" else None)
    return _grid_for_graph(graph, config, cells, metric, benchmark, truth)


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
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    p1s = tuple(p1_values) if p1_values is not None else grid_values()
    p2s = tuple(p2_values) if p2_values is not None else grid_values()
    if not p1s or not p2s:
        raise ValueError("empty grid")
    cells = tuple(tuple(ProjectionParams(p1, p2) for p2 in p2s)
                  for p1 in p1s)

    if isinstance(source, RealSource):
        if metric != "rs":
            raise ValueError("real data carries no ground truth; only the "
                             "rs metric applies")
        if n_realizations not in (None, 1):
            raise ValueError("real data is deterministic; n_realizations "
                             "must be 1")
        n_realizations = 1
        values, conv = _grid_for_graph(source.graph, config, cells, metric,
                                       source.benchmark, None)
        stack = values[None]
        conv_stack = conv[None]
    else:
        if n_realizations is None:
            n_realizations = DEFAULT_REALIZATIONS
        if n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        args = [(source, config, cells, metric, j)
                for j in range(n_realizations)]
        if threads == 1 or n_realizations == 1:
            results = [_synth_realization(*a) for a in args]
        else:
            with ProcessPoolExecutor(max_workers=min(threads,
                                                     n_realizations)) as pool:
                results = list(pool.map(_synth_realization, *zip(*args)))
        stack = np.stack([r[0] for r in results])
        conv_stack = np.stack([r[1] for r in results])

    return SweepGrid(
        p1_values=p1s,
        p2_values=p2s,
        mean=stack.mean(axis=0),
        std=stack.std(axis=0, ddof=0),
        converged_frac=conv_stack.mean(axis=0),
        n_realizations=n_realizations,
        metric=metric,
        algorithm=config.algorithm,
        tag=source.tag,
    )


def find_optimum(grid: SweepGrid) -> Optimum:
    """Best grid cell: lowest mean for rs, largest correlation magnitude
    for the correlation metric (the useful signal is anticorrelation, so
    magnitude, not the signed value, is what improves). Ties break toward
    the smallest p2, then the smallest p1.
    """
    if not grid.converged_frac.any():
        raise ValueError("every cell failed to converge")
    if grid.metric == "rs":
        score = grid.mean
    else:
        score = -np.abs(grid.mean)
    best = None
    for a, p1 in enumerate(grid.p1_values):
        for b, p2 in enumerate(grid.p2_values):
            key = (score[a, b], p2, p1)
            if best is None or key < best[0]:
                best = (key, Optimum(p1, p2, float(grid.mean[a, b])))
    return best[1]


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
    if not grids:
        raise ValueError("no sweeps provided")
    rows = []
    for grid in grids:
        if grid.metric != "rs":
            raise ValueError("comparison table is defined on rs sweeps")
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
