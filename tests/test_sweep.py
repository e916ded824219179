import dataclasses

import numpy as np
import pytest

from reprank.graph import BenchmarkSet, RatingGraph
from reprank.metrics import ranking_score, top_fraction_benchmark
from reprank.projection import ProjectionParams, project_graph
from reprank.ranking import ALGORITHMS, RankingConfig, rank
from reprank.sweep import (DEFAULT_BENCHMARK_FRACTION, DEFAULT_REALIZATIONS,
                           Optimum, RealSource, SweepGrid, SynthSource,
                           _grid_for_graph, compare_table, find_optimum,
                           grid_values, run_sweep)
from reprank.synth import SynthSpec, generate_network

TINY = SynthSpec(num_users=60, num_items=40, num_links=900, case=1)
CR = RankingConfig(algorithm="cr")


def test_grid_values():
    g = grid_values(0.05)
    assert len(g) == 21
    assert g[0] == 0.0 and g[-1] == 1.0
    assert 0.5 in g
    assert g[3] == 0.15  # exact decimals, no accumulated float error
    assert grid_values(0.3) == (0.0, 0.3, 0.6, 0.9)
    assert grid_values(1.0) == (0.0, 1.0)
    for bad in (0.0, 1.2, -0.5):
        with pytest.raises(ValueError):
            grid_values(bad)


def test_synth_source_defaults():
    src = SynthSource(TINY)
    assert src.tag == "case1"
    with pytest.raises(ValueError):
        SynthSource(TINY, benchmark_fraction=0.0)


def grid_of(mean, p1v, p2v, metric="rs", conv=None, n=1):
    mean = np.asarray(mean, dtype=np.float64)
    if conv is None:
        conv = np.ones_like(mean)
    return SweepGrid(p1_values=p1v, p2_values=p2v, mean=mean,
                     std=np.zeros_like(mean), converged_frac=np.asarray(conv),
                     n_realizations=n, metric=metric, algorithm="cr", tag="t")


def test_sweep_grid_validation():
    with pytest.raises(ValueError, match="shape"):
        grid_of([[0.1, 0.2]], (0.0,), (0.0,))
    with pytest.raises(ValueError, match="metric"):
        grid_of([[0.1]], (0.0,), (0.0,), metric="auc")
    good = grid_of([[0.1, 0.2]], (0.0,), (0.0, 1.0))
    assert good.cell(0.0, 1.0) == (0, 1)
    with pytest.raises(ValueError, match="not on the grid"):
        good.cell(0.5, 0.5)


def test_find_optimum_rs_takes_minimum():
    g = grid_of([[0.3, 0.2], [0.25, 0.4]], (0.0, 0.5), (0.0, 0.5))
    assert find_optimum(g) == Optimum(0.0, 0.5, 0.2)


def test_find_optimum_tie_breaks_toward_small_p2_then_p1():
    g = grid_of([[0.5, 0.5], [0.5, 0.5]], (0.0, 0.5), (0.0, 0.5))
    assert find_optimum(g) == Optimum(0.0, 0.0, 0.5)


def test_find_optimum_correlation_uses_magnitude():
    g = grid_of([[-0.9, 0.2]], (0.5,), (0.0, 0.5), metric="correlation")
    assert find_optimum(g) == Optimum(0.5, 0.0, -0.9)
    tied = grid_of([[-0.5, 0.5]], (0.5,), (0.0, 0.5), metric="correlation")
    assert find_optimum(tied) == Optimum(0.5, 0.0, -0.5)


def test_find_optimum_requires_some_convergence():
    g = grid_of([[0.1]], (0.5,), (0.5,), conv=[[0.0]])
    with pytest.raises(ValueError, match="failed to converge"):
        find_optimum(g)


def test_run_sweep_validation():
    src = SynthSource(TINY)
    with pytest.raises(ValueError, match="metric"):
        run_sweep(src, CR, metric="auc")
    with pytest.raises(ValueError, match="threads"):
        run_sweep(src, CR, threads=0)
    with pytest.raises(ValueError, match="outside"):
        run_sweep(src, CR, p1_values=(1.5,), p2_values=(0.5,))
    with pytest.raises(ValueError, match="empty grid"):
        run_sweep(src, CR, p1_values=(), p2_values=(0.5,))


def hand_real_source():
    g = RatingGraph.build(
        3, 4,
        users=[0, 0, 0, 0, 1, 1, 1, 2, 2, 2],
        items=[0, 1, 2, 3, 0, 1, 2, 1, 2, 3],
        ratings=[5, 4, 2, 1, 5, 4, 2, 4, 1, 2],
    )
    return RealSource(g, BenchmarkSet(frozenset({0})))


def test_run_sweep_real_source():
    src = hand_real_source()
    grid = run_sweep(src, CR, p1_values=(0.5,), p2_values=(0.5,),
                     n_realizations=1)
    direct = rank(project_graph(src.graph, ProjectionParams(0.5, 0.5)), CR)
    expected = ranking_score(direct.qualities, src.benchmark).value
    assert grid.mean[0, 0] == expected
    assert grid.std[0, 0] == 0.0
    assert grid.converged_frac[0, 0] == 1.0
    assert grid.tag == "real"


def test_run_sweep_default_realizations_follow_source():
    one = dict(p1_values=(0.5,), p2_values=(0.5,))
    assert run_sweep(hand_real_source(), CR, **one).n_realizations == 1
    synth = run_sweep(SynthSource(TINY), RankingConfig(algorithm="mean"),
                      **one)
    assert synth.n_realizations == DEFAULT_REALIZATIONS


def test_run_sweep_realizations_seeded_from_spec():
    spec = dataclasses.replace(TINY, seed=7)
    grid = run_sweep(SynthSource(spec), CR, p1_values=(0.5,),
                     p2_values=(0.5,), n_realizations=3)
    direct = []
    for j in range(3):
        rng = np.random.default_rng(np.random.SeedSequence([7, j]))
        graph, truth = generate_network(spec, rng)
        benchmark = top_fraction_benchmark(truth, DEFAULT_BENCHMARK_FRACTION)
        rs = ranking_score(rank(graph, CR).qualities, benchmark).value
        direct.append([[rs]])
    direct = np.array(direct)
    assert np.array_equal(grid.mean, direct.mean(axis=0))
    assert np.array_equal(grid.std, direct.std(axis=0))


def test_run_sweep_real_source_restrictions():
    src = hand_real_source()
    with pytest.raises(ValueError, match="ground truth"):
        run_sweep(src, CR, metric="correlation", n_realizations=1)
    with pytest.raises(ValueError, match="must be 1"):
        run_sweep(src, CR, n_realizations=2)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_sweep_is_seed_paired_and_thread_invariant(algorithm):
    src = SynthSource(dataclasses.replace(TINY, seed=99))
    config = RankingConfig(algorithm=algorithm)
    kw = dict(metric="rs", p1_values=(0.0, 0.5, 1.0), p2_values=(0.5,),
              n_realizations=3)
    serial = run_sweep(src, config, threads=1, **kw)
    pooled = run_sweep(src, config, threads=3, **kw)
    again = run_sweep(src, config, threads=1, **kw)
    for other in (pooled, again):
        assert np.array_equal(serial.mean, other.mean)
        assert np.array_equal(serial.std, other.std)
        assert np.array_equal(serial.converged_frac, other.converged_frac)
    assert serial.mean.shape == (3, 1)
    assert serial.n_realizations == 3


def test_run_sweep_correlation_metric():
    grid = run_sweep(SynthSource(dataclasses.replace(TINY, seed=5)), CR,
                     metric="correlation", p1_values=(0.5,),
                     p2_values=(0.0, 1.0), n_realizations=2)
    assert (np.abs(grid.mean) <= 1.0).all()
    assert grid.metric == "correlation"


def test_compare_table():
    spec = SynthSpec(num_users=100, num_items=60, num_links=2400, case=3,
                     seed=17)
    grid = run_sweep(SynthSource(spec), CR, metric="rs",
                     p1_values=(0.0, 0.5, 1.0), p2_values=(0.0, 0.5, 1.0),
                     n_realizations=2)
    row = compare_table([grid])[0]
    a, b = grid.cell(0.5, 0.5)
    assert row.original == grid.mean[a, b]
    assert row.projected <= row.original  # optimum ranges over the grid
    assert row.tag == "case3" and row.algorithm == "cr"


def test_compare_table_errors():
    with pytest.raises(ValueError, match="no sweeps"):
        compare_table([])
    corr = grid_of([[-0.5]], (0.5,), (0.5,), metric="correlation")
    with pytest.raises(ValueError, match="rs sweeps"):
        compare_table([corr])
    off_grid = grid_of([[0.5]], (0.0,), (0.0,))
    with pytest.raises(ValueError, match="not on the grid"):
        compare_table([off_grid])


def assert_cells_equal_direct_ranks(spec, p1_values, algorithm="cr"):
    """Every cell of one realization's grid, ranked in batches, equals rank
    on the projected graph bit for bit, RS included."""
    graph, truth = generate_network(spec)
    benchmark = top_fraction_benchmark(truth, DEFAULT_BENCHMARK_FRACTION)
    config = RankingConfig(algorithm=algorithm)
    cells = tuple(tuple(ProjectionParams(p1, p2) for p2 in grid_values())
                  for p1 in p1_values)
    values, conv = _grid_for_graph(graph, config, cells, "rs", benchmark,
                                   truth)
    for a, row in enumerate(cells):
        for b, params in enumerate(row):
            direct = rank(project_graph(graph, params), config)
            rs = ranking_score(direct.qualities, benchmark).value
            assert (values[a, b], conv[a, b]) == (rs, direct.converged)


@pytest.mark.parametrize("algorithm", ["ir", "cr", "rr"])
def test_desk_grid_cells_equal_direct_ranks(algorithm):
    assert_cells_equal_direct_ranks(
        SynthSpec(num_users=600, num_items=400, num_links=48_000, seed=3),
        grid_values(), algorithm)


@pytest.mark.parametrize("algorithm", ["ir", "cr"])
def test_paper_row_cells_equal_direct_ranks(algorithm):
    assert_cells_equal_direct_ranks(SynthSpec(seed=1), (0.5,), algorithm)
