"""Tests of the benchmark's own checks, tracing and metric lists."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from spans import Tracer, patched, self_times

from reprank import ranking
from reprank.graph import RatingGraph
from reprank.synth import SynthSpec, generate_network

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def graph():
    g, _ = generate_network(SynthSpec(num_users=300, num_items=200,
                                      num_links=6000, seed=3))
    return g


def _ranked(graph, algorithm):
    config = ranking.RankingConfig(algorithm=algorithm)
    return config, ranking.rank(graph, config)


@pytest.mark.parametrize("algorithm", ["ir", "cr", "rr"])
def test_reputation_step_check_passes_untouched_result(graph, algorithm):
    config, result = _ranked(graph, algorithm)
    users = checks.sample_users(graph.num_users, 7)
    assert checks.check_rank(graph, result, config, users) == []


@pytest.mark.parametrize("algorithm", ["ir", "cr", "rr"])
def test_reputation_step_check_catches_one_perturbed_user(graph, algorithm):
    config, result = _ranked(graph, algorithm)
    users = checks.sample_users(graph.num_users, 7)
    rep = result.reputations.copy()
    rep[users[len(users) // 2]] += 1e-6
    bad = dataclasses.replace(result, reputations=rep)
    problems = checks.check_rank(graph, bad, config, users)
    assert any("reputation step" in p for p in problems)


@pytest.mark.parametrize("algorithm", ["ir", "cr", "rr"])
def test_reputation_step_check_catches_permuted_qualities(graph, algorithm):
    config, result = _ranked(graph, algorithm)
    users = checks.sample_users(graph.num_users, 7)
    perm = np.random.default_rng(0).permutation(graph.num_items)
    bad = dataclasses.replace(result, qualities=result.qualities[perm])
    problems = checks.check_rank(graph, bad, config, users)
    assert any("reputation step" in p for p in problems)


def test_sweep_row_check_flags_identity_mismatch_and_range():
    p2s = (0.0, 0.5, 1.0)
    good = ("# config: {}\n# tag=case0 algorithm=cr metric=rs n=2\n"
            "p1,p2,mean,std,n,converged_frac\n"
            "0.5,0.0,0.2,0.01,2,1.0\n0.5,0.5,0.1,0.01,2,1.0\n"
            "0.5,1.0,0.3,0.01,2,1.0\n# optimum p1=0.5 p2=0.5 value=0.1\n")
    assert checks.check_sweep_row(good, p2s, 2, 0.1) == []
    assert checks.check_sweep_row(good, p2s, 2, 0.1 + 1e-6)
    assert checks.check_sweep_row(good.replace("0.3,", "1.3,"), p2s, 2, 0.1)
    assert checks.check_sweep_row(good, p2s + (1.5,), 2, 0.1)


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    selfs = self_times(tracer.spans)
    assert [s.duration for s in tracer.spans] == [10.0, 2.0, 2.0]
    assert selfs == {0: 6.0, 1: 2.0, 2: 2.0}


def test_patched_records_spans_and_restores(graph):
    original_rank = ranking.rank
    original_build = vars(RatingGraph)["build"]
    tracer = Tracer()
    with patched(tracer, workloads.trace_targets()):
        ranking.rank(graph, ranking.RankingConfig(algorithm="cr"))
        RatingGraph.build(2, 2, [0, 1], [1, 0], [1.0, 5.0])
    assert ranking.rank is original_rank
    assert vars(RatingGraph)["build"] is original_build
    names = [s.name for s in tracer.spans]
    assert names == ["ranking.rank", "graph.build"]
    assert tracer.spans[0].attrs["algorithm"] == "cr"
    assert tracer.spans[0].attrs["iterations"] >= 1


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert workloads.tail(list(range(10))) is None
    value, pct, n = workloads.tail(list(range(40)))
    assert (value, n) == (29, 40) and pct == 75.0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.GATED)
    assert set(run.GATED) <= set(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
