import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracle import oracle_midranks, oracle_rs_enumerated
from reprank.graph import BenchmarkSet
from reprank.metrics import (Correlation, RankingScore, quality_ranks,
                             ranking_score, reputation_error_correlation,
                             top_fraction_benchmark)


def test_midranks_basic():
    assert quality_ranks([5.0, 3.0, 4.0]).tolist() == [1.0, 3.0, 2.0]
    # ties share the average position
    assert quality_ranks([4.0, 4.0, 1.0]).tolist() == [1.5, 1.5, 3.0]
    assert quality_ranks([2.0, 2.0, 2.0]).tolist() == [2.0, 2.0, 2.0]


def test_midranks_put_nan_last():
    ranks = quality_ranks([3.0, float("nan"), 5.0, float("nan")])
    assert ranks.tolist() == [2.0, 3.5, 1.0, 3.5]
    all_nan = quality_ranks([float("nan")] * 3)
    assert all_nan.tolist() == [2.0, 2.0, 2.0]


def test_midranks_reject_bad_shape():
    with pytest.raises(ValueError):
        quality_ranks([])
    with pytest.raises(ValueError):
        quality_ranks([[1.0, 2.0]])


# small alphabet forces heavy ties; NaN exercises the missing block
tie_vectors = st.lists(
    st.sampled_from([1.0, 2.0, 3.0, float("nan")]), min_size=1, max_size=30)


@given(tie_vectors)
def test_midranks_match_reference(qualities):
    np.testing.assert_array_equal(quality_ranks(qualities),
                                  oracle_midranks(qualities))


@given(tie_vectors, st.data())
def test_ranking_score_ranks_only_the_benchmark(qualities, data):
    """The score ranks only the benchmark's items, in sorted order, so it
    averages the very floats the full midrank vector holds there."""
    bench = data.draw(st.sets(st.integers(0, len(qualities) - 1), min_size=1))
    want = (np.mean(np.asarray(oracle_midranks(qualities))[sorted(bench)])
            / len(qualities))
    assert ranking_score(qualities, BenchmarkSet(frozenset(bench))).value == want


def test_ranking_score_values():
    q = [5.0, 4.0, 3.0, 2.0, 1.0]
    assert ranking_score(q, BenchmarkSet(frozenset({0}))).value == 0.2
    assert ranking_score(q, BenchmarkSet(frozenset({0, 1}))).value == 0.3
    assert ranking_score(q, BenchmarkSet(frozenset({4}))).value == 1.0
    score = ranking_score(q, BenchmarkSet(frozenset({2})))
    assert score.benchmark_size == 1


def test_ranking_score_with_ties_matches_enumeration():
    cases = [
        ([3.0, 3.0, 1.0], {0}),
        ([3.0, 3.0, 1.0], {1, 2}),
        ([2.0, 2.0, 2.0, 2.0], {3}),
        ([5.0, float("nan"), 5.0, 1.0], {0, 2}),
    ]
    for q, bench in cases:
        got = ranking_score(q, BenchmarkSet(frozenset(bench))).value
        assert got == pytest.approx(oracle_rs_enumerated(q, sorted(bench)))


def test_ranking_score_rejects_out_of_range_benchmark():
    with pytest.raises(ValueError, match="out of range"):
        ranking_score([1.0, 2.0], BenchmarkSet(frozenset({5})))


def test_ranking_score_dataclass_bounds():
    with pytest.raises(ValueError):
        RankingScore(0.0, 1)
    with pytest.raises(ValueError):
        RankingScore(1.2, 1)
    with pytest.raises(ValueError):
        RankingScore(0.5, 0)


@given(tie_vectors.filter(lambda q: not all(math.isnan(v) for v in q)))
def test_ranks_invariant_under_monotone_transforms(qualities):
    """Only the order matters, so any strictly increasing remap of the
    finite values leaves the ranks alone."""
    base = quality_ranks(qualities)
    arr = np.asarray(qualities)
    for transform in (lambda x: 2.0 * x + 1.0, lambda x: x ** 3):
        np.testing.assert_array_equal(quality_ranks(transform(arr)), base)


def test_correlation_exact():
    r = np.array([1.0, 2.0, 3.0, 4.0])
    e = np.array([4.0, 3.0, 2.0, 1.0])
    assert reputation_error_correlation(r, e) == Correlation(-1.0, False)
    rng = np.random.default_rng(0)
    a, b = rng.random(50), rng.random(50)
    got = reputation_error_correlation(a, b)
    assert got.value == pytest.approx(np.corrcoef(a, b)[0, 1])
    assert not got.degenerate


def test_correlation_degenerate_inputs():
    flat = np.ones(5)
    varied = np.arange(5.0)
    assert reputation_error_correlation(flat, varied) == Correlation(0.0, True)
    assert reputation_error_correlation(varied, flat) == Correlation(0.0, True)


def test_correlation_input_validation():
    with pytest.raises(ValueError, match="equal length"):
        reputation_error_correlation([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="at least 2"):
        reputation_error_correlation([1.0], [1.0])


def test_correlation_refuses_non_finite_vectors():
    # a NaN would give a coefficient outside [-1, 1]
    for r, e in (([1.0, np.nan, 2.0], [1.0, 2.0, 3.0]),
                 ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0])):
        with pytest.raises(ValueError, match="finite"):
            reputation_error_correlation(r, e)


def test_correlation_whose_denominator_underflows_is_degenerate():
    # not constant, yet the squared deviations round to zero
    got = reputation_error_correlation([0.0, 1e-200, 0.0], [1.0, 2.0, 3.0])
    assert got == Correlation(0.0, True)


class _Truth:
    def __init__(self, q):
        self.intrinsic_quality = np.asarray(q, dtype=np.float64)


def test_top_fraction_refuses_a_bool():
    for bad in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="fraction must be a number"):
            top_fraction_benchmark(_Truth([1.0, 2.0]), bad)


def test_top_fraction_benchmark():
    truth = _Truth([1.0, 5.0, 3.0, 4.0, 2.0])
    assert top_fraction_benchmark(truth, 0.4).item_indices == frozenset({1, 3})
    assert top_fraction_benchmark(truth, 1.0).size == 5
    # n rounds up and never drops below one item
    assert top_fraction_benchmark(truth, 0.01).item_indices == frozenset({1})
    assert top_fraction_benchmark(truth, 0.41).size == 3


def test_top_fraction_threshold_ties_break_low_index():
    truth = _Truth([5.0, 5.0, 3.0])
    assert top_fraction_benchmark(truth, 1 / 3).item_indices == frozenset({0})


def test_top_fraction_exact_grid():
    # 0.05 * 4000 must give exactly 200 despite float fuzz
    truth = _Truth(np.arange(4000, dtype=np.float64))
    assert top_fraction_benchmark(truth, 0.05).size == 200


def test_top_fraction_validation():
    truth = _Truth([1.0, 2.0])
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            top_fraction_benchmark(truth, bad)
