import hashlib
import inspect
import math
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nets import equals, fixed_point, random_bipartite
from oracle import oracle_ir, oracle_rr, project_rating
from reprank import ranking
from reprank.graph import RatingGraph
from reprank.metrics import ranking_score, top_fraction_benchmark
from reprank.projection import ProjectionParams, project_classes, project_graph
from reprank.ranking import (ALGORITHMS, RankingConfig, _residual, rank,
                             rank_projections)
from reprank.synth import SynthSpec, generate_network, inject_spam


def test_config_validation():
    RankingConfig(algorithm="ir", beta=0.0)
    with pytest.raises(ValueError, match="unknown algorithm"):
        RankingConfig(algorithm="pagerank")
    with pytest.raises(ValueError, match="beta"):
        RankingConfig(beta=-1.0)
    with pytest.raises(ValueError, match="epsilon"):
        RankingConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="theta"):
        RankingConfig(theta=0.0)
    with pytest.raises(ValueError, match="delta"):
        RankingConfig(delta=0.0)
    with pytest.raises(ValueError, match="max_iterations"):
        RankingConfig(max_iterations=0)
    for name in ("beta", "epsilon", "theta", "delta"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RankingConfig(**{name: math.inf})
        for flag in (True, np.bool_(True)):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                RankingConfig(algorithm="ir", **{name: flag})


@pytest.mark.parametrize("bad", [2.5, True])
def test_max_iterations_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        RankingConfig(max_iterations=bad)


def test_max_iterations_accepts_numpy_integers():
    assert rank(random_bipartite(np.random.default_rng(3)), RankingConfig(
        algorithm="cr", max_iterations=np.int64(2))).iterations_used <= 2


def test_residual():
    assert _residual(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert _residual(np.array([1.0, 3.0]), np.array([2.0, 1.0])) == 2.5


def test_mean_ranking():
    users, items, ratings = [0, 1, 2, 0, 1], [0, 0, 0, 1, 1], [5, 4, 3, 1, 2]
    mean = RankingConfig(algorithm="mean")
    res = rank(RatingGraph.build(3, 2, users, items, ratings), mean)
    assert res.qualities.tolist() == [4.0, 1.5]
    assert res.reputations.tolist() == [1.0, 1.0, 1.0]
    assert res.converged and res.iterations_used == 1
    assert res.final_residual == 0.0
    unrated = RatingGraph.build(3, 3, users, items, ratings)  # item 2
    with pytest.raises(ValueError, match="every item must have at least"):
        rank(unrated, mean)


def test_ir_rejects_unrated_items():
    g = RatingGraph.build(2, 3, [0, 1], [0, 1], [4, 2])
    with pytest.raises(ValueError, match="every item must have at least"):
        rank(g, RankingConfig(algorithm="ir"))


def test_ir_overflow_is_an_error():
    # users whose ratings match the qualities exactly have reputation
    # epsilon**-beta, which overflows at beta=40
    g = RatingGraph.build(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [5, 2, 5, 2])
    with pytest.raises(ValueError, match="ir iteration 1 gave a non-finite"):
        rank(g, RankingConfig(algorithm="ir", beta=40.0))


def test_ir_requires_rating_users():
    g = RatingGraph.build(3, 2, [0, 1], [0, 1], [4, 2])  # user 2 silent
    with pytest.raises(ValueError, match="rated at least one"):
        rank(g, RankingConfig(algorithm="ir"))


def test_cr_rr_preconditions():
    silent_user = RatingGraph.build(3, 2, [0, 1, 0], [0, 1, 1], [4, 2, 3])
    unrated_item = RatingGraph.build(2, 3, [0, 1, 1], [0, 0, 1], [4, 2, 3])
    for g in (silent_user, unrated_item):
        for algorithm in ("cr", "rr"):
            with pytest.raises(ValueError):
                rank(g, RankingConfig(algorithm=algorithm))


def test_ir_beta_zero_is_mean():
    rng = np.random.default_rng(11)
    g = random_bipartite(rng)
    res = rank(g, RankingConfig(algorithm="ir", beta=0.0))
    mean = rank(g, RankingConfig(algorithm="mean"))
    np.testing.assert_allclose(res.qualities, mean.qualities, atol=1e-12)
    assert res.converged


def test_ir_perfect_consensus_hits_epsilon_ceiling():
    # zero MSE makes the reputation exactly epsilon**-1
    g = RatingGraph.build(3, 2, [0, 1, 2, 0, 1, 2], [0, 0, 0, 1, 1, 1],
                          [5, 5, 5, 2, 2, 2])
    res = rank(g, RankingConfig(algorithm="ir", epsilon=1e-8))
    assert res.reputations.tolist() == [1e8, 1e8, 1e8]
    assert res.qualities.tolist() == [5.0, 2.0]


def test_single_iteration_reports_unknown_residual():
    rng = np.random.default_rng(12)
    g = random_bipartite(rng)
    for algorithm in ("ir", "cr", "rr"):
        res = rank(g, RankingConfig(algorithm=algorithm, max_iterations=1))
        assert res.iterations_used == 1
        assert not res.converged
        assert math.isinf(res.final_residual)


def test_convergence_bookkeeping():
    rng = np.random.default_rng(13)
    g = random_bipartite(rng)
    for algorithm in ("ir", "cr", "rr"):
        res = rank(g, RankingConfig(algorithm=algorithm, delta=1e-6,
                                    max_iterations=500))
        assert res.converged
        assert res.iterations_used >= 2
        assert res.final_residual < 1e-6


def test_cr_equals_stripped_rr_per_iteration():
    rng = np.random.default_rng(14)
    g = random_bipartite(rng)
    cfg = RankingConfig(algorithm="rr", theta=1.0, delta=1e-30,
                        max_iterations=40)
    tr_cr, tr_rr = [], []
    fixed_point(g, replace(cfg, algorithm="cr"), trace=tr_cr)
    fixed_point(g, cfg, use_penalty=False, use_damping=False, trace=tr_rr)
    assert len(tr_cr) == len(tr_rr) >= 2
    for (q1, r1), (q2, r2) in zip(tr_cr, tr_rr):
        np.testing.assert_allclose(q1, q2, atol=1e-12)
        np.testing.assert_allclose(r1, r2, atol=1e-12)


def test_degenerate_users_get_zero_reputation():
    # user 1 rates everything 3: no variance, no correlation
    g = RatingGraph.build(2, 3, [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2],
                          [5, 3, 1, 3, 3, 3])
    res = rank(g, RankingConfig(algorithm="cr"))
    assert res.reputations[1] == 0.0
    assert res.reputations[0] > 0.0


def test_constant_quality_side_gets_zero_reputation():
    # circulant 7 x 7: every item mean is 8/7 and every user's ratings
    # vary, so only the exact test on the quality side can certify that
    # each user's quality sub-vector is constant
    base = (1, 1, 1, 1, 1, 1, 2)
    users, items = zip(*((j, i) for j in range(7) for i in range(7)))
    ratings = [base[(i - j) % 7] for j, i in zip(users, items)]
    g = RatingGraph.build(7, 7, users, items, ratings)
    plain = rank(g, RankingConfig(algorithm="mean")).qualities
    assert (plain == 8 / 7).all()
    for algorithm in ("cr", "rr"):
        res = rank(g, RankingConfig(algorithm=algorithm))
        assert res.reputations.tolist() == [0.0] * 7
        assert np.array_equal(res.qualities, plain)


def test_all_degenerate_falls_back_to_plain_mean():
    # every reputation collapses to 0; quality must be the plain mean
    g = RatingGraph.build(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [2, 2, 4, 4])
    for algorithm in ("cr", "rr"):
        res = rank(g, RankingConfig(algorithm=algorithm))
        assert res.reputations.tolist() == [0.0, 0.0]
        np.testing.assert_allclose(res.qualities, [3.0, 3.0])
        assert res.converged


def test_quality_bounds():
    rng = np.random.default_rng(15)
    g = random_bipartite(rng)
    for res in (*(rank(g, RankingConfig(algorithm=a))
                  for a in ("mean", "ir", "cr")),
                fixed_point(g, RankingConfig(), use_penalty=False)):
        q = res.qualities
        assert q.min() >= 1.0 - 1e-9 and q.max() <= 5.0 + 1e-9
    # the penalty factor min(1, top rater reputation) lies in [0, 1], so it
    # can only mark a weighted mean down, never above the rating scale
    res = rank(g, RankingConfig())
    q = res.qualities
    assert q.min() >= 0.0 and q.max() <= 5.0 + 1e-9
    assert (res.reputations >= 0).all()


@settings(deadline=None)     # rr runs up to 1000 iterations where it cycles
@given(seed=st.integers(0, 2**32 - 1))
def test_rankers_stay_in_their_ranges(seed):
    g = random_bipartite(np.random.default_rng(seed))
    lo, hi = g.ratings.min() - 1e-9, g.ratings.max() + 1e-9
    for algorithm in ALGORITHMS:
        res = rank(g, RankingConfig(algorithm=algorithm))
        q, rep = res.qualities, res.reputations
        assert np.isfinite(q).all() and np.isfinite(rep).all()
        assert (rep >= 0).all()
        if algorithm == "rr":
            assert q.min() >= 0.0 and q.max() <= 5.0 + 1e-9
        else:
            assert q.min() >= lo and q.max() <= hi
        if algorithm == "mean":
            assert (rep == 1.0).all()
        if algorithm == "cr":
            assert rep.max() <= 1.0


@given(seed=st.integers(0, 2**32 - 1))
def test_uncovered_graphs_are_rejected(seed):
    # one silent user or one unrated item at a random index, or no nodes
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng)
    n_u, n_i = g.num_users, g.num_items
    u, i = int(rng.integers(n_u + 1)), int(rng.integers(n_i + 1))
    cases = [
        (RatingGraph.build(n_u + 1, n_i, g.users + (g.users >= u), g.items,
                           g.ratings),
         "every user must have rated at least one item"),
        (RatingGraph.build(n_u, n_i + 1, g.users, g.items + (g.items >= i),
                           g.ratings),
         "every item must have at least one rating"),
        (RatingGraph.build(0, 0, [], [], []), "the graph has no ratings"),
    ]
    for h, message in cases:
        for algorithm in ALGORITHMS:
            with pytest.raises(ValueError, match=message):
                rank(h, RankingConfig(algorithm=algorithm))


def agrees(got, ref):
    """Two result tuples (qualities, reputations, iterations, converged,
    ...) share iteration count and convergence flag, and their values
    agree within 1e-12 scaled by 1 + |ref|."""
    if got[2] != ref[2] or got[3] != ref[3]:
        return False
    return all(np.max(np.abs(np.asarray(a) - np.asarray(b))
                      / (1.0 + np.abs(np.asarray(b)))) <= 1e-12
               for a, b in ((got[0], ref[0]), (got[1], ref[1])))


def assert_matches(res, ref):
    """A RankingResult agrees with the reference result tuple."""
    assert agrees((res.qualities, res.reputations, res.iterations_used,
                   res.converged), ref)


def run_oracle(oracle, g, **kwargs):
    links = list(zip(g.users.tolist(), g.items.tolist(), g.ratings.tolist()))
    return oracle(links, g.num_users, g.num_items, **kwargs)


def assert_matches_oracle(res, oracle, g, **kwargs):
    """assert_matches against the plain-Python reference; returns the
    reference reputations."""
    ref = run_oracle(oracle, g, **kwargs)
    assert_matches(res, ref)
    return np.asarray(ref[1])


def test_rr_matches_oracle_where_penalty_cap_binds():
    rng = np.random.default_rng(19)
    g = random_bipartite(rng)
    cfg = RankingConfig(algorithm="rr", theta=5.0, delta=1e-30,
                        max_iterations=50)
    tr = []
    res = fixed_point(g, cfg, trace=tr)
    # redistribution at theta=5 pushes some reputation above 1, so the
    # cap on the penalty factor is exercised
    assert max(rep.max() for _, rep in tr) > 1.0
    assert_matches_oracle(res, oracle_rr, g, theta=5.0, delta=1e-30,
                          max_iterations=50)


def test_ir_matches_oracle():
    rng = np.random.default_rng(21)
    cfg = RankingConfig(algorithm="ir", delta=1e-8, max_iterations=200)
    for _ in range(40):
        g = random_bipartite(rng)
        assert_matches_oracle(rank(g, cfg), oracle_ir, g,
                              delta=1e-8, max_iterations=200)


def test_cr_matches_stripped_rr_oracle():
    rng = np.random.default_rng(22)
    cfg = RankingConfig(algorithm="cr", delta=1e-8, max_iterations=200)
    for _ in range(40):
        g = random_bipartite(rng)
        assert_matches_oracle(rank(g, cfg), oracle_rr, g, theta=1.0,
                              delta=1e-8, max_iterations=200,
                              use_penalty=False, use_damping=False)


@pytest.mark.parametrize("seed", [23, 47])
def test_rr_matches_oracle(seed):
    # Full rr, theta=5, 40 graphs. On some graphs rounding decides the
    # outcome, and these are skipped: where a user's reputation is exactly
    # zero in one run and not in the other (an exact test, max == min or a
    # correlation of 0, on values tied only in exact arithmetic), and where
    # the reference cycles or needs more than 50 iterations, as the
    # transients then grow last-bit differences past 1e-12.
    rng = np.random.default_rng(seed)
    kw = dict(theta=5.0, delta=1e-8, max_iterations=200)
    compared = 0
    for _ in range(40):
        g = random_bipartite(rng)
        tr, otr = [], []
        res = fixed_point(g, RankingConfig(algorithm="rr", **kw), trace=tr)
        ref = run_oracle(oracle_rr, g, trace=otr, **kw)
        split = any(not np.array_equal(rep == 0.0, np.asarray(orep) == 0.0)
                    for (_, rep), (_, orep) in zip(tr, otr))
        if not split and ref[3] and ref[2] <= 50:
            assert_matches(res, ref)
            compared += 1
    assert compared >= 25


CR_READING = dict(theta=1.0, delta=1e-8, max_iterations=200,
                  use_penalty=False, use_damping=False)


def assert_cr_matches_oracle(g):
    """cr against the cr reading of oracle_rr, zero reputations included;
    returns the trace."""
    tr = []
    res = fixed_point(g, RankingConfig(algorithm="cr", delta=1e-8,
                                       max_iterations=200), trace=tr)
    orep = assert_matches_oracle(res, oracle_rr, g, **CR_READING)
    assert np.array_equal(res.reputations == 0.0, orep == 0.0)
    return tr


def test_many_rating_classes_match_oracle():
    # continuous ratings: a class per link, more (node, class) pairs than a
    # table over every combination should hold, so the pairs are numbered
    rng = np.random.default_rng(33)
    for _ in range(5):
        g = random_bipartite(rng)
        g = g.with_ratings(rng.uniform(1.0, 5.0, g.num_links))
        assert g.rating_classes.values.size == g.num_links
        assert_cr_matches_oracle(g)
        assert_matches_oracle(rank(g, RankingConfig(algorithm="ir",
                                                    delta=1e-8)),
                              oracle_ir, g, delta=1e-8)


def test_near_constant_qualities_are_centred_first():
    # 3 x 3 Latin square of three distinct ratings: every item mean is 2,
    # and summed in each item's rater order the first qualities differ in
    # the last bit, so raw moments (Σq² - (Σq)²/k) cannot resolve any
    # user's quality side
    vals = (2.2, 2.69, 1.11)
    users, items = zip(*((u, i) for u in range(3) for i in range(3)))
    g = RatingGraph.build(3, 3, users, items,
                          [vals[(u + i) % 3] for u, i in zip(users, items)])
    q1 = assert_cr_matches_oracle(g)[0][0]
    assert 0.0 < np.ptp(q1) <= 2 * np.spacing(q1.max())


def test_constant_ratings_get_zero_reputation():
    # a user rating three items 1.4 each: their qualities vary, and the
    # mean of the three ratings rounds off 1.4, so only the exact max ==
    # min test shows that the centred ratings are zero
    assert sum([1.4] * 3) / 3 != 1.4
    g = random_bipartite(np.random.default_rng(24))
    n = g.num_users
    g = RatingGraph.build(n + 1, g.num_items, [*g.users, n, n, n],
                          [*g.items, 0, 1, 2], [*g.ratings, 1.4, 1.4, 1.4])
    tr = assert_cr_matches_oracle(g)
    assert np.ptp(tr[0][0][:3]) > 0.1
    assert all(rep[n] == 0.0 for _, rep in tr)


def test_trace_collects_iterations():
    rng = np.random.default_rng(16)
    g = random_bipartite(rng)
    tr = []
    res = fixed_point(g, RankingConfig(max_iterations=5, delta=1e-30),
                      trace=tr)
    assert len(tr) == res.iterations_used
    np.testing.assert_array_equal(tr[-1][0], res.qualities)
    np.testing.assert_array_equal(tr[-1][1], res.reputations)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_unhooked_fixed_point_is_rank(algorithm):
    g = random_bipartite(np.random.default_rng(17))
    config = RankingConfig(algorithm=algorithm)
    assert_identical(fixed_point(g, config), rank(g, config))


def test_hooks_are_undone_on_exit_and_on_raise():
    originals = (dict(ranking._STEPS), ranking._rr_penalty,
                 vars(ranking._Columns)["damping"])

    def restored():
        return (ranking._STEPS == originals[0]
                and ranking._rr_penalty is originals[1]
                and vars(ranking._Columns)["damping"] is originals[2])

    g = random_bipartite(np.random.default_rng(18))
    stripped = fixed_point(g, RankingConfig(max_iterations=5), trace=[],
                           use_penalty=False, use_damping=False)
    assert restored()
    assert not np.array_equal(
        stripped.qualities,
        rank(g, RankingConfig(max_iterations=5)).qualities)
    overflow = RatingGraph.build(2, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                                 [5, 2, 5, 2])
    with pytest.raises(ValueError, match="ir iteration 1 gave a non-finite"):
        fixed_point(overflow, RankingConfig(algorithm="ir", beta=40.0),
                    trace=[], use_penalty=False, use_damping=False)
    assert restored()


def test_the_driver_and_steps_take_no_options():
    assert list(inspect.signature(ranking._fixed_point).parameters) == [
        "cfg", "graph", "cells"]
    assert set(ranking._STEPS) == {"ir", "cr", "rr"}
    for step in ranking._STEPS.values():
        assert list(inspect.signature(step).parameters) == [
            "cfg", "cols", "q", "rep"]


def permute_graph(g, rng):
    pu = rng.permutation(g.num_users)
    pi = rng.permutation(g.num_items)
    return RatingGraph.build(g.num_users, g.num_items,
                             pu[g.users], pi[g.items], g.ratings), pu, pi


@pytest.mark.parametrize("algorithm", ["mean", "ir", "cr", "rr"])
def test_relabeling_equivariance(algorithm):
    """Node ids carry no information; results must permute with them."""
    rng = np.random.default_rng(18)
    g = random_bipartite(rng)
    h, pu, pi = permute_graph(g, rng)
    cfg = RankingConfig(algorithm=algorithm)
    a, b = rank(g, cfg), rank(h, cfg)
    np.testing.assert_allclose(b.qualities[pi], a.qualities, atol=1e-10)
    np.testing.assert_allclose(b.reputations[pu], a.reputations, atol=1e-10,
                               rtol=1e-10)


# ------------------------------------------------ constant-rating items

@pytest.mark.parametrize("p1", [0.05, 0.35])
def test_constant_rating_items_rank_exactly(p1):
    # an extra item rated 2 by up to 7 users, projected to 1.1 (p1 = 0.05)
    # or 1.7: its weighted mean is that rating in exact arithmetic, whatever
    # the reputations, and every ranker returns it exactly; rr's penalty
    # then scales it by the top rater reputation, capped at 1
    params = ProjectionParams(p1, 0.5)
    r = project_rating(2.0, params)
    rng = np.random.default_rng(27)
    for _ in range(10):
        g = random_bipartite(rng)
        n, i = g.num_users, g.num_items
        raters = rng.choice(n, size=min(n, 7), replace=False)
        h = project_graph(RatingGraph.build(
            n, i + 1, [*g.users, *raters], [*g.items, *[i] * raters.size],
            [*g.ratings, *[2.0] * raters.size]), params)
        for algorithm in ("mean", "ir", "cr"):
            assert rank(h, RankingConfig(algorithm=algorithm)).qualities[i] == r
        assert fixed_point(h, RankingConfig(),
                           use_penalty=False).qualities[i] == r
        tr = []
        res = fixed_point(h, RankingConfig(max_iterations=20), trace=tr)
        rep = tr[-2][1] if len(tr) > 1 else h.user_degrees / h.num_items
        top = rep[raters].max()
        assert res.qualities[i] == (r * min(top, 1.0) if top > 0 else r)


def nudged(weighted_quality, rng):
    """weighted_quality on reputations each moved one ulp, up or down at
    random; zero reputations stay zero."""
    def noisy(ops, rep):
        away = np.where(rng.random(rep.size) < 0.5, np.inf, -np.inf)
        return weighted_quality(ops, np.where(rep > 0, np.nextafter(rep, away),
                                              rep))
    return noisy


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       p1=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       p2=st.sampled_from([0.0, 0.5, 0.95, 1.0]))
def test_ir_ranking_score_ignores_last_bit_reputation_noise(seed, p1, p2):
    # Reputations carry rounding in their last bits. The ranking score
    # must not depend on it: items tied in exact arithmetic must stay tied.
    # ir's reputations are all positive, so on these networks only
    # constant-rating items tie that way, and their quality is exact. (cr
    # and rr give zero reputations too: see the next property.)
    graph, truth = generate_network(SynthSpec(
        num_users=200, num_items=150, num_links=4000, seed=seed))
    graph = project_graph(graph, ProjectionParams(p1, p2))
    benchmark = top_fraction_benchmark(truth, 0.05)
    config = RankingConfig(algorithm="ir")
    clean = rank(graph, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ranking, "_weighted_quality",
                   nudged(ranking._weighted_quality,
                          np.random.default_rng(seed)))
        noisy = rank(graph, config)
    assert (ranking_score(noisy.qualities, benchmark).value
            == ranking_score(clean.qualities, benchmark).value)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       p1=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       p2=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
       algorithm=st.sampled_from(["cr", "rr"]))
@example(seed=50, p1=1.0, p2=1.0, algorithm="cr")
def test_correlation_ranking_score_ignores_last_bit_reputation_noise(
        seed, p1, p2, algorithm):
    # As for ir, with the ties that zero reputations make: an item whose
    # positive-reputation raters all gave one rating ties in exact
    # arithmetic with every item rated only that, and its quality is exact
    # too. (At seed 50, (1, 1), cr item 67 is such an item.)
    graph, truth = generate_network(SynthSpec(
        num_users=200, num_items=150, num_links=4000, seed=seed))
    graph = project_graph(graph, ProjectionParams(p1, p2))
    benchmark = top_fraction_benchmark(truth, 0.05)
    config = RankingConfig(algorithm=algorithm, max_iterations=100)
    clean = rank(graph, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ranking, "_weighted_quality",
                   nudged(ranking._weighted_quality,
                          np.random.default_rng(seed)))
        noisy = rank(graph, config)
    assert (ranking_score(noisy.qualities, benchmark).value
            == ranking_score(clean.qualities, benchmark).value)


# --------------------------------------------- operators per topology

def assert_identical(a, b):
    assert a.qualities.tobytes() == b.qualities.tobytes()
    assert a.reputations.tobytes() == b.reputations.tobytes()
    assert ((a.iterations_used, a.converged, a.final_residual)
            == (b.iterations_used, b.converged, b.final_residual))


def same_links(g, ratings=None):
    """A freshly built graph, with an empty cache, on g's links."""
    return RatingGraph.build(g.num_users, g.num_items, g.users, g.items,
                             g.ratings if ratings is None else ratings)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cold_and_warm_topology_cache_rank_identically(algorithm):
    config = RankingConfig(algorithm=algorithm)
    rng = np.random.default_rng(28)
    for _ in range(10):
        g = random_bipartite(rng)
        assert not g.rating_classes.cache
        cold = rank(g, config)
        assert set(g.rating_classes.cache) == {"ones", "operators"}
        assert_identical(cold, rank(g, config))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_projections_share_the_topology(algorithm):
    config = RankingConfig(algorithm=algorithm)
    rng = np.random.default_rng(29)
    for _ in range(5):
        g = random_bipartite(rng)
        rank(g, config)
        for p in ((0.0, 1.0), (0.05, 0.3), (1.0, 1.0)):
            h = project_graph(g, ProjectionParams(*p))
            assert_identical(rank(h, config),
                             rank(same_links(g, h.ratings), config))


def test_uncovered_graph_raises_every_time_and_caches_nothing():
    silent_user = RatingGraph.build(3, 2, [0, 1], [0, 1], [4, 2])
    unrated_item = RatingGraph.build(2, 3, [0, 1], [0, 1], [4, 2])
    for g, message in ((silent_user, "rated at least one"),
                       (unrated_item, "at least one rating")):
        for _ in range(2):
            for algorithm in ALGORITHMS:
                with pytest.raises(ValueError, match=message):
                    rank(g, RankingConfig(algorithm=algorithm))
        assert not g.rating_classes.cache


def test_equals_and_pickle_ignore_the_topology_cache():
    g = random_bipartite(np.random.default_rng(30))
    fresh = same_links(g)
    config = RankingConfig(algorithm="rr")
    rank(g, config)
    assert set(g.rating_classes.cache) == {"ones", "operators"}
    assert equals(g, fresh) and equals(fresh, g)
    assert pickle.dumps(g) == pickle.dumps(fresh)
    copy = pickle.loads(pickle.dumps(g))
    assert "rating_classes" not in vars(copy)
    assert equals(copy, g)
    assert_identical(rank(copy, config), rank(g, config))


def test_spam_and_corner_graphs_rank_on_their_own_classes():
    # inject_spam and a corner projection (which merges classes) give
    # with_ratings copies; each must rank like a fresh graph with the same
    # ratings, never on the clean classes' operators
    rng = np.random.default_rng(31)
    for algorithm in ALGORITHMS:
        config = RankingConfig(algorithm=algorithm)
        for _ in range(5):
            g = random_bipartite(rng)
            rank(g, config)
            spam = inject_spam(g, 0.5, rng)
            corner = project_graph(g, ProjectionParams(1.0, 0.0))
            for h in (spam, corner):
                assert_identical(rank(h, config),
                                 rank(same_links(g, h.ratings), config))
                assert (h.rating_classes.cache["operators"]
                        is not g.rating_classes.cache["operators"])
            # the batched entry ranks the graph it is given, not g's classes
            assert_identical(
                dict(rank_projections(spam, config, [ProjectionParams()]))[0],
                rank(same_links(g, spam.ratings), config))
            # a merged grouping of g's links holds no ones array of its own
            list(rank_projections(g, config, [ProjectionParams(1.0, 0.0)]))
            merged = project_classes(g.rating_classes,
                                     ProjectionParams(1.0, 0.0))
            for side in merged.cache["operators"]:
                assert side.pairs.data is g.rating_classes.cache["ones"]


PROBABILITY = st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       algorithm=st.sampled_from(ALGORITHMS),
       params=st.lists(st.tuples(PROBABILITY, PROBABILITY),
                       min_size=1, max_size=6))
@example(seed=0, algorithm="rr",    # rr's row sums: C-ordered
         params=[(0.5, 0.5), (0.5, 0.5)])
# (0, 1) and (1, 0) both merge the classes to [1, 3, 5], on other labels:
# the second cell must not rank on the first's operators (mean and cr once
# did, 1.0 and 2.0 off on this graph)
@example(seed=35, algorithm="mean", params=[(0.0, 1.0), (1.0, 0.0)])
@example(seed=35, algorithm="cr", params=[(0.0, 1.0), (1.0, 0.0)])
def test_columns_equal_separate_rank_calls(seed, algorithm, params):
    # projections ranked in one call give exactly separate rank calls,
    # whether they share a grouping of the links (K columns, stopping at
    # other iterations or at the cap) or merge classes into other groupings
    g = random_bipartite(np.random.default_rng(seed))
    config = RankingConfig(algorithm=algorithm, delta=1e-12,
                           max_iterations=40)
    cells = [ProjectionParams(*pair) for pair in params]
    results = dict(rank_projections(g, config, cells))
    assert sorted(results) == list(range(len(cells)))
    for i, p in enumerate(cells):
        assert_identical(results[i], rank(project_graph(g, p), config))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_no_projections_rank_to_no_results(algorithm):
    g = random_bipartite(np.random.default_rng(36))
    assert list(rank_projections(g, RankingConfig(algorithm=algorithm),
                                 [])) == []


@pytest.mark.parametrize("algorithm", ["ir", "cr", "rr"])
def test_columns_stop_at_their_own_iterations(algorithm):
    g = random_bipartite(np.random.default_rng(32))
    config = RankingConfig(algorithm=algorithm, delta=1e-12,
                           max_iterations=40)
    cells = [ProjectionParams(p1, p2) for p1 in (0.1, 0.5, 0.9)
             for p2 in (0.2, 0.7)]
    results = dict(rank_projections(g, config, cells))
    assert len({r.iterations_used for r in results.values()}) > 1
    for i, p in enumerate(cells):
        assert_identical(results[i], rank(project_graph(g, p), config))


def test_projections_are_yielded_a_chunk_at_a_time(monkeypatch):
    # a chunk's results leave before the next chunk runs, so a sweep holds
    # at most CHUNK results at once: 23 cells on one grouping run as full
    # chunks and the rest, and a merging corner cell on its own grouping
    # after them
    ks, fixed_point = [], ranking._fixed_point

    def recording(cfg, graph, cells):
        ks.append(len(cells))
        return fixed_point(cfg, graph, cells)

    monkeypatch.setattr(ranking, "_fixed_point", recording)
    g = random_bipartite(np.random.default_rng(37))
    assert set(g.ratings) == {1.0, 2.0, 3.0, 4.0, 5.0}
    cells = [ProjectionParams(0.02 + 0.04 * i, 0.3) for i in range(23)]
    results = rank_projections(g, RankingConfig(algorithm="cr"),
                               cells + [ProjectionParams(1.0, 0.0)])
    assert next(results)[0] == 0
    assert len(ks) == 1 and ks[0] <= ranking.CHUNK
    assert [i for i, _ in results] == list(range(1, 24))
    full, rest = divmod(23, ranking.CHUNK)
    assert ks == [ranking.CHUNK] * full + [rest, 1]


def test_pair_keys_do_not_wrap_at_32_bits():
    # an item-side (item, class) pair key is item * classes + class: items
    # 0 and 61,356, carrying classes 0 and 47,296 of 70,000, have keys 0 and
    # exactly 2**32, which int32 arithmetic would give one pair
    n, a, b = 70_000, 47_296, 61_356
    assert b * n + a == 2**32
    labels = np.arange(n)
    labels[[a, b]] = b, a
    ratings = np.linspace(1.0, 5.0, n)[labels]
    g = RatingGraph.build(2, n, np.arange(n) % 2, np.arange(n), ratings)
    assert g.rating_classes.labels[g.items == b].tolist() == [a]
    q = rank(g, RankingConfig(algorithm="mean")).qualities
    assert np.array_equal(q, ratings)


def test_merged_groupings_share_the_identity_ones():
    g, _ = generate_network(SynthSpec(300, 200, 6000, seed=3))
    cells = [project_classes(g.rating_classes, ProjectionParams(*p))
             for p in ((0.5, 0.5), (0.0, 0.5), (1.0, 1.0))]
    assert len({id(c.cache) for c in cells}) == 3   # identity, two merges
    sides = [side for c in cells for side in ranking._operators(g, c)]
    ones = g.rating_classes.cache["ones"]
    assert all(side.pairs.data is ones for side in sides)
    assert all(np.shares_memory(side.nodes.data, ones) for side in sides)


def test_projected_copies_build_operators_once_per_grouping(monkeypatch):
    # a project_graph copy ranks on the grouping its projection derived from
    # the source's: operators are built for a grouping only the first time
    # any copy ranks on it, and every grouping's rest on the source's ones
    built, side = [], ranking._side
    monkeypatch.setattr(ranking, "_side",
                        lambda *a: built.append(1) or side(*a))
    g = random_bipartite(np.random.default_rng(37))
    assert set(g.ratings) == {1.0, 2.0, 3.0, 4.0, 5.0}
    config = RankingConfig(algorithm="cr")
    rank(g, config)
    assert len(built) == 2                      # the item and user sides
    copies = []
    for p, new in (((0.3, 0.7), 0), ((0.3, 0.7), 0), ((1.0, 0.0), 2),
                   ((1.0, 0.0), 0), ((0.8, 0.2), 0), ((0.0, 0.5), 2)):
        copies.append(project_graph(g, ProjectionParams(*p)))
        before = len(built)
        rank(copies[-1], config)
        assert len(built) - before == new, p
    # a merge of a merge: 2 into 1, then 4 into 5, once and again
    for _ in range(2):
        copies.append(project_graph(copies[5], ProjectionParams(0.5, 1.0)))
        rank(copies[-1], config)
    assert len(built) == 8
    root = g.rating_classes.cache
    for h in copies:
        classes = h.rating_classes
        assert classes.cache is root or "ones" not in classes.cache
        for s in ranking._operators(h, classes):
            assert s.pairs.data is root["ones"]


# each pair: a merge of a merge, a merge after a projection that keeps the
# classes apart, a move after a merge, and two moves
TWICE = [(first, second)
         for first in ((0.0, 0.5), (1.0, 0.5), (0.3, 0.5), (0.5, 0.25))
         for second in ((0.5, 0.0), (0.5, 1.0), (0.8, 0.5), (0.0, 1.0))]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_projections_of_projected_copies_group_as_fresh_graphs(algorithm):
    config = RankingConfig(algorithm=algorithm, delta=1e-12,
                           max_iterations=40)
    rng = np.random.default_rng(39)
    for _ in range(6):
        g = random_bipartite(rng)
        for first, second in TWICE:
            h = project_graph(project_graph(g, ProjectionParams(*first)),
                              ProjectionParams(*second))
            fresh = same_links(g, h.ratings)
            seeded, built = h.rating_classes, fresh.rating_classes
            assert np.array_equal(seeded.values, built.values)
            assert np.array_equal(seeded.labels, built.labels)
            assert seeded.labels.dtype == built.labels.dtype
            assert_identical(rank(h, config), rank(fresh, config))


def test_a_merge_to_256_classes_labels_as_a_fresh_graph_does():
    # 258 classes, 2 and 4 among them, merge to 256: a fresh graph labels
    # them in uint8, and so must the grouping derived from the source's
    values = np.r_[1.0:6.0, 1.0 + (np.arange(253) + 0.5) / 64]
    n = values.size
    g = RatingGraph.build(2, n, np.arange(n) % 2, np.arange(n), values)
    assert g.rating_classes.labels.dtype == np.intp
    h = project_graph(g, ProjectionParams(0.0, 0.0))
    fresh = same_links(g, h.ratings).rating_classes
    assert fresh.values.size == 256 and fresh.labels.dtype == np.uint8
    assert h.rating_classes.labels.dtype == np.uint8
    assert np.array_equal(h.rating_classes.labels, fresh.labels)


@pytest.mark.parametrize("k", [1, 3])
def test_blocked_penalty_equals_the_one_shot_gather(k):
    # item 0 has more raters than a block holds, and many other items
    # straddle multiples of ranking._BLOCK in the item-ordered links
    rng = np.random.default_rng(k)
    n_u, n_i = 70_000, 300
    a = rng.integers(1, n_i, n_u)                     # two distinct items
    b = 1 + (a - 1 + rng.integers(1, n_i - 1, n_u)) % (n_i - 1)   # past 0
    users = np.repeat(np.arange(n_u), 3)
    items = np.column_stack([np.zeros(n_u, int), a, b]).ravel()
    g = RatingGraph.build(n_u, n_i, users, items,
                          rng.integers(1, 6, users.size).astype(np.float64))
    cells = [project_classes(g.rating_classes, ProjectionParams(p, 1 - p))
             for p in np.linspace(0.2, 0.8, k)]
    cols = ranking._Columns(g, cells)
    raters = cols.items.pairs.indices
    starts = cols.items.pairs.indptr[cols.items.nodes.indptr]
    edges = np.arange(ranking._BLOCK, raters.size, ranking._BLOCK)
    assert starts[1] > ranking._BLOCK and edges.size > 1
    assert np.isin(edges, starts, invert=True).all()

    rep = rng.random((k, n_u)) * (rng.random((k, n_u)) > 0.2)   # below 1
    q = rng.uniform(1.0, 5.0, (k, n_i))
    top = np.array([np.maximum.reduceat(r.take(raters), starts[:-1])
                    for r in rep])
    expected = q.copy()
    expected[top > 0] *= top[top > 0]
    blocked, _ = ranking._rr_step(RankingConfig(), cols, q.copy(), rep)
    assert np.array_equal(blocked, expected)


@pytest.mark.parametrize("algorithm, built", [
    ("mean", set()), ("ir", {"vu", "nv2"}), ("cr", {"vu", "rating_side"}),
    ("rr", {"vu", "rating_side", "damping"})])
def test_columns_build_only_what_their_ranker_reads(monkeypatch, algorithm,
                                                    built):
    # the per-column constants a step reads are built on first use: mean
    # builds none of them, and ir none of the Pearson's rating side
    made = []

    class Recording(ranking._Columns):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(ranking, "_Columns", Recording)
    rank(random_bipartite(np.random.default_rng(38)),
         RankingConfig(algorithm=algorithm))
    lazy = {"vu", "nv2", "rating_side", "damping"}
    assert len(made) == 1 and lazy & set(vars(made[0])) == built


# ------------------------------------------- raw moments, exact fallback

RR_READING = dict(theta=5.0, delta=1e-8, max_iterations=200)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=84)       # cr and rr: a 1e-9 cancellation bound misses the
@example(seed=88)       # low-degree users whose raw moments cancel here
@example(seed=1609)     # rr: transients that amplify last-bit differences
def test_correlation_rankers_match_oracle(seed):
    # cr and rr take the quality side of the Pearson from raw moments and
    # the reference from the two-pass formula, so the two differ in the
    # last bits. They must agree within 1e-12 scaled with the same
    # iteration count, except where rounding decides the outcome: the
    # traces split on an exact zero reputation, or the reference cycles or
    # needs more than 50 iterations (as in test_rr_matches_oracle), or the
    # reference itself moves past 1e-12 when each iteration's reputations
    # carry 1e-12 relative noise, more than the raw moments' own error here
    # (at most k·eps/1e-2 per correlation, k <= 20).
    g = random_bipartite(np.random.default_rng(seed))
    for algorithm, kw in (("cr", CR_READING), ("rr", RR_READING)):
        tr, otr = [], []
        res = fixed_point(g, RankingConfig(
            algorithm=algorithm, theta=kw["theta"], delta=1e-8,
            max_iterations=200), trace=tr)
        ref = run_oracle(oracle_rr, g, trace=otr, **kw)
        if (any(not np.array_equal(rep == 0.0, np.asarray(orep) == 0.0)
                for (_, rep), (_, orep) in zip(tr, otr))
                or not ref[3] or ref[2] > 50):
            continue
        if not agrees((res.qualities, res.reputations, res.iterations_used,
                       res.converged), ref):
            noise = random.Random(seed)
            noisy = run_oracle(oracle_rr, g, noise=lambda rep: {
                u: v * (1 + 1e-12 * noise.choice((-1, 1)))
                for u, v in rep.items()}, **kw)
            assert not agrees(noisy, ref), (algorithm, seed)


def test_high_degree_user_with_equal_qualities_takes_the_exact_path():
    # K x K cyclic Latin square of K distinct ratings: every item mean is
    # the same in exact arithmetic, but summed in each item's rater order
    # the first qualities differ in the last bits, so each user, of degree
    # K, sees qualities whose raw moments cancel to rounding noise. Only the
    # exact two-pass path gives the reference's correlations (and zero
    # reputations) from those bits.
    K = 60
    vals = 1.0 + (np.arange(K) * 0.0671) % 4.0
    users, items = zip(*((u, i) for u in range(K) for i in range(K)))
    g = RatingGraph.build(K, K, users, items,
                          [vals[(u + i) % K] for u, i in zip(users, items)])
    q1 = assert_cr_matches_oracle(g)[0][0]
    assert 0.0 < np.ptp(q1) <= 8 * np.spacing(q1.max())
    s1, s2 = q1.sum(), (q1 * q1).sum()
    assert s2 - s1 * s1 / K <= 1e-2 * s2


def test_ranking_outputs_are_pinned():
    """Every bit of mean, ir, cr and rr results over a grid of projections:
    qualities, reputations, iterations, convergence flags and residuals. A
    change that moves this digest says why in CHANGES.md."""
    g, _ = generate_network(SynthSpec(1500, 1000, 120_000, seed=1))
    cells = [ProjectionParams(p1, i / 10) for p1 in (0.0, 0.5, 1.0)
             for i in range(11)]
    digest = hashlib.sha1()
    for algorithm in ALGORITHMS:
        config = RankingConfig(algorithm=algorithm, max_iterations=30)
        results = dict(rank_projections(g, config, cells))
        for i in range(len(cells)):
            r = results[i]
            digest.update(r.qualities.tobytes() + r.reputations.tobytes())
            digest.update(repr((r.iterations_used, r.converged,
                                r.final_residual)).encode())
    assert digest.hexdigest() == "d204885d65eabce494840c6c1edc559b02a51316"
