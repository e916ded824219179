import math

import numpy as np
import pytest

from nets import random_bipartite
from oracle import oracle_ir, oracle_rr
from reprank.graph import RatingGraph
from reprank.ranking import (RankingConfig, rank, rank_cr, rank_ir, rank_mean,
                             rank_rr, residual)


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


def test_residual():
    assert residual([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert residual([1.0, 3.0], [2.0, 1.0]) == pytest.approx(2.5)
    assert residual([], []) == 0.0
    # NaN in both vectors is the unrated sentinel: zero weight, still counted
    assert residual([1.0, math.nan], [2.0, math.nan]) == 0.5
    with pytest.raises(ValueError):
        residual([1.0], [1.0, 2.0])


def test_mean_ranking():
    g = RatingGraph.build(3, 3, [0, 1, 2, 0, 1], [0, 0, 0, 1, 1],
                          [5, 4, 3, 1, 2])
    res = rank_mean(g)
    assert res.qualities[0] == pytest.approx(4.0)
    assert res.qualities[1] == pytest.approx(1.5)
    assert math.isnan(res.qualities[2])  # nobody rated item 2
    assert res.reputations.tolist() == [1.0, 1.0, 1.0]
    assert res.converged and res.iterations_used == 1
    assert res.final_residual == 0.0


def test_ir_handles_unrated_items():
    g = RatingGraph.build(2, 3, [0, 1], [0, 1], [4, 2])
    res = rank_ir(g)
    assert math.isnan(res.qualities[2])
    assert res.converged


def test_ir_requires_rating_users():
    g = RatingGraph.build(3, 2, [0, 1], [0, 1], [4, 2])  # user 2 silent
    with pytest.raises(ValueError, match="rated at least one"):
        rank_ir(g)


def test_cr_rr_preconditions():
    silent_user = RatingGraph.build(3, 2, [0, 1, 0], [0, 1, 1], [4, 2, 3])
    unrated_item = RatingGraph.build(2, 3, [0, 1, 1], [0, 0, 1], [4, 2, 3])
    for g in (silent_user, unrated_item):
        with pytest.raises(ValueError):
            rank_cr(g)
        with pytest.raises(ValueError):
            rank_rr(g)


def test_ir_beta_zero_is_mean():
    rng = np.random.default_rng(11)
    g = random_bipartite(rng)
    res = rank_ir(g, RankingConfig(algorithm="ir", beta=0.0))
    np.testing.assert_allclose(res.qualities, rank_mean(g).qualities,
                               atol=1e-12, equal_nan=True)
    assert res.converged


def test_ir_perfect_consensus_hits_epsilon_ceiling():
    # zero MSE makes the reputation exactly epsilon**-1
    g = RatingGraph.build(3, 2, [0, 1, 2, 0, 1, 2], [0, 0, 0, 1, 1, 1],
                          [5, 5, 5, 2, 2, 2])
    res = rank_ir(g, RankingConfig(algorithm="ir", epsilon=1e-8))
    assert res.reputations.tolist() == [1e8, 1e8, 1e8]
    assert res.qualities.tolist() == [5.0, 2.0]


def test_single_iteration_reports_unknown_residual():
    rng = np.random.default_rng(12)
    g = random_bipartite(rng)
    for fn in (rank_ir, rank_cr, rank_rr):
        res = fn(g, RankingConfig(max_iterations=1))
        assert res.iterations_used == 1
        assert not res.converged
        assert math.isinf(res.final_residual)


def test_convergence_bookkeeping():
    rng = np.random.default_rng(13)
    g = random_bipartite(rng)
    for fn in (rank_ir, rank_cr, rank_rr):
        res = fn(g, RankingConfig(delta=1e-6, max_iterations=500))
        assert res.converged
        assert res.iterations_used >= 2
        assert res.final_residual < 1e-6


def test_cr_equals_stripped_rr_per_iteration():
    rng = np.random.default_rng(14)
    g = random_bipartite(rng)
    cfg = RankingConfig(algorithm="rr", theta=1.0, delta=1e-30,
                        max_iterations=40)
    tr_cr, tr_rr = [], []
    rank_cr(g, cfg, trace=tr_cr)
    rank_rr(g, cfg, use_penalty=False, use_damping=False, trace=tr_rr)
    assert len(tr_cr) == len(tr_rr) >= 2
    for (q1, r1), (q2, r2) in zip(tr_cr, tr_rr):
        np.testing.assert_allclose(q1, q2, atol=1e-12, equal_nan=True)
        np.testing.assert_allclose(r1, r2, atol=1e-12)


def test_degenerate_users_get_zero_reputation():
    # user 1 rates everything 3: no variance, no correlation
    g = RatingGraph.build(2, 3, [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2],
                          [5, 3, 1, 3, 3, 3])
    res = rank_cr(g)
    assert res.reputations[1] == 0.0
    assert res.reputations[0] > 0.0


def test_all_degenerate_falls_back_to_plain_mean():
    # every reputation collapses to 0; quality must be the plain mean
    g = RatingGraph.build(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [2, 2, 4, 4])
    for fn in (rank_cr, rank_rr):
        res = fn(g)
        assert res.reputations.tolist() == [0.0, 0.0]
        np.testing.assert_allclose(res.qualities, [3.0, 3.0])
        assert res.converged


def test_quality_bounds():
    rng = np.random.default_rng(15)
    g = random_bipartite(rng)
    for res in (rank_mean(g), rank_ir(g), rank_cr(g),
                rank_rr(g, use_penalty=False)):
        q = res.qualities[~np.isnan(res.qualities)]
        assert q.min() >= 1.0 - 1e-9 and q.max() <= 5.0 + 1e-9
    # the penalty factor min(1, top rater reputation) lies in [0, 1], so it
    # can only mark a weighted mean down, never above the rating scale
    res = rank_rr(g)
    q = res.qualities[~np.isnan(res.qualities)]
    assert q.min() >= 0.0 and q.max() <= 5.0 + 1e-9
    assert (res.reputations >= 0).all()


def assert_matches_oracle(res, oracle, g, **kwargs):
    """Same iteration count and convergence flag as the plain-Python
    reference, values within 1e-12 scaled by 1 + |reference|."""
    links = list(zip(g.users.tolist(), g.items.tolist(), g.ratings.tolist()))
    oq, orep, iterations, converged, _ = oracle(links, g.num_users,
                                                g.num_items, **kwargs)
    assert res.iterations_used == iterations
    assert res.converged == converged
    for got, want in ((res.qualities, oq), (res.reputations, orep)):
        want = np.asarray(want)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12


def test_rr_matches_oracle_where_penalty_cap_binds():
    rng = np.random.default_rng(19)
    g = random_bipartite(rng)
    cfg = RankingConfig(algorithm="rr", theta=5.0, delta=1e-30,
                        max_iterations=50)
    tr = []
    res = rank_rr(g, cfg, trace=tr)
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
        assert_matches_oracle(rank_ir(g, cfg), oracle_ir, g,
                              delta=1e-8, max_iterations=200)


def test_cr_matches_stripped_rr_oracle():
    rng = np.random.default_rng(22)
    cfg = RankingConfig(algorithm="cr", delta=1e-8, max_iterations=200)
    for _ in range(40):
        g = random_bipartite(rng)
        assert_matches_oracle(rank_cr(g, cfg), oracle_rr, g, theta=1.0,
                              delta=1e-8, max_iterations=200,
                              use_penalty=False, use_damping=False)


def test_trace_collects_iterations():
    rng = np.random.default_rng(16)
    g = random_bipartite(rng)
    tr = []
    res = rank_rr(g, RankingConfig(max_iterations=5, delta=1e-30), trace=tr)
    assert len(tr) == res.iterations_used
    np.testing.assert_array_equal(tr[-1][0], res.qualities)
    np.testing.assert_array_equal(tr[-1][1], res.reputations)


def test_dispatcher_matches_direct_calls():
    rng = np.random.default_rng(17)
    g = random_bipartite(rng)
    pairs = [("mean", rank_mean(g)),
             ("ir", rank_ir(g, RankingConfig(algorithm="ir"))),
             ("cr", rank_cr(g, RankingConfig(algorithm="cr"))),
             ("rr", rank_rr(g, RankingConfig(algorithm="rr")))]
    for algo, direct in pairs:
        via = rank(g, RankingConfig(algorithm=algo))
        np.testing.assert_array_equal(via.qualities, direct.qualities)
        np.testing.assert_array_equal(via.reputations, direct.reputations)


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
    np.testing.assert_allclose(b.qualities[pi], a.qualities,
                               atol=1e-10, equal_nan=True)
    np.testing.assert_allclose(b.reputations[pu], a.reputations, atol=1e-10,
                               rtol=1e-10)
