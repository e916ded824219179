"""Reputation/quality ranking algorithms on bipartite rating networks.

Four methods share one synchronous fixed-point schedule:

  mean  quality = plain mean rating, reputations all 1, no iteration
  ir    reputation = (user MSE against current qualities + eps)^(-beta)
  cr    reputation = Pearson correlation between a user's ratings and the
        current qualities of the items they rated (negative values clamped)
  rr    cr extended with a penalty factor (item quality scaled by the top
        rater reputation, capped at 1), a log-degree damping factor, and a
        nonlinear redistribution of reputation mass with exponent theta

ir, cr and rr share one loop, `_fixed_point`. Each iteration weights the
ratings by the previous reputations into item qualities (an item whose
raters all carry zero reputation keeps its plain mean), then calls the
algorithm's step(q, rep) -> (q, rep), which may adjust the qualities (rr's
penalty) and returns the new reputations. Iteration stops when `residual`,
the mean squared change of the quality vector, drops below delta. Items
nobody rated keep a NaN quality sentinel, which the residual ignores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import RatingGraph

ALGORITHMS = ("mean", "ir", "cr", "rr")


@dataclass(frozen=True)
class RankingConfig:
    algorithm: str = "rr"
    beta: float = 1.0           # ir error exponent
    epsilon: float = 1e-8       # ir regularizer
    theta: float = 5.0          # rr redistribution exponent
    delta: float = 1e-4         # convergence threshold on the quality residual
    max_iterations: int = 1000

    def __post_init__(self):
        _require(self.algorithm in ALGORITHMS,
                 f"unknown algorithm {self.algorithm!r}; "
                 f"expected one of {ALGORITHMS}")
        _require(self.beta >= 0, "beta must be >= 0")
        _require(self.epsilon > 0, "epsilon must be > 0")
        _require(self.theta > 0, "theta must be > 0")
        _require(self.delta > 0, "delta must be > 0")
        _require(self.max_iterations >= 1, "max_iterations must be >= 1")


@dataclass(frozen=True)
class RankingResult:
    reputations: np.ndarray   # per user
    qualities: np.ndarray     # per item, NaN where unrated
    iterations_used: int
    converged: bool
    final_residual: float


def residual(q_new: np.ndarray, q_old: np.ndarray) -> float:
    """Mean squared difference between consecutive quality vectors.

    Entries that are NaN in both vectors (the unrated-item sentinel)
    contribute zero but still count in the mean.
    """
    q_new = np.asarray(q_new, dtype=np.float64)
    q_old = np.asarray(q_old, dtype=np.float64)
    _require(q_new.shape == q_old.shape and q_new.ndim == 1,
             "quality vectors must be 1-D of equal length")
    if q_new.size == 0:
        return 0.0
    d = (q_new - q_old)[~(np.isnan(q_new) & np.isnan(q_old))]
    return float(np.sum(d * d) / q_new.size)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _plain_mean(graph):
    """Mean rating per item, NaN where unrated."""
    counts = graph.item_degrees
    sums = np.bincount(graph.items, weights=graph.ratings,
                       minlength=graph.num_items)
    q = np.full(graph.num_items, np.nan)
    np.divide(sums, counts, out=q, where=counts > 0)
    return q


def _weighted_quality(graph, rep, plain_mean):
    """Reputation-weighted mean rating per item, NaN where unrated.

    Items whose raters carry zero total reputation fall back to the plain
    mean for this step.
    """
    w = rep[graph.users]
    wtot = np.bincount(graph.items, weights=w, minlength=graph.num_items)
    wsum = np.bincount(graph.items, weights=w * graph.ratings,
                       minlength=graph.num_items)
    q = plain_mean.copy()
    pos = wtot > 0
    q[pos] = wsum[pos] / wtot[pos]
    return q


def rank_mean(graph: RatingGraph) -> RankingResult:
    """Quality = arithmetic mean rating; every reputation is 1."""
    return RankingResult(
        reputations=np.ones(graph.num_users),
        qualities=_plain_mean(graph),
        iterations_used=1,
        converged=True,
        final_residual=0.0,
    )


def _fixed_point(graph, cfg, rep, step, trace=None) -> RankingResult:
    """The schedule shared by ir, cr and rr.

    Starting from the reputations `rep`, each iteration computes the
    reputation-weighted qualities q from the previous reputations, then
    calls step(q, rep), which returns this iteration's (qualities,
    reputations). Iteration stops once the residual between consecutive
    qualities drops below cfg.delta, or after cfg.max_iterations; with a
    single iteration the residual is unknown (inf). `trace`, if given,
    collects (qualities, reputations) copies.
    """
    plain_mean = _plain_mean(graph)
    res = float("inf")
    for iterations in range(1, cfg.max_iterations + 1):
        q = _weighted_quality(graph, rep, plain_mean)
        q, rep = step(q, rep)
        if trace is not None:
            trace.append((q.copy(), rep.copy()))
        if iterations > 1:
            res = residual(q, q_prev)
            if res < cfg.delta:
                return RankingResult(rep, q, iterations, True, res)
        q_prev = q
    return RankingResult(rep, q, iterations, False, res)


def rank_ir(graph: RatingGraph, config: RankingConfig | None = None) -> RankingResult:
    """Iterative refinement: reputation is an inverse power of rating MSE."""
    cfg = config or RankingConfig(algorithm="ir")
    _require(not (graph.user_degrees == 0).any(),
             "ir requires every user to have rated at least one item")
    k_user = graph.user_degrees.astype(np.float64)

    def step(q, _):
        d = graph.ratings - q[graph.items]
        mse = np.bincount(graph.users, weights=d * d,
                          minlength=graph.num_users) / k_user
        return q, (mse + cfg.epsilon) ** (-cfg.beta)

    return _fixed_point(graph, cfg, np.ones(graph.num_users), step)


def _degenerate_users(graph, q):
    """Users whose rating vector or quality sub-vector is constant.

    Exact max == min tests; mean subtraction alone cannot certify zero
    variance in floating point.
    """
    starts = graph.user_ptr[:-1]
    r = graph.ratings
    qs = q[graph.items]
    r_spread = np.maximum.reduceat(r, starts) > np.minimum.reduceat(r, starts)
    q_spread = np.maximum.reduceat(qs, starts) > np.minimum.reduceat(qs, starts)
    return ~(r_spread & q_spread)


def _pearson_by_user(graph, q):
    """Pearson correlation of (ratings, current qualities) per user.

    Degenerate users (either vector constant) get 0.
    """
    k = graph.user_degrees.astype(np.float64)
    u = graph.users
    qs = q[graph.items]
    r_mean = np.bincount(u, weights=graph.ratings, minlength=graph.num_users) / k
    q_mean = np.bincount(u, weights=qs, minlength=graph.num_users) / k
    dr = graph.ratings - r_mean[u]
    dq = qs - q_mean[u]
    num = np.bincount(u, weights=dr * dq, minlength=graph.num_users)
    ss_r = np.bincount(u, weights=dr * dr, minlength=graph.num_users)
    ss_q = np.bincount(u, weights=dq * dq, minlength=graph.num_users)
    bad = _degenerate_users(graph, q)
    den = np.sqrt(ss_r * ss_q)
    bad |= den == 0.0
    corr = np.zeros(graph.num_users)
    good = ~bad
    corr[good] = num[good] / den[good]
    np.clip(corr, -1.0, 1.0, out=corr)
    return corr


def _correlation_start(graph: RatingGraph) -> np.ndarray:
    """Checks the cr/rr preconditions; returns the initial reputations,
    each user's degree over the item count."""
    _require(not (graph.user_degrees == 0).any(),
             "every user must have rated at least one item")
    _require(not (graph.item_degrees == 0).any(),
             "every item must have at least one rating")
    return graph.user_degrees / graph.num_items


def rank_cr(
    graph: RatingGraph,
    config: RankingConfig | None = None,
    *,
    trace: list | None = None,
) -> RankingResult:
    """Correlation-based ranking: reputation is the clamped Pearson match
    between a user's ratings and the current item qualities.

    Kept as its own step rather than delegating to rank_rr so the claimed
    degeneracy (rr with both factors off and theta 1) stays a cross-check
    between two code paths.
    """
    cfg = config or RankingConfig(algorithm="cr")
    rep0 = _correlation_start(graph)

    def step(q, _):
        return q, np.maximum(_pearson_by_user(graph, q), 0.0)

    return _fixed_point(graph, cfg, rep0, step, trace)


def rank_rr(
    graph: RatingGraph,
    config: RankingConfig | None = None,
    *,
    use_penalty: bool = True,
    use_damping: bool = True,
    trace: list | None = None,
) -> RankingResult:
    """Reputation redistribution ranking.

    Quality is the reputation-weighted mean scaled by the penalty factor
    min(1, top rater reputation), so full rr qualities stay within [0, 5].
    The cap is needed because the redistribution preserves only the total
    reputation mass, so single reputations can exceed 1; uncapped, the
    factor would boost the items of the top user, whose trust is then
    measured against those boosted qualities. Trust is log-degree-damped
    Pearson correlation, clamped at 0; reputation mass is then
    redistributed through the power theta. The keyword switches exist to
    exercise the degenerate path (both off, theta=1 reproduces rank_cr);
    `trace` collects per-iteration (qualities, reputations) copies.
    """
    cfg = config or RankingConfig(algorithm="rr")
    rep0 = _correlation_start(graph)

    damping = np.ones(graph.num_users)
    if use_damping:
        logk = np.log10(graph.user_degrees.astype(np.float64))
        top = logk.max() if logk.size else 0.0
        damping = logk / top if top > 0 else np.zeros_like(logk)

    item_starts = graph.item_ptr[:-1]
    users_by_item = graph.users[graph.by_item]

    def step(q, rep):
        if use_penalty:
            # scale only where the weighted mean applied: reputations are
            # non-negative, so a zero top rater reputation means zero total
            # weight and the item already holds its plain-mean fallback
            penalty = np.maximum.reduceat(rep[users_by_item], item_starts)
            pos = penalty > 0
            np.minimum(penalty, 1.0, out=penalty)
            q[pos] *= penalty[pos]

        trust = np.maximum(_pearson_by_user(graph, q), 0.0) * damping
        powered = trust ** cfg.theta
        mass = powered.sum()
        rep = powered * (trust.sum() / mass) if mass > 0 else np.zeros_like(trust)
        return q, rep

    return _fixed_point(graph, cfg, rep0, step, trace)


def rank(graph: RatingGraph, config: RankingConfig) -> RankingResult:
    """Dispatch on config.algorithm."""
    if config.algorithm == "mean":
        return rank_mean(graph)
    rankers = {"ir": rank_ir, "cr": rank_cr, "rr": rank_rr}
    return rankers[config.algorithm](graph, config)
