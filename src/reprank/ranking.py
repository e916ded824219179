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
penalty) and returns the new reputations. Iteration stops when the mean
squared change of the quality vector drops below delta; a step that yields
a non-finite quality or reputation is an error. An item whose ratings are
all r has quality exactly r before rr's penalty, whatever the reputations.

Every ranker needs each user and each item to carry at least one link: a
user without ratings has no reputation and an item without raters no
quality. `_operators` checks this and raises ValueError.

Per-user and per-item sums are products with CSR operators on the graph's
`user_ptr` (`_operators`, cached with the topology): Aᵀ·y sums y over each
item's raters, and one on A's pattern holding a per-link v sums v over each
user's links, both in link order, as a sequential scan would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
        _require(0 <= self.beta < np.inf, "beta must be finite and >= 0")
        _require(0 < self.epsilon < np.inf, "epsilon must be finite and > 0")
        _require(0 < self.theta < np.inf, "theta must be finite and > 0")
        _require(0 < self.delta < np.inf, "delta must be finite and > 0")
        _require(self.max_iterations >= 1, "max_iterations must be >= 1")


@dataclass(frozen=True)
class RankingResult:
    reputations: np.ndarray   # per user
    qualities: np.ndarray     # per item
    iterations_used: int
    converged: bool
    final_residual: float


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _like(op, values):
    """A CSR operator with op's pattern on a view of the per-link `values`."""
    return sp.csr_array((values, op.indices, op.indptr), shape=op.shape)


@dataclass(frozen=True)
class _Operators:
    A: sp.csr_array          # user x item, 1 per link
    At: sp.csc_array         # its transpose: Aᵀ·y sums y per item
    Rt: sp.csc_array         # item x user, the ratings
    plain_mean: np.ndarray   # mean rating per item
    constant: np.ndarray     # the items whose ratings are all equal


def _operators(graph: RatingGraph) -> _Operators:
    """Every ranker's operators. A and the rater counts are cached with the
    topology after the coverage check; the rest is built from the ratings."""
    if "A" not in graph._topology:
        _require(graph.num_links > 0, "the graph has no ratings")
        _require((graph.user_degrees > 0).all(),
                 "every user must have rated at least one item")
        A = sp.csr_array((np.ones(graph.num_links), graph.items, graph.user_ptr),
                         shape=(graph.num_users, graph.num_items))
        counts = A.T @ np.ones(graph.num_users)
        _require((counts > 0).all(), "every item must have at least one rating")
        graph._topology["A"] = A, counts
    A, counts = graph._topology["A"]
    hi, lo = np.full((2, graph.num_items), [[-np.inf], [np.inf]])
    np.maximum.at(hi, graph.items, graph.ratings)
    np.minimum.at(lo, graph.items, graph.ratings)
    constant = np.flatnonzero(hi == lo)
    Rt = _like(A, graph.ratings).T
    plain_mean = Rt @ np.ones(graph.num_users) / counts
    plain_mean[constant] = hi[constant]
    return _Operators(A, A.T, Rt, plain_mean, constant)


def _weighted_quality(ops, rep):
    """Reputation-weighted mean rating per item; items whose raters carry
    zero total reputation, and constant-rating items, keep the plain mean."""
    wtot = ops.At @ rep
    q = ops.plain_mean.copy()
    np.divide(ops.Rt @ rep, wtot, out=q, where=wtot > 0)
    q[ops.constant] = ops.plain_mean[ops.constant]
    return q


def rank_mean(graph: RatingGraph) -> RankingResult:
    """Quality = arithmetic mean rating; every reputation is 1."""
    return RankingResult(np.ones(graph.num_users),
                         _operators(graph).plain_mean, 1, True, 0.0)


def _residual(q, q_prev) -> float:
    """Mean squared change between consecutive quality vectors."""
    d = q - q_prev
    return float(np.sum(d * d) / q.size)


@np.errstate(over="ignore", invalid="ignore")
def _fixed_point(name, ops, cfg, rep, step, trace=None) -> RankingResult:
    """The schedule shared by ir, cr and rr.

    Starting from the reputations `rep`, each iteration computes the
    reputation-weighted qualities q from the previous reputations, then
    calls step(q, rep), which returns this iteration's (qualities,
    reputations). A non-finite value among them, such as an overflowing
    ir power, raises ValueError naming algorithm `name` and the iteration;
    numpy's overflow and invalid warnings are off, as that check reports
    what they would. Iteration stops once the residual between consecutive
    qualities drops below cfg.delta, or after cfg.max_iterations; with a
    single iteration the residual is unknown (inf). `trace`, if given,
    collects (qualities, reputations) copies. cfg must be for `name`.
    """
    _require(cfg.algorithm == name,
             f"rank_{name} was given a config for {cfg.algorithm!r}")
    res = float("inf")
    for iterations in range(1, cfg.max_iterations + 1):
        q = _weighted_quality(ops, rep)
        q, rep = step(q, rep)
        if not (np.isfinite(q).all() and np.isfinite(rep).all()):
            raise ValueError(f"{name} iteration {iterations} gave a "
                             "non-finite quality or reputation")
        if trace is not None:
            trace.append((q.copy(), rep.copy()))
        if iterations > 1:
            res = _residual(q, q_prev)
            if res < cfg.delta:
                return RankingResult(rep, q, iterations, True, res)
        q_prev = q
    return RankingResult(rep, q, iterations, False, res)


def rank_ir(graph: RatingGraph, config: RankingConfig | None = None) -> RankingResult:
    """Iterative refinement: reputation is an inverse power of rating MSE."""
    cfg = config or RankingConfig(algorithm="ir")
    ops = _operators(graph)
    d = np.empty(graph.num_links)
    D = _like(ops.A, d)     # a view of d: D @ ones sums d per user, per step

    def step(q, _):
        np.subtract(graph.ratings, q[graph.items], out=d)
        np.multiply(d, d, out=d)
        mse = D @ np.ones(graph.num_items) / graph.user_degrees
        return q, (mse + cfg.epsilon) ** (-cfg.beta)

    return _fixed_point("ir", ops, cfg, np.ones(graph.num_users), step)


def _pearson_by_user(graph, ops):
    """Per-user Pearson correlation of (ratings, item qualities).

    The rating side (centred ratings on A's pattern, DR, their sum of
    squares and the spread test) is fixed for the graph and computed here
    once. corr(q) takes the quality side from raw moments, with no per-link
    gather: DR·q (centred ratings sum to 0), Σq = A·q and Σq² = A·q², so
    ss_q = Σq² − (Σq)²/k, exact to about k·eps·Σq². Users with ss_q <=
    1e-2·Σq² take the exact two-pass path on their own links: qualities
    centred before the products, and tested for constancy exactly, max ==
    min, as mean subtraction alone cannot certify zero variance in floating
    point. The bound is far above k·eps at any degree (1.2e-13 at 530, the
    paper-scale maximum), so users with constant qualities take that path,
    and the raw moments' relative error stays below k·eps/1e-2 for the
    rest. Degenerate users (either vector constant) get 0.
    """
    k = graph.user_degrees
    starts = graph.user_ptr[:-1]
    r = graph.ratings
    ones = np.ones(graph.num_items)     # A-pattern op @ ones: sums per user
    DR = _like(ops.A, r - np.repeat(ops.Rt.T @ ones / k, k))   # centred
    ss_r = _like(ops.A, DR.data * DR.data) @ ones
    r_spread = np.maximum.reduceat(r, starts) > np.minimum.reduceat(r, starts)

    def corr(q):
        s1, s2 = ops.A @ q, ops.A @ (q * q)
        ss_q = s2 - s1 * s1 / k
        num = DR @ q
        good = r_spread & (ss_q > 1e-2 * s2)
        c = np.flatnonzero(r_spread & ~good)
        if c.size:      # the exact two-pass path, on these users' links
            kc = k[c]
            ptr = np.append(0, np.cumsum(kc))
            at = np.arange(ptr[-1]) + np.repeat(starts[c] - ptr[:-1], kc)
            L = sp.csr_array((np.ones(at.size), np.arange(at.size), ptr))
            dq = q[graph.items[at]]
            good[c] = (np.maximum.reduceat(dq, ptr[:-1])
                       > np.minimum.reduceat(dq, ptr[:-1]))
            dq -= np.repeat(L @ dq / kc, kc)
            num[c] = L @ (DR.data[at] * dq)
            ss_q[c] = L @ (dq * dq)
        den = np.sqrt(np.where(good, ss_r * ss_q, 0.0))
        out = np.zeros(graph.num_users)
        np.divide(num, den, out=out, where=den > 0.0)
        np.clip(out, -1.0, 1.0, out=out)
        return out

    return corr


def _correlation_start(graph: RatingGraph):
    """cr and rr's operators, corr(q) and initial reputations, each user's
    degree over the item count."""
    ops = _operators(graph)
    return (ops, _pearson_by_user(graph, ops),
            graph.user_degrees / graph.num_items)


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
    ops, corr, rep0 = _correlation_start(graph)

    def step(q, _):
        return q, np.maximum(corr(q), 0.0)

    return _fixed_point("cr", ops, cfg, rep0, step, trace)


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
    ops, corr, rep0 = _correlation_start(graph)
    if "raters" not in graph._topology:     # each item's, in link order
        graph._topology["raters"] = ops.At.tocsr()
    raters = graph._topology["raters"]

    damping = np.ones(graph.num_users)
    if use_damping:
        logk = np.log10(graph.user_degrees.astype(np.float64))
        top = logk.max()
        damping = logk / top if top > 0 else np.zeros_like(logk)

    def step(q, rep):
        if use_penalty:
            # scale only where the weighted mean applied: reputations are
            # non-negative, so a zero top rater reputation means zero total
            # weight and the item already holds its plain-mean fallback
            penalty = np.maximum.reduceat(rep[raters.indices],
                                          raters.indptr[:-1])
            pos = penalty > 0
            q[pos] *= np.minimum(penalty[pos], 1.0)

        trust = np.maximum(corr(q), 0.0) * damping
        powered = trust ** cfg.theta
        mass = powered.sum()
        rep = powered * (trust.sum() / mass) if mass > 0 else np.zeros_like(trust)
        return q, rep

    return _fixed_point("rr", ops, cfg, rep0, step, trace)


def rank(graph: RatingGraph, config: RankingConfig) -> RankingResult:
    """Dispatch on config.algorithm."""
    if config.algorithm == "mean":
        return rank_mean(graph)
    rankers = {"ir": rank_ir, "cr": rank_cr, "rr": rank_rr}
    return rankers[config.algorithm](graph, config)
