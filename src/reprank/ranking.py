"""Reputation/quality ranking algorithms on bipartite rating networks.

Four methods share one synchronous fixed-point schedule:

  mean  quality = plain mean rating, reputations all 1, no iteration
  ir    reputation = (user MSE against current qualities + eps)^(-beta)
  cr    reputation = Pearson correlation between a user's ratings and the
        current qualities of the items they rated (negative values clamped)
  rr    cr extended with a penalty factor (item quality scaled by the top
        rater reputation, capped at 1), a log-degree damping factor, and a
        nonlinear redistribution of reputation mass with exponent theta

All four run in one driver, `_fixed_point`: mean returns its plain means,
ir, cr and rr iterate. Each iteration weights the ratings by the previous
reputations into item qualities (an item whose raters all carry zero
reputation keeps its plain mean), then calls the algorithm's
step(cfg, cols, q, rep) -> (q, rep) on the running columns' `_Columns` cols:
it may adjust the qualities (rr's penalty) and returns the new reputations.
Iteration stops when the mean squared change of the quality vector drops
below delta; a step that yields a non-finite quality or reputation is an
error. An item whose positive-reputation raters all gave rating r has
quality exactly r before rr's penalty. Every ranker needs each user and item
to carry a link (`_operators` raises ValueError otherwise).

Sums run over (node, class) pairs, the classes being a graph's distinct
ratings: `_operators` builds (item, class) pairs x users and (user, class)
pairs x items, 1 per link, a node's pairs in the order of their first
links. The loop runs K columns, each a set of class values grouping the
links alike (a `rank_projections` chunk); each stops at its own convergence.
Each operation acts on each column alone (scipy's sparse products sum a
column as a single-vector product does, and rows are summed C-ordered), so
a column's result is exactly that of the K = 1 run `rank` makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np
import scipy.sparse as sp

from .graph import RatingGraph, _is_int, _is_real, _require
from .projection import ProjectionParams, project_classes

ALGORITHMS = ("mean", "ir", "cr", "rr")
CHUNK = 10      # most projections ranked at once; memory grows as pairs x K
_BLOCK = 1 << 16    # links per block of rr's penalty gather


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
        for name in ("beta", "epsilon", "theta", "delta"):
            _require(_is_real(getattr(self, name)), f"{name} must be a number")
        _require(0 <= self.beta < np.inf, "beta must be finite and >= 0")
        _require(0 < self.epsilon < np.inf, "epsilon must be finite and > 0")
        _require(0 < self.theta < np.inf, "theta must be finite and > 0")
        _require(0 < self.delta < np.inf, "delta must be finite and > 0")
        _require(_is_int(self.max_iterations) and self.max_iterations >= 1,
                 "max_iterations must be an integer >= 1")


@dataclass(frozen=True)
class RankingResult:
    reputations: np.ndarray   # per user
    qualities: np.ndarray     # per item
    iterations_used: int
    converged: bool
    final_residual: float


class _Side(NamedTuple):
    """(node, class) pairs x the other side's nodes, 1 per link; node x its
    pairs, 1 per pair; and each pair's node, class and link count."""
    pairs: sp.csr_array
    nodes: sp.csr_array
    node: np.ndarray
    cls: np.ndarray
    count: np.ndarray


def _side(node, n_nodes, other, n_other, classes, ones) -> _Side:
    n, idx = node.size, (np.int32 if node.size < 2**31 else np.int64)
    key = node.astype(np.int64) * classes.values.size + classes.labels
    if key.max() > 4 * n:       # many classes: number the pairs that occur
        key = np.unique(key, return_inverse=True)[1]
    first = np.full(key.max() + 1, n, dtype=idx)
    np.minimum.at(first, key, np.arange(n, dtype=idx))
    first = first[first < n]
    first = first[np.lexsort((first, node[first]))]  # by node, then first link
    row = np.empty(key.max() + 1, dtype=idx)
    row[key[first]] = np.arange(first.size)
    key = row[key]          # each link's pair row; the pair keys are freed
    pairs = sp.csr_array((np.ones(n, np.uint8), (key, other)),
                         shape=(first.size, n_other))
    pairs.data = ones   # built on 1-byte data; one array for every grouping
    starts = np.searchsorted(node[first], np.arange(n_nodes + 1)).astype(idx)
    nodes = sp.csr_array((ones[:first.size], np.arange(first.size, dtype=idx),
                          starts), shape=(n_nodes, first.size))
    nodes.data = ones[:first.size]      # scipy copies the slice it is given
    return _Side(pairs, nodes, node[first], classes.labels[first],
                 np.diff(pairs.indptr).astype(np.float64))


def _operators(g: RatingGraph, classes) -> tuple[_Side, _Side]:
    """The item and user sides of `classes`' grouping of g's links, built
    once per grouping after the coverage check; one ones array per root."""
    if "operators" not in classes.cache:
        _require(g.num_links > 0, "the graph has no ratings")
        _require((g.user_degrees > 0).all(),
                 "every user must have rated at least one item")
        _require(np.bincount(g.items, minlength=g.num_items).all(),
                 "every item must have at least one rating")
        if "ones" not in (cache := classes.cache.get("root", classes.cache)):
            cache["ones"] = np.ones(g.num_links)
        sides = ((g.items, g.num_items, g.users, g.num_users),
                 (g.users, g.num_users, g.items, g.num_items))
        classes.cache["operators"] = tuple(_side(*s, classes, cache["ones"])
                                           for s in sides)
    return classes.cache["operators"]


def _class_means(side, v, w):
    """Per column and node (K x nodes), the mean of the pair values v
    weighted by the pair weights w (both pairs x K), exactly v where a single
    pair carries weight; and the number of pairs that carry weight."""
    pos = w > 0
    tot, n = (side.nodes @ w).T, (side.nodes @ pos).T
    wv, one = (side.nodes @ (w * v)).T, (side.nodes @ (pos * v)).T
    mean = np.divide(wv, tot, out=np.zeros_like(wv), where=tot > 0)
    return np.where(n == 1, one, mean), n


class _Columns:
    """K sets of class values grouping a graph's links alike, a column each
    (a row of every K x n array), and what follows from them alone."""

    def __init__(self, graph: RatingGraph, cells):
        self.graph, self.labels = graph, cells[0].labels
        self.items, self.users = items, users = _operators(graph, cells[0])
        self.values = np.array([c.values for c in cells])   # K x classes
        self.vi = self.values[:, items.cls].T               # item pairs x K
        self.plain = _class_means(items, self.vi, np.broadcast_to(
            items.count[:, None], self.vi.shape))[0]

    @cached_property
    def vu(self):                                       # user pairs x K
        return self.values[:, self.users.cls].T

    @cached_property
    def nv2(self):                              # ir's Σ n·v², K x users
        users = self.users
        return (users.nodes @ (users.count[:, None] * self.vu * self.vu)).T

    @cached_property
    def rating_side(self):
        """The Pearson's rating side, built on first use (by cr and rr): r̄,
        the centred class values (pairs x K), ss_r and the spread test."""
        users, n = self.users, self.users.count[:, None]
        rbar = (users.nodes @ (n * self.vu)).T / self.graph.user_degrees
        dv = self.vu - rbar.T[users.node]
        return (rbar, dv, (users.nodes @ (n * dv ** 2)).T,
                np.diff(users.nodes.indptr) > 1)

    @cached_property
    def damping(self):                  # rr's, per user: log k / max log k
        logk = np.log10(self.graph.user_degrees.astype(np.float64))
        return logk / logk.max() if logk.max() > 0 else np.zeros_like(logk)


def _weighted_quality(cols, rep):
    """Reputation-weighted mean rating per column and item; items whose
    raters carry zero total reputation keep the plain mean."""
    q, n = _class_means(cols.items, cols.vi, cols.items.pairs @ rep.T)
    return np.where(n > 0, q, cols.plain)


def _residual(q, q_prev):
    """Mean squared change between consecutive qualities, per row."""
    d = np.ascontiguousarray(q - q_prev)
    return np.sum(d * d, axis=-1) / d.shape[-1]


@np.errstate(over="ignore", invalid="ignore")
def _fixed_point(cfg, graph, cells) -> list:
    """The one place a RankingResult is made: one per rating classes in
    `cells`, each a column, all grouping graph's links alike.

    mean's are the plain means, reputations all 1, as 1 converged iteration.
    Each iteration of the others computes the qualities q weighted by the
    previous reputations, then takes its (qualities, reputations) from the step
    _STEPS[cfg.algorithm](cfg, cols, q, rep), cols the live columns. A
    non-finite value among them, such as an overflowing ir power, raises
    ValueError naming the algorithm and the iteration; numpy's overflow and
    invalid warnings are off, as that check reports what they would. A column
    stops once the residual between its consecutive qualities drops below
    cfg.delta, or after cfg.max_iterations, and the rest run on a rebuilt
    _Columns; with a single iteration the residual is unknown (inf), so no
    column stops there alone.
    """
    name, K = cfg.algorithm, len(cells)
    cols = _Columns(graph, cells)                       # checks the coverage
    if name == "mean":
        return [RankingResult(np.ones(graph.num_users), q.copy(), 1, True, 0.0)
                for q in cols.plain]
    out, live = [None] * K, np.arange(K)
    rep = np.tile(np.ones(graph.num_users) if name == "ir"
                  else graph.user_degrees / graph.num_items, (K, 1))
    for iterations in range(1, cfg.max_iterations + 1):
        q, rep = _STEPS[name](cfg, cols, _weighted_quality(cols, rep), rep)
        if not (np.isfinite(q).all() and np.isfinite(rep).all()):
            raise ValueError(f"{name} iteration {iterations} gave a "
                             "non-finite quality or reputation")
        res = _residual(q, q_prev) if iterations > 1 else np.full(K, np.inf)
        conv = res < cfg.delta
        end = conv | (iterations == cfg.max_iterations)
        for j in np.flatnonzero(end):
            out[live[j]] = RankingResult(rep[j].copy(), q[j].copy(),
                                         iterations, bool(conv[j]),
                                         float(res[j]))
        if end.all():
            return out
        if end.any():
            live, q, rep = (a[~end] for a in (live, q, rep))
            cols = _Columns(graph, [cells[j] for j in live])
        q_prev = q


def _user_sums(cols, q):
    """Σq per (user, class) pair (pairs x K) and Σq² per column and user."""
    users = cols.users
    return users.pairs @ q.T, (users.nodes @ (users.pairs @ (q * q).T)).T


def _user_links(cols, q, col, u):
    """The exact path's gather for users u, each in its column col: their
    link ratings and the qualities of the items they rated, user by user in
    link order, and the users x links operator that sums each user's links."""
    graph, k = cols.graph, cols.graph.user_degrees[u]
    ptr = np.append(0, np.cumsum(k))
    at = np.arange(ptr[-1]) + np.repeat(graph.user_ptr[u] - ptr[:-1], k)
    cc = np.repeat(col, k)
    L = sp.csr_array((np.ones(at.size), np.arange(at.size), ptr))
    return cols.values[cc, cols.labels[at]], q[cc, graph.items[at]], L


def _ir_step(cfg, cols, q, rep):
    """ir's error per user, Σ(r - q)² = Σ n·v² - 2·Σ v·Σq + Σq² per pair;
    users where that is at most 1e-2·Σ n·v² take the exact path's link sum."""
    t, s2 = _user_sums(cols, q)
    err = cols.nv2 - 2 * (cols.users.nodes @ (cols.vu * t)).T + s2
    col, u = np.nonzero(err <= 1e-2 * cols.nv2)
    if u.size:
        r, rq, L = _user_links(cols, q, col, u)
        err[col, u] = L @ ((r - rq) ** 2)
    return q, (err / cols.graph.user_degrees + cfg.epsilon) ** (-cfg.beta)


def _pearson(cols, q):
    """Per-column, per-user Pearson correlation of (ratings, qualities q).

    The rating side (class values centred per user, their sum of squares and
    the spread test) is cols.rating_side. The quality side comes from raw
    moments per (user, class) pair, with no per-link gather: the numerator is
    Σ (v - r̄)·Σq over the pairs (centred ratings sum to 0), and ss_q = Σq² −
    (Σq)²/k, exact to about k·eps·Σq². Users with ss_q <= 1e-2·Σq² take the
    exact two-pass path on their own links: qualities centred before the
    products, and tested for constancy exactly, max == min, as mean
    subtraction alone cannot certify zero variance in floating point. The
    bound is far above k·eps at any degree (1.2e-13 at 530, the paper-scale
    maximum), so users with constant qualities take that path, and the raw
    moments' relative error stays below k·eps/1e-2 for the rest. Degenerate
    users (either vector constant) get 0.
    """
    k, users = cols.graph.user_degrees, cols.users
    rbar, dv, ss_r, spread = cols.rating_side
    t, s2 = _user_sums(cols, q)
    s1, num = (users.nodes @ t).T, (users.nodes @ (dv * t)).T
    ss_q = s2 - s1 * s1 / k
    good = spread & (ss_q > 1e-2 * s2)
    col, u = np.nonzero(spread & ~good)
    if u.size:      # the exact two-pass path, on these users' links
        kc = k[u]
        r, dq, L = _user_links(cols, q, col, u)
        good[col, u] = (np.maximum.reduceat(dq, L.indptr[:-1])
                        > np.minimum.reduceat(dq, L.indptr[:-1]))
        dq -= np.repeat(L @ dq / kc, kc)
        num[col, u] = L @ ((r - np.repeat(rbar[col, u], kc)) * dq)
        ss_q[col, u] = L @ (dq * dq)
    den = np.sqrt(np.where(good, ss_r * ss_q, 0.0))
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0.0)
    return np.clip(out, -1.0, 1.0, out=out)


def _cr_step(cfg, cols, q, rep):
    """Kept as its own step rather than a stripped rr's, so the
    claimed degeneracy (rr with both factors off and theta 1) stays a
    cross-check between two code paths."""
    return q, np.maximum(_pearson(cols, q), 0.0)


def _rr_penalty(cols, q, rep):
    """q scaled in place by min(1, top rater reputation), gathered a column and
    about _BLOCK links of whole items at a time into one buffer ("clip" takes
    without a copy), where positive: reputations are non-negative, so a zero
    top rater leaves the plain mean standing."""
    raters = cols.items.pairs.indices       # each item's, pair by pair
    starts = cols.items.pairs.indptr[cols.items.nodes.indptr]  # and end
    cut = np.unique(np.searchsorted(    # block k: items cut[k]:cut[k+1]
        starts, np.r_[0:raters.size:_BLOCK, raters.size]))
    at, penalty = starts[cut], np.empty_like(q)
    buf = np.empty(np.diff(at).max())   # block k's links: at[k]:at[k+1]
    for r, p in zip(rep, penalty):
        for i, j, a, b in zip(cut[:-1], cut[1:], at[:-1], at[1:]):
            np.take(r, raters[a:b], out=buf[:b - a], mode="clip")
            np.maximum.reduceat(buf[:b - a], starts[i:j] - a, out=p[i:j])
    pos = penalty > 0
    q[pos] *= np.minimum(penalty[pos], 1.0)
    return q


def _rr_step(cfg, cols, q, rep):
    """rr's step; its trust is C-ordered, so a row sums as a lone vector.

    Quality is the reputation-weighted mean scaled by the penalty factor
    min(1, top rater reputation), so full rr qualities stay within [0, 5].
    The cap is needed because the redistribution preserves only the total
    reputation mass, so single reputations can exceed 1; uncapped, the
    factor would boost the items of the top user, whose trust is then
    measured against those boosted qualities. Trust is log-degree-damped
    Pearson correlation, clamped at 0; reputation mass is then
    redistributed through the power theta. With the penalty and the
    damping off, theta 1 reproduces cr.
    """
    q = _rr_penalty(cols, q, rep)
    trust = np.maximum(_pearson(cols, q), 0.0, order="C") * cols.damping
    powered = trust ** cfg.theta
    mass = powered.sum(axis=1, keepdims=True)
    return q, powered * np.divide(trust.sum(axis=1, keepdims=True), mass,
                                  out=np.zeros_like(mass), where=mass > 0)


_STEPS = {"ir": _ir_step, "cr": _cr_step, "rr": _rr_step}


def rank_projections(graph: RatingGraph, config: RankingConfig,
                     params) -> Iterator[tuple[int, RankingResult]]:
    """(index, rank(project_graph(graph, params[index]))) for each params,
    bit for bit. Cells whose projections group the links alike run as one
    K-column _fixed_point, CHUNK at a time; each chunk's results are yielded
    as it finishes, so no more than one chunk's are alive at once."""
    groups = {}
    for i, p in enumerate(params):
        classes = project_classes(graph.rating_classes, p)
        groups.setdefault(id(classes.cache), []).append((i, classes))
    for group in groups.values():
        for s in range(0, len(group), CHUNK):
            at, cells = zip(*group[s:s + CHUNK])
            yield from zip(at, _fixed_point(config, graph, cells))


def rank(graph: RatingGraph, config: RankingConfig) -> RankingResult:
    """Rank graph's items and users with config.algorithm."""
    return next(rank_projections(graph, config, [ProjectionParams()]))[1]
