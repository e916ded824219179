"""Artificial rating-network generator with controlled noise and spam.

Pipeline: a preferential-attachment bipartite topology, hidden ground
truth (per-item intrinsic quality, per-user error magnitude), a noisy
rating model discretized under one of five confusion cases, and optional
random spam injection. Every stage takes an explicit numpy Generator so a
single seed reproduces the whole network.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .graph import (RatingGraph, _is_int, _is_real, _node_indices,
                    _open_text, _require)

CASES = (0, 1, 2, 3, 4)

Q_MIN, Q_MAX = 1.0, 5.0
DELTA_MIN, DELTA_MAX = 0.0, 4.0

# confusion band per case: every raw value that case 0 rates as either of
# the two adjacent integer ratings (ends closed) collapses onto a coin flip
# between them; the outer bands are open-ended because case 0 rates every
# raw value below 1.5 as 1 and every one from 4.5 up as 5
_BANDS = {
    1: (-np.inf, 2.5, 1.0, 2.0),
    2: (1.5, 3.5, 2.0, 3.0),
    3: (2.5, 4.5, 3.0, 4.0),
    4: (3.5, np.inf, 4.0, 5.0),
}

_URN_CHUNK = 1 << 17


class TruthFormatError(ValueError):
    """Persisted ground truth cannot be parsed."""


@dataclass(frozen=True)
class SynthSpec:
    num_users: int = 6000
    num_items: int = 4000
    num_links: int = 480_000
    case: int = 0
    spam_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _require(all(map(_is_int, (self.num_users, self.num_items,
                                   self.num_links, self.seed))),
                 "num_users, num_items, num_links and seed must be integers")
        _require(self.num_users >= 1 and self.num_items >= 1,
                 "need at least one user and one item")
        _require(0 <= self.num_links <= self.num_users * self.num_items,
                 "num_links must be in [0, num_users * num_items]")
        _require(_is_int(self.case) and self.case in CASES,
                 f"case must be one of {CASES}")
        _require(_is_real(self.spam_fraction)
                 and 0.0 <= self.spam_fraction <= 1.0,
                 "spam_fraction must be in [0, 1]")
        _require(self.seed >= 0, "seed must be >= 0")


@dataclass(frozen=True)
class SynthTruth:
    """Hidden ground truth behind a synthetic network."""

    intrinsic_quality: np.ndarray   # per item
    error_magnitude: np.ndarray     # per user, std dev of rating noise

    def __post_init__(self):
        q = np.asarray(self.intrinsic_quality, dtype=np.float64)
        e = np.asarray(self.error_magnitude, dtype=np.float64)
        _require(q.size > 0 and e.size > 0, "empty truth")
        _require(q.ndim == 1 and e.ndim == 1, "truth vectors must be 1-D")
        _require(np.isfinite(q).all() and np.isfinite(e).all(),
                 "truth vectors must be finite")
        _require(e.min() >= 0, "error magnitudes must be >= 0")
        q.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "intrinsic_quality", q)
        object.__setattr__(self, "error_magnitude", e)

    @property
    def num_items(self) -> int:
        return int(self.intrinsic_quality.size)

    @property
    def num_users(self) -> int:
        return int(self.error_magnitude.size)


def generate_topology(
    spec: SynthSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (user, item) pairs grown by preferential attachment.

    Both endpoints of each new link are sampled with probability
    proportional to (degree + 1); a duplicate pair discards both draws and
    resamples. The +1 smoothing makes the process well defined at degree 0
    without seeding initial edges. Each urn holds every node once, then
    one entry per link: the urns' tails are the links. Draws: one pair of
    doubles (user, item) per attempt from consecutive
    rng.random(_URN_CHUNK) blocks, the rest of the last block discarded;
    0 links and the complete graph draw nothing.

    Duplicates are found on a bitmap of one bit per possible pair (3 MiB
    at paper scale), or on a set of the links' keys (about 64 bytes per
    link) where num_users * num_items > 512 * num_links, so the check
    takes at most about 64 bytes per link; the links are the same either way.
    """
    n_u, n_i, n_l = map(int, (spec.num_users, spec.num_items, spec.num_links))
    idx = np.int32 if max(n_u, n_i) < 2**31 else np.int64
    if n_l == n_u * n_i:
        return (np.repeat(np.arange(n_u, dtype=idx), n_i),
                np.tile(np.arange(n_i, dtype=idx), n_u))

    user_urn = list(range(n_u))
    item_urn = list(range(n_i))
    dense = n_u * n_i <= 512 * n_l
    bits = bytearray((n_u * n_i + 7) >> 3 if dense else 0)
    seen: set[int] = set()
    see, add_u, add_i = seen.add, user_urn.append, item_urn.append
    ulen, ilen, stop, draws = n_u, n_i, n_u + n_l, None
    while ulen < stop:
        draws = iter(rng.random(_URN_CHUNK).tolist())
        for bu, bi in zip(draws, draws):
            x, y = int(bu * ulen), int(bi * ilen)
            u = user_urn[x if x < ulen else ulen - 1]
            i = item_urn[y if y < ilen else ilen - 1]
            key = u * n_i + i
            if dense:
                b, m = key >> 3, 1 << (key & 7)
                if bits[b] & m:
                    continue
                bits[b] |= m
            elif key in seen:
                continue
            else:
                see(key)
            add_u(u)
            add_i(i)
            ulen += 1
            ilen += 1
            if ulen == stop:
                break

    del draws, bits, seen   # the last draw block and the duplicate check
    return (np.array(user_urn, dtype=idx)[n_u:],
            np.array(item_urn, dtype=idx)[n_i:])


def generate_truth(spec: SynthSpec, rng: np.random.Generator) -> SynthTruth:
    """Intrinsic qualities uniform on [Q_MIN, Q_MAX) and per-user error
    magnitudes uniform on [DELTA_MIN, DELTA_MAX)."""
    q = rng.uniform(Q_MIN, Q_MAX, spec.num_items)
    e = rng.uniform(DELTA_MIN, DELTA_MAX, spec.num_users)
    return SynthTruth(q, e)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round would round halves to even
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def generate_ratings(
    edges: tuple[np.ndarray, np.ndarray],
    truth: SynthTruth,
    case: int,
    rng: np.random.Generator,
) -> RatingGraph:
    """Discretized noisy ratings on a fixed topology.

    Raw rating = intrinsic quality + Normal(0, error magnitude of the
    user). Case 0 rounds to the nearest integer (halves away from zero)
    and truncates to [1, 5]; cases 1-4 first send raw values inside the
    case's confusion band to a fair coin flip between the band's two
    integer ratings. The band is every raw value that case 0 rates as
    either of those two ratings, with both ends closed, so case 1 takes
    everything up to 2.5 and case 4 everything from 3.5 up. The coin
    flips are drawn for every case, including case 0, so networks
    generated from the same seed differ across cases only in the
    discretization step.
    """
    _require(_is_int(case) and case in CASES, f"case must be one of {CASES}")
    users, items = map(_node_indices, edges)
    _require(not users.size or (users.max() < truth.num_users
                                and items.max() < truth.num_items),
             "edge index out of range for the given truth")

    raw = rng.standard_normal(users.size)
    raw *= truth.error_magnitude[users]
    raw += truth.intrinsic_quality[items]
    coins = rng.random(users.size) < 0.5

    ratings = np.clip(_round_half_away(raw), 1.0, 5.0)
    if case != 0:
        lo, hi, low_val, high_val = _BANDS[case]
        band = (raw >= lo) & (raw <= hi)
        ratings[band] = np.where(coins[band], low_val, high_val)
    del raw, coins      # build's sort holds four link-length arrays of its own
    return RatingGraph.build(truth.num_users, truth.num_items,
                             users, items, ratings)


def inject_spam(
    graph: RatingGraph, p: float, rng: np.random.Generator
) -> RatingGraph:
    """Replace floor(p * num_links) randomly chosen ratings with uniform
    random integers in {1..5}. Topology untouched."""
    _require(_is_real(p) and 0.0 <= p <= 1.0,
             "spam fraction must be in [0, 1]")
    # +1e-9 guards against p * L landing just below an exact integer
    n = int(np.floor(p * graph.num_links + 1e-9))
    if n == 0:
        return graph
    idx = rng.choice(graph.num_links, size=n, replace=False)
    ratings = graph.ratings.copy()
    ratings[idx] = rng.integers(1, 6, size=n).astype(np.float64)
    return graph.with_ratings(ratings)


def _compact(edges: tuple, truth: SynthTruth) -> tuple[tuple, SynthTruth]:
    """Drop zero-degree users and items from links and truth; preferential
    attachment can leave a few nodes untouched and every ranker requires
    every node to carry at least one link. Relabelling keeps node order,
    so the canonical (user, item) link order holds."""
    users, items = edges
    keep_u = np.bincount(users, minlength=truth.num_users) > 0
    keep_i = np.bincount(items, minlength=truth.num_items) > 0
    if keep_u.all() and keep_i.all():
        return edges, truth
    new_u = np.cumsum(keep_u, dtype=users.dtype) - 1
    new_i = np.cumsum(keep_i, dtype=items.dtype) - 1
    return ((new_u[users], new_i[items]),
            SynthTruth(truth.intrinsic_quality[keep_i],
                       truth.error_magnitude[keep_u]))


def generate_network(
    spec: SynthSpec, rng: np.random.Generator | None = None
) -> tuple[RatingGraph, SynthTruth]:
    """Full pipeline: topology, truth, compaction, ratings, spam.

    Draw order is fixed (topology, truth, noise, coins, spam) so a seed
    pins the entire realization; compaction draws nothing. The returned
    graph has no zero-degree nodes; the truth vectors are filtered to
    match its index space.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    edges = generate_topology(spec, rng)
    edges, truth = _compact(edges, generate_truth(spec, rng))
    graph = generate_ratings(edges, truth, spec.case, rng)
    if spec.spam_fraction > 0:
        graph = inject_spam(graph, spec.spam_fraction, rng)
    return graph, truth


def write_truth(truth: SynthTruth, dest: str | Path | TextIO) -> None:
    """Persist ground truth as JSON; floats round-trip exactly."""
    payload = {
        "intrinsic_quality": truth.intrinsic_quality.tolist(),
        "error_magnitude": truth.error_magnitude.tolist(),
    }
    with _open_text(dest, "w") as fh:
        json.dump(payload, fh)


def read_truth(source: str | Path | TextIO) -> SynthTruth:
    with _open_text(source) as fh:
        text = "".join(fh)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TruthFormatError(
            f"malformed truth file at offset {exc.pos}: {exc.msg}"
        ) from None
    if not isinstance(payload, dict):
        raise TruthFormatError("truth file must hold a JSON object")
    try:
        q = payload["intrinsic_quality"]
        e = payload["error_magnitude"]
    except KeyError as exc:
        raise TruthFormatError(f"truth file missing key {exc.args[0]!r}") from None
    if not (_numbers(q) and _numbers(e)):
        raise TruthFormatError("truth vectors must hold numbers")
    return SynthTruth(q, e)


def _numbers(v) -> bool:
    """Whether every leaf of a parsed JSON value is a number, not a bool;
    nested lists pass, for SynthTruth's 1-D check to name them."""
    return all(map(_numbers, v)) if isinstance(v, list) else _is_real(v)
