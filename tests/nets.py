"""Random small graphs for tests, every user and item carrying >= 1 link,
exact graph equality, and the rankers' shared fixed point on one graph."""

import numpy as np
import pytest

from reprank import ranking
from reprank.graph import RatingGraph


def random_bipartite(rng, max_users=50, max_items=20) -> RatingGraph:
    n_u = int(rng.integers(2, max_users + 1))
    n_i = int(rng.integers(2, max_items + 1))
    pairs = {(u, int(rng.integers(n_i))) for u in range(n_u)}
    for i in range(n_i):
        pairs.add((int(rng.integers(n_u)), i))
    for _ in range(int(rng.integers(0, n_u * n_i // 2 + 1))):
        pairs.add((int(rng.integers(n_u)), int(rng.integers(n_i))))
    users, items = zip(*sorted(pairs))
    ratings = rng.integers(1, 6, size=len(pairs)).astype(np.float64)
    return RatingGraph.build(n_u, n_i, users, items, ratings)


def equals(a: RatingGraph, b: RatingGraph) -> bool:
    """Exact equality: same shape, same links, bit-equal ratings."""
    return (a.num_users == b.num_users and a.num_items == b.num_items
            and np.array_equal(a.users, b.users)
            and np.array_equal(a.items, b.items)
            and np.array_equal(a.ratings, b.ratings))


def fixed_point(graph, config, trace=None, use_penalty=True,
                use_damping=True):
    """One graph through ranking._fixed_point, with hooks the program has no
    option for, each a substitution into ranking undone on exit, raise or
    not: `trace` collects each iteration's (qualities, reputations) copies
    through a wrapped step; use_penalty=False makes rr's penalty the
    identity, and use_damping=False its damping factor 1."""
    with pytest.MonkeyPatch.context() as mp:
        if trace is not None:
            step = ranking._STEPS[config.algorithm]

            def traced(cfg, cols, q, rep):
                q, rep = step(cfg, cols, q, rep)
                trace.append((q[0].copy(), rep[0].copy()))
                return q, rep

            mp.setitem(ranking._STEPS, config.algorithm, traced)
        if not use_penalty:
            mp.setattr(ranking, "_rr_penalty", lambda cols, q, rep: q)
        if not use_damping:
            mp.setattr(ranking._Columns, "damping", 1.0)
        return ranking._fixed_point(config, graph, [graph.rating_classes])[0]
