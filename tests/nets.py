"""Random small graphs for tests, every user and item carrying >= 1 link,
and the rankers' shared fixed point on one graph."""

import numpy as np

from reprank.graph import RatingGraph
from reprank.ranking import _fixed_point


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


def fixed_point(graph, config, **kw):
    """One graph through ranking._fixed_point, for the keywords that only it
    takes: trace, and rr's use_penalty and use_damping."""
    return _fixed_point(config, graph, [graph.rating_classes], **kw)[0]
