"""Nonlinear remapping of the 5-star rating scale.

Integer ratings 2 and 4 are displaced inside their neighbouring odd values
by two parameters in [0, 1]; ratings 1, 3, 5 are fixed points and
non-integer ratings pass through untouched. The midpoint (0.5, 0.5) is
the identity map, bit-exact in float64: 1 + 0.5*2 == 2 and 3 + 0.5*2 == 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import RatingClasses, RatingGraph


@dataclass(frozen=True)
class ProjectionParams:
    """Displacement parameters for ratings 2 and 4.

    p1 moves rating 2 within [1, 3]; p2 moves rating 4 within [3, 5].
    """

    p1: float = 0.5
    p2: float = 0.5

    def __post_init__(self):    # floats, so float32 input maps in float64
        for name, v in (("p1", self.p1), ("p2", self.p2)):
            if not (isinstance(v, (int, float, np.integer, np.floating))
                    and not isinstance(v, bool) and np.isfinite(v)):
                raise ValueError(f"{name} must be a finite number")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v:g} outside [0, 1]")
            object.__setattr__(self, name, float(v))


def project_rating(rating: float, params: ProjectionParams) -> float:
    """Remap a single rating. Exact comparison against the integer grid."""
    if not (1.0 <= rating <= 5.0):
        raise ValueError(f"rating out of bounds: {rating:g} not in [1, 5]")
    if rating == 2.0:
        return 1.0 + params.p1 * 2.0
    if rating == 4.0:
        return 3.0 + params.p2 * 2.0
    return float(rating)


def project_classes(classes: RatingClasses,
                    params: ProjectionParams) -> RatingClasses:
    """A projection's rating classes, from its source's: the source's own
    where no value moves; in O(classes) with the source's grouping and cache
    where no two classes merge; a merge (p1 or p2 at 0 or 1) regroups the
    links once, kept in the source's cache."""
    values = classes.values.copy()
    values[classes.values == 2.0] = 1.0 + params.p1 * 2.0
    values[classes.values == 4.0] = 3.0 + params.p2 * 2.0
    if np.array_equal(values, classes.values):
        return classes
    if (np.diff(values) > 0).all():
        return RatingClasses(values, classes.labels, classes.cache)
    values, remap = np.unique(values, return_inverse=True)
    key = remap.tobytes()
    if key not in classes.cache:
        labels = remap.astype(classes.labels.dtype)[classes.labels]
        classes.cache[key] = labels, {}
    return RatingClasses(values, *classes.cache[key])


def project_graph(graph: RatingGraph, params: ProjectionParams) -> RatingGraph:
    """Remap all link weights of a graph, as a `with_ratings` copy. One that
    moves no rating (the identity on any graph, or any projection of a graph
    without ratings 2 and 4) returns the source graph itself."""
    classes = project_classes(graph.rating_classes, params)
    return (graph if classes is graph.rating_classes
            else graph.with_ratings(classes.values.take(classes.labels)))
