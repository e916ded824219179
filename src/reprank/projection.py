"""Nonlinear remapping of the 5-star rating scale.

Integer ratings 2 and 4 are displaced inside their neighbouring odd values
by two parameters in [0, 1]; ratings 1, 3, 5 are fixed points and
non-integer ratings pass through untouched. The midpoint (0.5, 0.5) is
the identity map, bit-exact in float64: 1 + 0.5*2 == 2 and 3 + 0.5*2 == 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import RatingClasses, RatingGraph, _is_real, _require


@dataclass(frozen=True)
class ProjectionParams:
    """Displacement parameters for ratings 2 and 4.

    p1 moves rating 2 within [1, 3]; p2 moves rating 4 within [3, 5].
    """

    p1: float = 0.5
    p2: float = 0.5

    def __post_init__(self):    # floats, so float32 input maps in float64
        for name, v in (("p1", self.p1), ("p2", self.p2)):
            _require(_is_real(v) and np.isfinite(v),
                     f"{name} must be a finite number")
            _require(0.0 <= v <= 1.0, f"{name}={v:g} outside [0, 1]")
            object.__setattr__(self, name, float(v))


def project_classes(classes: RatingClasses,
                    params: ProjectionParams) -> RatingClasses:
    """A projection's rating classes, from its source's: the source's own
    where no value moves; in O(classes) with the source's grouping and cache
    where no two classes merge; a merge (p1 or p2 at 0 or 1) regroups the
    links once, kept in the source's cache with a cache of its own whose
    "root" is the cache of the grouping the chain of merges started from."""
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
        dtype = classes._label_dtype(values.size)
        classes.cache[key] = remap.astype(dtype)[classes.labels], {
            "root": classes.cache.get("root", classes.cache)}
    return RatingClasses(values, *classes.cache[key])


def project_graph(graph: RatingGraph, params: ProjectionParams) -> RatingGraph:
    """Remap all link weights, as a `with_ratings` copy holding the projected
    classes; one that moves no rating (the identity, or any projection of a
    graph without ratings 2 and 4) returns the source graph itself."""
    classes = project_classes(graph.rating_classes, params)
    if classes is not graph.rating_classes:
        graph = graph.with_ratings(classes.values.take(classes.labels))
        vars(graph)["rating_classes"] = classes     # as it would group itself
    return graph
