"""Nonlinear remapping of the 5-star rating scale.

Integer ratings 2 and 4 are displaced inside their neighbouring odd values
by two parameters in [0, 1]; ratings 1, 3, 5 are fixed points and
non-integer ratings pass through untouched. The midpoint (0.5, 0.5) is
the identity map, bit-exact in float64: 1 + 0.5*2 == 2 and 3 + 0.5*2 == 4.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .graph import RatingGraph


@dataclass(frozen=True)
class ProjectionParams:
    """Displacement parameters for ratings 2 and 4.

    p1 moves rating 2 within [1, 3]; p2 moves rating 4 within [3, 5].
    """

    p1: float = 0.5
    p2: float = 0.5

    def __post_init__(self):
        for name, v in (("p1", self.p1), ("p2", self.p2)):
            if not (isinstance(v, (int, float)) and np.isfinite(v)):
                raise ValueError(f"{name} must be a finite number")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v:g} outside [0, 1]")


def project_rating(rating: float, params: ProjectionParams) -> float:
    """Remap a single rating. Exact comparison against the integer grid."""
    if not (1.0 <= rating <= 5.0):
        raise ValueError(f"rating out of bounds: {rating:g} not in [1, 5]")
    if rating == 2.0:
        return 1.0 + params.p1 * 2.0
    if rating == 4.0:
        return 3.0 + params.p2 * 2.0
    return float(rating)


def project_graph(graph: RatingGraph, params: ProjectionParams) -> RatingGraph:
    """Remap all link weights of a graph; topology and link order unchanged."""
    r = graph.ratings
    out = r.astype(np.float64, copy=True)
    out[r == 2.0] = 1.0 + params.p1 * 2.0
    out[r == 4.0] = 3.0 + params.p2 * 2.0
    out.setflags(write=False)
    return dataclasses.replace(graph, ratings=out)
