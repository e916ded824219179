import numpy as np
import pytest
from hypothesis import given, strategies as st

from nets import equals, random_bipartite
from oracle import project_rating
from reprank.graph import RatingGraph
from reprank.projection import ProjectionParams, project_classes, project_graph
from reprank.ranking import RankingConfig, rank

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_params_validation():
    ProjectionParams(0.0, 1.0)
    for bad in (-0.1, 1.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ProjectionParams(p1=bad)
        with pytest.raises(ValueError):
            ProjectionParams(p2=bad)


def test_params_take_numbers_not_bools():
    for bad in ((True, 0.5), (0.5, False), (np.True_, 0.5), ("0.5", 0.5)):
        with pytest.raises(ValueError, match="finite number"):
            ProjectionParams(*bad)
    # numpy scalars are accepted and kept as the Python floats they equal
    p = ProjectionParams(np.float32(0.1), np.int64(1))
    assert (p.p1, p.p2) == (float(np.float32(0.1)), 1.0)
    assert type(p.p1) is float and type(p.p2) is float
    assert project_rating(2.0, p) == 1.0 + float(np.float32(0.1)) * 2.0


def test_endpoints():
    # 2 spans [1, 3] as p1 goes 0 -> 1; 4 spans [3, 5]; 1/3/5 are fixed
    assert project_rating(2.0, ProjectionParams(0.0, 0.5)) == 1.0
    assert project_rating(2.0, ProjectionParams(1.0, 0.5)) == 3.0
    assert project_rating(2.0, ProjectionParams(0.25, 0.5)) == 1.5
    assert project_rating(4.0, ProjectionParams(0.5, 0.0)) == 3.0
    assert project_rating(4.0, ProjectionParams(0.5, 1.0)) == 5.0
    assert project_rating(4.0, ProjectionParams(0.5, 0.75)) == 4.5
    for p in (ProjectionParams(0.0, 0.0), ProjectionParams(1.0, 1.0)):
        for fixed in (1.0, 3.0, 5.0):
            assert project_rating(fixed, p) == fixed


def test_identity_is_bit_exact():
    p = ProjectionParams(0.5, 0.5)
    assert project_rating(2.0, p) == 2.0
    assert project_rating(4.0, p) == 4.0
    g = RatingGraph.build(2, 3, [0, 0, 0, 1, 1], [0, 1, 2, 0, 2],
                          [1.0, 2.0, 4.0, 3.7, 5.0])
    h = project_graph(g, p)
    assert np.array_equal(h.ratings, g.ratings)
    assert equals(g, h)


def test_non_integer_ratings_pass_through():
    p = ProjectionParams(0.0, 1.0)
    for r in (1.5, 2.5, 3.99, 4.0001):
        assert project_rating(r, p) == r


def test_out_of_range_rating():
    with pytest.raises(ValueError, match="out of bounds"):
        project_rating(0.5, ProjectionParams())
    with pytest.raises(ValueError, match="out of bounds"):
        project_rating(5.1, ProjectionParams())


def test_project_graph_moves_only_2_and_4():
    g = RatingGraph.build(2, 3, [0, 0, 0, 1, 1], [0, 1, 2, 0, 1],
                          [2.0, 4.0, 3.0, 2.0, 1.0])
    h = project_graph(g, ProjectionParams(0.1, 0.9))
    assert h.ratings.tolist() == [1.2, 4.8, 3.0, 1.2, 1.0]
    assert np.array_equal(h.users, g.users)
    assert np.array_equal(h.items, g.items)
    assert g.ratings.tolist() == [2.0, 4.0, 3.0, 2.0, 1.0]


@given(p1=unit, p2=unit, rating=st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0]))
def test_projected_values_stay_on_scale(p1, p2, rating):
    out = project_rating(rating, ProjectionParams(p1, p2))
    assert 1.0 <= out <= 5.0


@given(lo=unit, hi=unit)
def test_projection_is_monotone_in_params(lo, hi):
    a, b = sorted((lo, hi))
    assert (project_rating(2.0, ProjectionParams(a, 0.5))
            <= project_rating(2.0, ProjectionParams(b, 0.5)))
    assert (project_rating(4.0, ProjectionParams(0.5, a))
            <= project_rating(4.0, ProjectionParams(0.5, b)))


# grid ratings and their off-grid neighbours, which must pass through
NEAR_GRID = np.array([1.0, 2.0, 3.0, 4.0, 5.0, np.nextafter(2.0, 3.0),
                      np.nextafter(4.0, 3.0), np.nextafter(2.0, 1.0), 2.5])
param = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit)


@given(p1=param, p2=param, seed=st.integers(0, 2**32 - 1))
def test_graph_and_scalar_paths_agree(p1, p2, seed):
    params = ProjectionParams(p1, p2)
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng)
    g = g.with_ratings(rng.choice(NEAR_GRID, size=g.num_links))
    h = project_graph(g, params)
    expected = np.array([project_rating(r, params) for r in g.ratings])
    assert h.ratings.tobytes() == expected.tobytes()
    assert not h.ratings.flags.writeable
    # a new graph exactly where some rating moved
    assert (h is g) == (expected.tobytes() == g.ratings.tobytes())


@given(seed=st.integers(0, 2**32 - 1), p1=param, p2=param)
def test_no_op_projection_returns_its_source(seed, p1, p2):
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng)
    assert project_graph(g, ProjectionParams(0.5, 0.5)) is g
    assert (project_classes(g.rating_classes, ProjectionParams(0.5, 0.5))
            is g.rating_classes)
    # no rating 2 or 4 to move: any projection is a no-op
    h = g.with_ratings(rng.choice([1.0, 3.0, 5.0], size=g.num_links))
    assert project_graph(h, ProjectionParams(0.0, 1.0)) is h
    assert project_graph(h, ProjectionParams(p1, p2)) is h


@pytest.mark.parametrize("algorithm", ["mean", "ir", "cr", "rr"])
def test_identity_projection_leaves_rank_unchanged(algorithm):
    """Against a graph rebuilt from the same links, so that neither run
    reuses what the other cached."""
    config = RankingConfig(algorithm=algorithm)
    rng = np.random.default_rng(25)
    for _ in range(10):
        g = random_bipartite(rng)
        a = rank(RatingGraph.build(g.num_users, g.num_items, g.users, g.items,
                                   g.ratings), config)
        b = rank(project_graph(g, ProjectionParams(0.5, 0.5)), config)
        assert a.qualities.tobytes() == b.qualities.tobytes()
        assert a.reputations.tobytes() == b.reputations.tobytes()
        assert ((a.iterations_used, a.converged, a.final_residual)
                == (b.iterations_used, b.converged, b.final_residual))
