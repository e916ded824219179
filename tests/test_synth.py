import io
import json

import numpy as np
import pytest

from reprank.synth import (SynthSpec, SynthTruth, TruthFormatError, _compact,
                           _round_half_away, generate_network,
                           generate_ratings, generate_topology, generate_truth,
                           inject_spam, read_truth, write_truth)
from reprank.graph import RatingGraph


def test_spec_validation():
    SynthSpec()
    with pytest.raises(ValueError):
        SynthSpec(num_users=0)
    with pytest.raises(ValueError):
        SynthSpec(num_users=2, num_items=2, num_links=5)
    with pytest.raises(ValueError):
        SynthSpec(case=5)
    with pytest.raises(ValueError):
        SynthSpec(spam_fraction=1.5)


def test_truth_validation():
    with pytest.raises(ValueError, match="empty truth"):
        SynthTruth(np.array([]), np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        SynthTruth(np.array([np.inf]), np.array([1.0]))
    with pytest.raises(ValueError, match=">= 0"):
        SynthTruth(np.array([3.0]), np.array([-0.1]))
    t = SynthTruth([2.0, 3.0], [0.5])
    assert t.num_items == 2 and t.num_users == 1


def test_topology_links_are_distinct():
    spec = SynthSpec(num_users=40, num_items=25, num_links=300)
    users, items = generate_topology(spec, np.random.default_rng(1))
    assert users.size == items.size == 300
    assert users.min() >= 0 and users.max() < 40
    assert items.min() >= 0 and items.max() < 25
    assert len({(u, i) for u, i in zip(users.tolist(), items.tolist())}) == 300


def test_topology_deterministic():
    spec = SynthSpec(num_users=40, num_items=25, num_links=300)
    a = generate_topology(spec, np.random.default_rng(2))
    b = generate_topology(spec, np.random.default_rng(2))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_topology_complete_graph():
    spec = SynthSpec(num_users=6, num_items=4, num_links=24)
    users, items = generate_topology(spec, np.random.default_rng(3))
    assert users.size == 24
    assert len(set(zip(users.tolist(), items.tolist()))) == 24


def test_topology_is_heavy_tailed():
    # rich-get-richer growth concentrates degree well beyond a uniform draw
    spec = SynthSpec(num_users=200, num_items=100, num_links=4000)
    users, items = generate_topology(spec, np.random.default_rng(42))
    ideg = np.bincount(items, minlength=100)
    udeg = np.bincount(users, minlength=200)
    assert ideg.max() > 2.0 * ideg.mean()
    assert udeg.max() > 2.0 * udeg.mean()


def test_truth_ranges():
    spec = SynthSpec(num_users=500, num_items=300, num_links=1000)
    t = generate_truth(spec, np.random.default_rng(4))
    assert t.intrinsic_quality.min() >= 1.0 and t.intrinsic_quality.max() < 5.0
    assert t.error_magnitude.min() >= 0.0 and t.error_magnitude.max() < 4.0


def test_round_half_away_from_zero():
    x = np.array([0.5, 1.49, 1.5, 2.5, 3.5, 4.5, -2.5])
    assert _round_half_away(x).tolist() == [1.0, 1.0, 2.0, 3.0, 4.0, 5.0, -3.0]


def _constant_raw_network(value, case, n=400, seed=9):
    """All raw ratings exactly `value`: q = value, noise disabled."""
    spec = SynthSpec(num_users=n // 20, num_items=20, num_links=n)
    rng = np.random.default_rng(seed)
    edges = generate_topology(spec, rng)
    truth = SynthTruth(np.full(20, value), np.zeros(n // 20))
    return generate_ratings(edges, truth, case, rng)


def test_band_membership_at_boundary():
    # raw 2.5 rounds to 3 under case 0 and sits inside the closed bands of
    # cases 1-3 but outside case 4's
    assert set(_constant_raw_network(2.5, 0).ratings.tolist()) == {3.0}
    assert set(_constant_raw_network(2.5, 1).ratings.tolist()) == {1.0, 2.0}
    assert set(_constant_raw_network(2.5, 2).ratings.tolist()) == {2.0, 3.0}
    assert set(_constant_raw_network(2.5, 3).ratings.tolist()) == {3.0, 4.0}
    assert set(_constant_raw_network(2.5, 4).ratings.tolist()) == {3.0}


def test_outer_bands_are_open_ended():
    # case 0 truncates raw values above 5 to 5 and below 1 to 1; cases 4
    # and 1 confuse those values too, since case 0 rates them as one of
    # the band's two ratings
    assert set(_constant_raw_network(5.4, 0).ratings.tolist()) == {5.0}
    assert set(_constant_raw_network(5.4, 4).ratings.tolist()) == {4.0, 5.0}
    assert set(_constant_raw_network(-0.3, 0).ratings.tolist()) == {1.0}
    assert set(_constant_raw_network(-0.3, 1).ratings.tolist()) == {1.0, 2.0}


def test_confusion_coin_is_fair():
    # raw 3.0 under case 2 collapses to 2 or 3 half/half
    spec = SynthSpec(num_users=100, num_items=100, num_links=10_000)
    rng = np.random.default_rng(3)
    edges = generate_topology(spec, rng)
    truth = SynthTruth(np.full(100, 3.0), np.zeros(100))
    g = generate_ratings(edges, truth, 2, rng)
    frac_low = float((g.ratings == 2.0).mean())
    assert set(g.ratings.tolist()) == {2.0, 3.0}
    assert abs(frac_low - 0.5) < 0.02


def test_cases_share_draws_outside_the_band():
    """The same seed must yield the same network across cases except at
    links whose raw value falls inside the confusion band."""
    spec = SynthSpec(num_users=80, num_items=50, num_links=2000)
    setup = np.random.default_rng(21)
    edges = generate_topology(spec, setup)
    truth = generate_truth(spec, setup)
    g0 = generate_ratings(edges, truth, 0, np.random.default_rng(5))
    g3 = generate_ratings(edges, truth, 3, np.random.default_rng(5))

    rng = np.random.default_rng(5)
    raw = (truth.intrinsic_quality[edges[1]]
           + rng.standard_normal(2000) * truth.error_magnitude[edges[0]])
    order = np.lexsort((edges[1], edges[0]))  # canonical link order
    band = (raw[order] >= 2.5) & (raw[order] <= 4.5)

    assert np.array_equal(g0.ratings[~band], g3.ratings[~band])
    assert np.isin(g3.ratings[band], [3.0, 4.0]).all()
    assert band.any() and not band.all()


def test_ratings_are_integers_on_scale():
    spec = SynthSpec(num_users=60, num_items=40, num_links=1200)
    for case in (0, 1, 2, 3, 4):
        rng = np.random.default_rng(100 + case)
        edges = generate_topology(spec, rng)
        truth = generate_truth(spec, rng)
        g = generate_ratings(edges, truth, case, rng)
        assert np.isin(g.ratings, [1.0, 2.0, 3.0, 4.0, 5.0]).all()


def test_generate_ratings_validates_edges():
    truth = SynthTruth([3.0], [0.5])
    with pytest.raises(ValueError, match="out of range"):
        generate_ratings((np.array([0]), np.array([2])), truth, 0,
                         np.random.default_rng(0))
    with pytest.raises(ValueError, match="case"):
        generate_ratings((np.array([0]), np.array([0])), truth, 9,
                         np.random.default_rng(0))


def desk_graph(seed=0):
    spec = SynthSpec(num_users=600, num_items=400, num_links=48_000)
    rng = np.random.default_rng(np.random.SeedSequence([1234, seed]))
    return generate_network(spec, rng)


def test_low_noise_users_track_truth():
    # restricted to users with small error magnitude the ratings follow
    # the intrinsic qualities closely
    g, t = desk_graph()
    low = t.error_magnitude[g.users] < 0.5
    c = np.corrcoef(t.intrinsic_quality[g.items][low], g.ratings[low])[0, 1]
    assert c > 0.9


def test_spam_noop():
    g, _ = desk_graph()
    assert inject_spam(g, 0.0, np.random.default_rng(1)) is g
    with pytest.raises(ValueError):
        inject_spam(g, 1.2, np.random.default_rng(1))


def test_spam_injection():
    g, _ = desk_graph()
    rng = np.random.default_rng(5)
    gs = inject_spam(g, 0.9, rng)
    changed = int((gs.ratings != g.ratings).sum())
    # floor(0.9 * 48000) = 43200 redrawn, of which ~1/5 land unchanged
    assert 30_000 < changed <= 43_200
    assert np.isin(gs.ratings, [1.0, 2.0, 3.0, 4.0, 5.0]).all()
    assert np.array_equal(gs.users, g.users)
    assert np.array_equal(gs.item_ptr, g.item_ptr)
    again = inject_spam(g, 0.9, np.random.default_rng(5))
    assert np.array_equal(again.ratings, gs.ratings)


def test_full_spam_destroys_signal():
    g, _ = desk_graph()
    g1 = inject_spam(g, 1.0, np.random.default_rng(6))
    assert abs(float(g1.ratings.mean()) - 3.0) < 0.02


def test_compact_drops_silent_nodes():
    g = RatingGraph.build(3, 3, [0, 2, 2], [0, 0, 1], [4, 2, 5])
    truth = SynthTruth([1.5, 2.5, 3.5], [0.1, 0.2, 0.3])
    cg, ct = _compact(g, truth)
    assert cg.num_users == 2 and cg.num_items == 2
    assert ct.intrinsic_quality.tolist() == [1.5, 2.5]
    assert ct.error_magnitude.tolist() == [0.1, 0.3]
    # untouched networks come back as-is
    full = RatingGraph.build(2, 2, [0, 1], [0, 1], [3, 4])
    t2 = SynthTruth([1.0, 2.0], [0.5, 0.5])
    assert _compact(full, t2)[0] is full


def test_generate_network_has_no_silent_nodes():
    spec = SynthSpec(num_users=30, num_items=20, num_links=40, seed=8)
    g, t = generate_network(spec)
    assert (g.user_degrees > 0).all() and (g.item_degrees > 0).all()
    assert t.num_users == g.num_users and t.num_items == g.num_items
    assert g.num_links == 40


def test_generate_network_deterministic():
    spec = SynthSpec(num_users=50, num_items=30, num_links=600,
                     case=3, spam_fraction=0.2, seed=77)
    g1, t1 = generate_network(spec)
    g2, t2 = generate_network(spec)
    assert g1.equals(g2)
    assert np.array_equal(t1.intrinsic_quality, t2.intrinsic_quality)
    assert np.array_equal(t1.error_magnitude, t2.error_magnitude)


def test_truth_round_trip():
    rng = np.random.default_rng(30)
    t = SynthTruth(rng.uniform(1, 5, 50), rng.uniform(0, 4, 80))
    buf = io.StringIO()
    write_truth(t, buf)
    back = read_truth(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.intrinsic_quality, t.intrinsic_quality)
    assert np.array_equal(back.error_magnitude, t.error_magnitude)


def test_truth_round_trip_on_disk(tmp_path):
    t = SynthTruth([1.1, 4.9], [0.0, 3.3])
    path = tmp_path / "truth.json"
    write_truth(t, path)
    back = read_truth(path)
    assert np.array_equal(back.intrinsic_quality, t.intrinsic_quality)


def test_read_truth_errors():
    with pytest.raises(TruthFormatError, match="offset"):
        read_truth(io.StringIO('{"intrinsic_quality": [1.0'))
    with pytest.raises(TruthFormatError, match="JSON object"):
        read_truth(io.StringIO("[1, 2]"))
    with pytest.raises(TruthFormatError, match="intrinsic_quality"):
        read_truth(io.StringIO('{"error_magnitude": [1.0]}'))
    with pytest.raises(ValueError, match="empty truth"):
        read_truth(io.StringIO(json.dumps(
            {"intrinsic_quality": [], "error_magnitude": [1.0]})))
    assert issubclass(TruthFormatError, ValueError)
