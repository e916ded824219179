import io

import numpy as np
import pytest

from reprank.graph import (BenchmarkSet, IdMap, IngestError, RatingGraph,
                           ingest_ratings, load_benchmark, write_ratings_csv)


def small_graph():
    # 3 users x 3 items, item 2 unrated by user 1
    return RatingGraph.build(
        3, 3,
        users=[1, 0, 2, 0, 1, 2, 0],
        items=[0, 0, 0, 1, 1, 1, 2],
        ratings=[4, 5, 1, 3, 2, 5, 1],
    )


def test_build_canonical_order():
    g = small_graph()
    assert g.users.tolist() == [0, 0, 0, 1, 1, 2, 2]
    assert g.items.tolist() == [0, 1, 2, 0, 1, 0, 1]
    assert g.ratings.tolist() == [5, 3, 1, 4, 2, 1, 5]
    assert g.user_ptr.tolist() == [0, 3, 5, 7]
    assert g.item_ptr.tolist() == [0, 3, 6, 7]
    # by_item regroups links by (item, user)
    assert g.items[g.by_item].tolist() == [0, 0, 0, 1, 1, 1, 2]
    assert g.users[g.by_item].tolist() == [0, 1, 2, 0, 1, 2, 0]


def test_degree_views():
    g = small_graph()
    assert g.num_links == 7
    assert g.user_degrees.tolist() == [3, 2, 2]
    assert g.item_degrees.tolist() == [3, 3, 1]
    assert g.sparsity == pytest.approx(7 / 9)


def test_build_empty_graph():
    g = RatingGraph.build(2, 3, [], [], [])
    assert g.num_links == 0
    assert g.sparsity == 0.0
    assert g.user_degrees.tolist() == [0, 0]


def test_build_rejects_bad_input():
    with pytest.raises(ValueError, match="equally long"):
        RatingGraph.build(2, 2, [0], [0, 1], [3, 3])
    with pytest.raises(ValueError, match="user index"):
        RatingGraph.build(2, 2, [2], [0], [3])
    with pytest.raises(ValueError, match="item index"):
        RatingGraph.build(2, 2, [0], [5], [3])
    with pytest.raises(ValueError, match="out of bounds"):
        RatingGraph.build(2, 2, [0], [0], [5.5])
    with pytest.raises(ValueError, match="negative node count"):
        RatingGraph.build(-1, 2, [], [], [])
    with pytest.raises(ValueError, match=r"duplicate \(user, item\) pair: \(1, 0\)"):
        RatingGraph.build(2, 2, [0, 1, 1], [0, 0, 0], [3, 4, 5])


def test_arrays_frozen():
    g = small_graph()
    with pytest.raises(ValueError):
        g.ratings[0] = 2.0
    with pytest.raises(ValueError):
        g.user_ptr[0] = 1


def test_with_ratings():
    g = small_graph()
    h = g.with_ratings(np.full(7, 3.0))
    assert h.ratings.tolist() == [3.0] * 7
    assert np.array_equal(h.users, g.users) and np.array_equal(h.items, g.items)
    assert g.ratings.tolist()[0] == 5  # original untouched
    with pytest.raises(ValueError, match="length"):
        g.with_ratings([1.0, 2.0])
    with pytest.raises(ValueError, match="out of bounds"):
        g.with_ratings(np.full(7, 0.5))


def test_equals():
    g = small_graph()
    assert g.equals(small_graph())
    assert not g.equals(g.with_ratings(np.full(7, 3.0)))


CSV = """\
# a comment
user_id,item_id,rating
alice,apple,5
bob,apple,3.5

alice,pear,2
"""


def test_ingest_csv():
    g, users, items = ingest_ratings(io.StringIO(CSV))
    assert users.ids == ("alice", "bob")  # first-seen order
    assert items.ids == ("apple", "pear")
    assert g.num_links == 3
    assert g.ratings.tolist() == [5.0, 2.0, 3.5]  # canonical order
    assert users.resolve("bob") == 1
    assert users.resolve("carol") is None
    assert items.external(1) == "pear"


def test_ingest_header_is_optional():
    g, _, _ = ingest_ratings(io.StringIO("u1,i1,4\nu2,i1,2\n"))
    assert g.num_links == 2


def test_ingest_movielens():
    text = "1::10::5::978300760\n2::10::3::978302109\n1::20::4::978301968\n"
    g, users, items = ingest_ratings(io.StringIO(text), fmt="movielens")
    assert users.ids == ("1", "2")
    assert items.ids == ("10", "20")
    assert g.num_links == 3
    with pytest.raises(IngestError, match="line 1"):
        ingest_ratings(io.StringIO("1::10::5\n"), fmt="movielens")


def test_ingest_errors_carry_line_numbers():
    with pytest.raises(IngestError, match="line 2: malformed rating 'x'"):
        ingest_ratings(io.StringIO("a,b,3\na,c,x\n"))
    with pytest.raises(IngestError, match="line 1: rating out of bounds"):
        ingest_ratings(io.StringIO("a,b,6\n"))
    with pytest.raises(IngestError, match="line 1: expected user_id"):
        ingest_ratings(io.StringIO("a,b\n"))
    with pytest.raises(IngestError, match=r"duplicate.*'alice'.*'apple'"):
        ingest_ratings(io.StringIO("alice,apple,3\nbob,apple,4\nalice,apple,5\n"))
    with pytest.raises(ValueError, match="unknown format"):
        ingest_ratings(io.StringIO(""), fmt="tsv")


def test_ingest_rejects_input_without_ratings():
    for text in ("", "# only a comment\n", "user_id,item_id,rating\n\n"):
        with pytest.raises(IngestError, match="no ratings found"):
            ingest_ratings(io.StringIO(text))


def test_csv_round_trip(tmp_path):
    g, users, items = ingest_ratings(io.StringIO(CSV))
    out = tmp_path / "ratings.csv"
    write_ratings_csv(g, out, users, items)
    assert out.read_text().startswith("user_id,item_id,rating\n")
    g2, users2, items2 = ingest_ratings(out)
    assert g.equals(g2)
    assert users2.ids == users.ids and items2.ids == items.ids


def test_write_without_maps_uses_indices():
    buf = io.StringIO()
    write_ratings_csv(small_graph(), buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "0,0,5.0"


def test_write_rejects_ids_that_do_not_read_back():
    g = RatingGraph.build(1, 1, [0], [0], [3])
    for users, items in ((["a,b"], ["1"]), (["u"], ["1,2"]), ([" u"], ["1"]),
                         (["u"], ["1 "])):
        with pytest.raises(ValueError, match="cannot be written"):
            write_ratings_csv(g, io.StringIO(), IdMap.from_ids(users),
                              IdMap.from_ids(items))


def test_idmap_rejects_duplicates():
    with pytest.raises(ValueError, match="unique"):
        IdMap.from_ids(["a", "b", "a"])


def test_benchmark_set():
    b = BenchmarkSet(frozenset({4, 1, 2}))
    assert b.size == 3
    assert b.sorted_indices().tolist() == [1, 2, 4]
    with pytest.raises(ValueError, match="empty benchmark"):
        BenchmarkSet(frozenset())
    with pytest.raises(ValueError, match="negative"):
        BenchmarkSet(frozenset({-1, 2}))


def test_load_benchmark():
    item_map = IdMap.from_ids(["apple", "pear", "plum"])
    src = io.StringIO("# header\npear\nmissing\napple\n\npear\n")
    loaded = load_benchmark(src, item_map)
    assert loaded.benchmark.item_indices == frozenset({0, 1})
    assert loaded.skipped == 1
    with pytest.raises(ValueError, match="empty benchmark"):
        load_benchmark(io.StringIO("unknown\n"), item_map)
