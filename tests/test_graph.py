import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nets import equals
from reprank.graph import (FORMATS, MOVIELENS, BenchmarkSet,
                           DuplicatePairError, IdMap, IngestError,
                           RatingGraph, ingest_ratings, load_benchmark,
                           write_ratings_csv)
from reprank.projection import ProjectionParams, project_graph
from reprank.ranking import RankingConfig, rank
from reprank.synth import SynthTruth, generate_ratings


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


def test_degree_views():
    g = small_graph()
    assert g.num_links == 7
    assert g.user_degrees.tolist() == [3, 2, 2]
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
    with pytest.raises(ValueError, match="out of bounds"):
        RatingGraph.build(2, 2, [0, 1], [0, 1], [np.nan, 3.0])
    with pytest.raises(ValueError, match="negative node count"):
        RatingGraph.build(-1, 2, [], [], [])
    with pytest.raises(ValueError, match=r"duplicate \(user, item\) pair: \(1, 0\)"):
        RatingGraph.build(2, 2, [0, 1, 1], [0, 0, 0], [3, 4, 5])


@pytest.mark.parametrize("num_users, num_items", [
    (2.5, 2), (True, 2), (np.float64(2.0), 2), (2, 2.0), (2, np.bool_(True)),
    ("2", 2)], ids=["float", "bool", "np-float", "float-items",
                    "np-bool-items", "str"])
def test_build_refuses_counts_that_are_not_integers(num_users, num_items):
    with pytest.raises(ValueError,
                       match="num_users and num_items must be integers"):
        RatingGraph.build(num_users, num_items, [0, 1], [0, 0], [1, 2])


def _shuffled_links(rng, n_u, n_i, n_l):
    keys = rng.choice(n_u * n_i, size=n_l, replace=False)
    ratings = rng.integers(1, 6, size=n_l).astype(np.float64)
    return keys // n_i, keys % n_i, ratings


@pytest.mark.parametrize("seed", range(6))
def test_build_order_matches_lexsort(seed):
    rng = np.random.default_rng(seed)
    n_u, n_i = int(rng.integers(1, 300)), int(rng.integers(1, 200))
    users, items, ratings = _shuffled_links(
        rng, n_u, n_i, int(rng.integers(0, n_u * n_i // 3 + 2)))
    g = RatingGraph.build(n_u, n_i, users, items, ratings)
    order = np.lexsort((items, users))
    assert g.users.dtype == g.items.dtype == np.int32
    assert np.array_equal(g.users, users[order])
    assert np.array_equal(g.items, items[order])
    assert np.array_equal(g.ratings, ratings[order])


def test_build_stores_int64_nodes_from_2_31_nodes_on():
    g = RatingGraph.build(2, 2**31, [1, 0], [2**31 - 1, 5], [3.0, 4.0])
    assert g.users.dtype == g.items.dtype == np.int64
    assert g.items.tolist() == [5, 2**31 - 1]


@pytest.mark.parametrize("users, items", [
    ([0.5, 1.9], [0, 1.2]),                     # truncated to 0, 1 before
    ([0, 1], [0.0, 1.0]),                       # integral floats too
    ([True, False], [0, 1]),                    # passed as 1, 0 before
    (np.array([0, 1], dtype=object), [0, 1]),
])
def test_node_indices_must_be_integers(users, items):
    with pytest.raises(ValueError, match="node indices must be integers"):
        RatingGraph.build(2, 2, users, items, [3, 4])
    truth = SynthTruth(np.full(2, 3.0), np.ones(2))
    with pytest.raises(ValueError, match="node indices must be integers"):
        generate_ratings((users, items), truth, 0, np.random.default_rng(0))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8,
                                   np.uint32, np.uint64])
def test_any_integer_index_dtype_builds_the_same_graph(dtype):
    users, items = [2, 0, 1, 0], [1, 1, 0, 0]
    g = RatingGraph.build(3, 2, np.array(users, dtype=dtype),
                          np.array(items, dtype=dtype), [1, 2, 3, 4])
    assert equals(g, RatingGraph.build(3, 2, users, items, [1, 2, 3, 4]))
    assert g.users.dtype == g.items.dtype == np.int32


@pytest.mark.parametrize("ratings", [
    np.random.default_rng(0).integers(1, 6, 500).astype(np.float64),
    np.random.default_rng(1).choice([1.0, 1.5, 2.25, 4.75, 5.0], 500),
    np.random.default_rng(2).uniform(1.0, 5.0, 500),    # > 256 classes
])
def test_rating_classes_match_unique_with_inverse(ratings):
    g = RatingGraph.build(500, 1, np.arange(500), np.zeros(500, int), ratings)
    values, labels = np.unique(g.ratings, return_inverse=True)
    classes = g.rating_classes
    assert np.array_equal(classes.values, values)
    assert np.array_equal(classes.labels, labels)
    assert classes.labels.dtype == (np.uint8 if values.size <= 256
                                    else np.intp)


def test_copies_share_the_node_index_arrays():
    g = small_graph()
    for h in (g.with_ratings(np.full(7, 3.0)),
              project_graph(g, ProjectionParams(0.2, 0.9))):
        assert h.ratings is not g.ratings
        assert h.users is g.users and h.items is g.items


@pytest.mark.parametrize("seed", range(6))
def test_duplicate_error_names_the_lexsort_first_pair(seed):
    rng = np.random.default_rng(100 + seed)
    users, items, ratings = _shuffled_links(rng, 120, 90, 2000)
    dup = rng.choice(users.size, size=int(rng.integers(1, 6)), replace=False)
    users = np.concatenate([users, users[dup]])
    items = np.concatenate([items, items[dup]])
    ratings = np.concatenate([ratings, ratings[dup]])
    perm = rng.permutation(users.size)
    users, items, ratings = users[perm], items[perm], ratings[perm]
    order = np.lexsort((items, users))
    su, si = users[order], items[order]
    k = int(np.flatnonzero((su[1:] == su[:-1]) & (si[1:] == si[:-1]))[0])
    with pytest.raises(DuplicatePairError) as info:
        RatingGraph.build(120, 90, users, items, ratings)
    assert (info.value.user, info.value.item) == (su[k], si[k])


# (2, 2**62) would build without the guard, allocating nothing large
@pytest.mark.parametrize("num_users, num_items", [(2**32, 2**32), (2, 2**62)])
def test_build_rejects_key_overflow_before_allocating(num_users, num_items):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\*\\*63"):
            RatingGraph.build(num_users, num_items, [0], [0], [3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    with pytest.raises(ValueError, match="out of bounds"):
        g.with_ratings(np.r_[np.full(6, 3.0), np.nan])


def test_equals():
    g = small_graph()
    assert equals(g, small_graph())
    assert not equals(g, g.with_ratings(np.full(7, 3.0)))


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


def test_ingest_strips_fields_in_both_formats():
    ml = "a ::100::4::0\na::200 ::3::0\n"
    g, users, items = ingest_ratings(io.StringIO(ml), fmt="movielens")
    assert users.ids == ("a",) and items.ids == ("100", "200")
    g_csv, users_csv, items_csv = ingest_ratings(
        io.StringIO("a ,100,4\na,200 ,3\n"))
    assert users_csv.ids == users.ids and items_csv.ids == items.ids
    assert equals(g, g_csv)


def test_ingest_errors_carry_line_numbers():
    with pytest.raises(IngestError, match="line 2: malformed rating 'x'"):
        ingest_ratings(io.StringIO("a,b,3\na,c,x\n"))
    with pytest.raises(IngestError, match="line 1: rating out of bounds"):
        ingest_ratings(io.StringIO("a,b,6\n"))
    with pytest.raises(IngestError, match="line 1: expected user_id"):
        ingest_ratings(io.StringIO("a,b\n"))
    # a header is skipped only as the first record
    with pytest.raises(IngestError, match="line 2: malformed rating 'rating'"):
        ingest_ratings(io.StringIO("a,b,3\nuser_id,item_id,rating\n"))
    with pytest.raises(IngestError, match=r"duplicate.*'alice'.*'apple'"):
        ingest_ratings(io.StringIO("alice,apple,3\nbob,apple,4\nalice,apple,5\n"))
    with pytest.raises(ValueError, match="unknown format"):
        ingest_ratings(io.StringIO(""), fmt="tsv")


def test_ingest_rejects_empty_ids():
    for text, fmt, message in (
            ("u,,4\nu,b,3\nv,b,2\n", "csv", "line 1: empty item id"),
            ("# c\n,a,4\n", "csv", "line 2: empty user id"),
            ("u,a,4\n , ,3\n", "csv", "line 2: empty user id"),
            ("::10::5::0\n", MOVIELENS, "line 1: empty user id"),
            ("1:: ::5::0\n", MOVIELENS, "line 1: empty item id")):
        with pytest.raises(IngestError, match=message):
            ingest_ratings(io.StringIO(text), fmt=fmt)


def test_ingest_reads_past_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    for text in (CSV, "1,a,4\n2,a,3\n"):
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        expected = ingest_ratings(io.StringIO(text))
        for got in (ingest_ratings(path),
                    ingest_ratings(io.StringIO("\ufeff" + text))):
            assert equals(got.graph, expected.graph)
            assert got.user_map.ids == expected.user_map.ids
            assert got.item_map.ids == expected.item_map.ids


def test_ingest_rejects_input_without_ratings():
    for text in ("", "# only a comment\n", "user_id,item_id,rating\n\n"):
        with pytest.raises(IngestError, match="no ratings found"):
            ingest_ratings(io.StringIO(text))


@st.composite
def rating_files(draw):
    """(text, format): arbitrary text, or lines that are mostly records of
    the format's width with valid and invalid fields mixed."""
    fmt = draw(st.sampled_from(FORMATS))
    sep, extra = ("::", 1) if fmt == MOVIELENS else (",", 0)
    ident = st.sampled_from(["a", "b", " 1", "", "#"])
    rating = st.sampled_from(["1", " 2.5", "5", "6", "nan", "x"])
    record = st.tuples(ident, ident, rating, *[ident] * extra).map(sep.join)
    line = st.one_of(record, st.text(max_size=10))
    lines = st.lists(line, max_size=8).map("\n".join)
    return draw(st.one_of(st.text(), lines)), fmt


@settings(max_examples=200)
@given(rating_files())
def test_ingest_gives_a_rankable_graph_or_an_ingest_error(file):
    text, fmt = file
    try:
        result = ingest_ratings(io.StringIO(text), fmt=fmt)
    except IngestError:
        return
    rank(result.graph, RankingConfig(algorithm="mean"))  # every node linked


def test_csv_round_trip(tmp_path):
    g, users, items = ingest_ratings(io.StringIO(CSV))
    out = tmp_path / "ratings.csv"
    write_ratings_csv(g, out, users, items)
    assert out.read_bytes().startswith(b"user_id,item_id,rating\n")
    g2, users2, items2 = ingest_ratings(out)
    assert equals(g, g2)
    assert users2.ids == users.ids and items2.ids == items.ids


def test_write_without_maps_uses_indices():
    buf = io.StringIO()
    write_ratings_csv(small_graph(), buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "0,0,5.0"


def test_write_rejects_ids_that_do_not_read_back():
    g = RatingGraph.build(1, 1, [0], [0], [3])
    for users, items in ((["a,b"], ["1"]), (["u"], ["1,2"]), ([" u"], ["1"]),
                         (["u"], ["1 "]), (["#u"], ["1"]), (["a\nb"], ["1"]),
                         (["u"], ["1\r2"]), ([""], ["1"]), (["u"], [""])):
        with pytest.raises(ValueError, match="cannot be written"):
            write_ratings_csv(g, io.StringIO(), IdMap.from_ids(users),
                              IdMap.from_ids(items))
    # only a line's first field can start a comment
    buf = io.StringIO()
    write_ratings_csv(g, buf, IdMap.from_ids(["u"]), IdMap.from_ids(["#1"]))
    buf.seek(0)
    assert ingest_ratings(buf).item_map.ids == ("#1",)


def test_write_rejects_maps_of_the_wrong_length(tmp_path):
    out = tmp_path / "ratings.csv"
    out.write_text("kept\n")
    two, three, four = (IdMap.from_ids("abcd"[:n]) for n in (2, 3, 4))
    for users, items, message in ((two, None, "user map holds 2 ids for 3"),
                                  (three, four, "item map holds 4 ids for 3")):
        with pytest.raises(ValueError, match=message):
            write_ratings_csv(small_graph(), out, users, items)
    assert out.read_text() == "kept\n"


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


def test_load_benchmark_reads_past_a_byte_order_mark(tmp_path):
    path = tmp_path / "bench.txt"
    path.write_bytes(b"\xef\xbb\xbfa\n")
    for source in (path, io.StringIO("\ufeffa\n")):
        loaded = load_benchmark(source, IdMap.from_ids(["a", "b"]))
        assert loaded.benchmark.item_indices == frozenset({0})
        assert loaded.skipped == 0


def test_load_benchmark_lists_items_whose_ids_start_with_a_hash():
    item_map = IdMap.from_ids(["#top", "x"])
    loaded = load_benchmark(io.StringIO("#top\n# note\nx\n"), item_map)
    assert loaded.benchmark.item_indices == frozenset({0, 1})
    assert loaded.skipped == 0
    only = load_benchmark(io.StringIO(" #top \n"), item_map)
    assert only.benchmark.item_indices == frozenset({0})
