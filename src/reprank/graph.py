"""Sparse bipartite rating network: data model, ingestion, benchmark lists.

A rating network connects users to the items they rated; the link weight is
the rating value on the 5-star scale. The graph is immutable after
construction and stores each link once, in canonical (user, item) order:
per-user aggregations read contiguous CSR segments, per-item ones scatter
over the item index of each link.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np

RATING_MIN = 1.0
RATING_MAX = 5.0

GENERIC_CSV = "csv"
MOVIELENS = "movielens"
FORMATS = (GENERIC_CSV, MOVIELENS)

_CSV_HEADER = ("user_id", "item_id", "rating")


class IngestError(ValueError):
    """Malformed rating data. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RatingClasses(NamedTuple):
    """A graph's links grouped by rating: each class's value (increasing),
    each link's class, and a cache of what rests on that grouping."""
    values: np.ndarray
    labels: np.ndarray
    cache: dict

    @staticmethod
    def _label_dtype(n_classes: int) -> type:
        return np.uint8 if n_classes <= 256 else np.intp


class DuplicatePairError(ValueError):
    """A (user, item) pair occurs twice. Carries the pair's dense indices."""

    def __init__(self, user: int, item: int):
        super().__init__(f"duplicate (user, item) pair: ({user}, {item})")
        self.user = user
        self.item = item


@dataclass(frozen=True, eq=False)
class RatingGraph:
    """Immutable bipartite rating network with dense 0-based indices.

    Links are kept once, in canonical order (sorted by user, then item),
    CSR style: links of user u live at positions user_ptr[u]:user_ptr[u+1].
    """

    num_users: int
    num_items: int
    users: np.ndarray      # link user indices, canonical order, int32 or int64
    items: np.ndarray      # link item indices, canonical order, same dtype
    ratings: np.ndarray    # link weights, canonical order
    user_ptr: np.ndarray   # CSR offsets over canonical order, len num_users+1

    @classmethod
    def build(
        cls,
        num_users: int,
        num_items: int,
        users: Iterable[int],
        items: Iterable[int],
        ratings: Iterable[float],
    ) -> "RatingGraph":
        """Sorts the links on the int64 key user * num_items + item (needs
        num_users * num_items < 2**63); equal keys (duplicate pairs) end up
        adjacent. Nodes are int32 if both counts are < 2**31, else int64."""
        _require(_is_int(num_users) and _is_int(num_items),
                 "num_users and num_items must be integers")
        _require(int(num_users) * int(num_items) < 2**63,
                 "num_users * num_items must be below 2**63")
        users, items = map(_node_indices, (users, items))
        ratings = np.asarray(ratings, dtype=np.float64)
        _require(users.shape == items.shape == ratings.shape
                 and users.ndim == 1,
                 "users, items and ratings must be 1-D and equally long")
        _require(num_users >= 0 and num_items >= 0, "negative node count")
        for side, a, n in (("user", users, num_users),
                           ("item", items, num_items)):
            _require(not a.size or 0 <= a.min() and a.max() < n,
                     f"{side} index out of range")
        _check_rating_bounds(ratings)

        order = np.argsort(users.astype(np.int64) * num_items + items)
        idx = np.int32 if max(num_users, num_items) < 2**31 else np.int64
        users = users.astype(idx, copy=False)[order]
        items = items.astype(idx, copy=False)[order]
        ratings = ratings[order]
        if users.size > 1:
            same = (users[1:] == users[:-1]) & (items[1:] == items[:-1])
            if same.any():
                k = int(np.flatnonzero(same)[0])
                raise DuplicatePairError(int(users[k]), int(items[k]))

        user_ptr = np.searchsorted(   # where bincount would copy users to intp
            users, np.arange(num_users + 1, dtype=idx)).astype(np.int64)

        for a in (users, items, ratings, user_ptr):
            a.setflags(write=False)
        return cls(num_users, num_items, users, items, ratings, user_ptr)

    def __getstate__(self):     # the cache is not pickled
        return {k: v for k, v in vars(self).items() if k != "rating_classes"}

    # -- derived views -------------------------------------------------

    @property
    def num_links(self) -> int:
        return int(self.users.size)

    @property
    def user_degrees(self) -> np.ndarray:
        return np.diff(self.user_ptr)

    @property
    def sparsity(self) -> float:
        denom = self.num_users * self.num_items
        return self.num_links / denom if denom else 0.0

    @cached_property
    def rating_classes(self) -> RatingClasses:
        """The links grouped by rating, built on first use, or the equal
        grouping a `project_graph` copy starts with."""
        values = np.unique(self.ratings)
        labels = np.searchsorted(values, self.ratings)
        return RatingClasses(values, labels.astype(
            RatingClasses._label_dtype(values.size), copy=False), {})

    def with_ratings(self, ratings: np.ndarray) -> "RatingGraph":
        """Copy of this graph with new link weights and none of its caches."""
        ratings = np.asarray(ratings, dtype=np.float64)
        _require(ratings.shape == self.ratings.shape,
                 "ratings length must match link count")
        _check_rating_bounds(ratings)
        ratings = ratings.copy()
        ratings.setflags(write=False)
        return replace(self, ratings=ratings)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_int(v) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A Python or numpy integer or float, not a bool, nor a Python integer
    beyond the largest float."""
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool)
            and not (isinstance(v, int) and abs(v) > sys.float_info.max))


def _node_indices(a) -> np.ndarray:
    """a as a signed integer array; unsigned ones and [] become int64."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"node indices must be integers, not {a.dtype}")
    return a if a.dtype.kind == "i" else a.astype(np.int64)


def _check_rating_bounds(ratings: np.ndarray) -> None:
    # NaN fails both comparisons, as min() and max() propagate it
    if ratings.size and not (RATING_MIN <= ratings.min()
                             and ratings.max() <= RATING_MAX):
        raise ValueError(f"rating out of bounds [{RATING_MIN:g}, {RATING_MAX:g}]")


@dataclass(frozen=True)
class IdMap:
    """Bijection between external string ids and dense 0-based indices."""

    ids: tuple[str, ...]
    index: dict[str, int] = field(repr=False)

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "IdMap":
        ids = tuple(ids)
        index = {ext: i for i, ext in enumerate(ids)}
        _require(len(index) == len(ids), "external ids must be unique")
        return cls(ids, index)

    def __len__(self) -> int:
        return len(self.ids)

    def external(self, i: int) -> str:
        return self.ids[i]

    def resolve(self, external_id: str) -> int | None:
        return self.index.get(external_id)


class IngestResult(NamedTuple):
    graph: RatingGraph
    user_map: IdMap
    item_map: IdMap


@dataclass(frozen=True)
class BenchmarkSet:
    """Indices of known high-quality items used to score a ranking."""

    item_indices: frozenset[int]

    def __post_init__(self):
        _require(len(self.item_indices) > 0, "empty benchmark set")
        _require(min(self.item_indices) >= 0,
                 "negative item index in benchmark set")

    @property
    def size(self) -> int:
        return len(self.item_indices)

    def sorted_indices(self) -> np.ndarray:
        return np.asarray(sorted(self.item_indices), dtype=np.int64)


class BenchmarkLoad(NamedTuple):
    benchmark: BenchmarkSet
    skipped: int


@contextmanager
def _open_text(source: str | Path | TextIO, mode: str = "r"):
    """Opens a path as UTF-8 text, written without a byte-order mark, or
    passes an open stream through unclosed. Read, either yields its lines
    past one leading byte-order mark."""
    with (open(source, mode, encoding="utf-8")
          if isinstance(source, (str, Path)) else nullcontext(source)) as stream:
        yield stream if mode != "r" else chain(
            [stream.readline().removeprefix("\ufeff")], stream)


def _iter_records(stream: TextIO, fmt: str) -> Iterator[tuple[int, str, str, str]]:
    """Yields (line number, user, item, rating text) per record; every
    field is stripped of surrounding whitespace, in both formats."""
    sep, width, expected = (
        ("::", 4, "UserID::MovieID::Rating::Timestamp") if fmt == MOVIELENS
        else (",", 3, "user_id,item_id,rating"))
    for lineno, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(sep)]
        if len(parts) != width:
            raise IngestError(f"expected {expected}", lineno)
        yield lineno, parts[0], parts[1], parts[2]


def ingest_ratings(source: str | Path | TextIO, fmt: str = GENERIC_CSV) -> IngestResult:
    """Parse a ratings file into a graph plus external-id maps.

    Formats: "csv" (comma separated, optional `user_id,item_id,rating`
    header, `#` comment lines skipped) and "movielens"
    (`UserID::MovieID::Rating::Timestamp`, timestamp ignored).

    External ids are opaque non-empty strings mapped to dense indices in
    order of first appearance. A file without rating records, an empty id,
    duplicate (user, item) records and ratings outside [1, 5] are errors.
    """
    _require(fmt in FORMATS,
             f"unknown format {fmt!r}; expected one of {FORMATS}")

    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    ratings: list[float] = []

    with _open_text(source) as stream:
        records = enumerate(_iter_records(stream, fmt))
        for n, (lineno, uid, iid, rtext) in records:
            if n == 0 and fmt == GENERIC_CSV and (
                    (uid.lower(), iid.lower(), rtext.lower()) == _CSV_HEADER):
                continue
            if not (uid and iid):
                raise IngestError(f"empty {'item' if uid else 'user'} id", lineno)
            try:
                rating = float(rtext)
            except ValueError:
                raise IngestError(f"malformed rating {rtext!r}", lineno) from None
            if not (RATING_MIN <= rating <= RATING_MAX):
                raise IngestError(
                    f"rating out of bounds: {rating:g} not in "
                    f"[{RATING_MIN:g}, {RATING_MAX:g}]",
                    lineno,
                )
            u = user_index.setdefault(uid, len(user_index))
            i = item_index.setdefault(iid, len(item_index))
            users.append(u)
            items.append(i)
            ratings.append(rating)

    if not ratings:
        raise IngestError("no ratings found")
    user_map = IdMap.from_ids(user_index)
    item_map = IdMap.from_ids(item_index)
    try:
        graph = RatingGraph.build(len(user_map), len(item_map),
                                  users, items, ratings)
    except DuplicatePairError as exc:
        raise IngestError(
            f"duplicate (user, item) pair: ({user_map.external(exc.user)!r}, "
            f"{item_map.external(exc.item)!r})"
        ) from None
    return IngestResult(graph, user_map, item_map)


def write_ratings_csv(
    graph: RatingGraph,
    dest: str | Path | TextIO,
    user_map: IdMap | None = None,
    item_map: IdMap | None = None,
) -> None:
    """Serialize a graph in the generic CSV format; re-ingesting reproduces it.

    Without id maps, dense indices are written as the external ids. An id
    map of the wrong length, or an id the reader would not read back as
    itself (empty, with a comma, line break or surrounding whitespace, or a
    user id led by `#`), is an error raised before `dest` is opened.
    """
    for side, id_map, n in (("user", user_map, graph.num_users),
                            ("item", item_map, graph.num_items)):
        if id_map is not None and len(id_map) != n:
            raise ValueError(f"{side} map holds {len(id_map)} ids for "
                             f"{n} {side}s")
        for ext in id_map.ids if id_map else ():
            if (not ext or any(c in ext for c in ",\n\r") or ext != ext.strip()
                    or (side == "user" and ext.startswith("#"))):
                raise ValueError(f"external id {ext!r} cannot be written "
                                 "to a ratings CSV")
    with _open_text(dest, "w") as stream:
        stream.write("user_id,item_id,rating\n")
        for u, i, r in zip(graph.users, graph.items, graph.ratings):
            uid = user_map.external(int(u)) if user_map else str(int(u))
            iid = item_map.external(int(i)) if item_map else str(int(i))
            stream.write(f"{uid},{iid},{float(r)!r}\n")


def load_benchmark(source: str | Path | TextIO, item_map: IdMap) -> BenchmarkLoad:
    """Read a benchmark item list (one external id per line).

    A line that names an item is that item, even one starting with `#`;
    any other line starting with `#` is a comment, and blank lines are
    ignored. Other ids not in the item map are skipped and counted; an
    all-unknown or empty file is an error.
    """
    resolved: set[int] = set()
    skipped = 0
    with _open_text(source) as stream:
        for raw in stream:
            line = raw.strip()
            idx = item_map.resolve(line) if line else None
            if idx is not None:
                resolved.add(idx)
            elif line and not line.startswith("#"):
                skipped += 1
    return BenchmarkLoad(BenchmarkSet(frozenset(resolved)), skipped)
