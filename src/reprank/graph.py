"""Sparse bipartite rating network: data model, ingestion, benchmark lists.

A rating network connects users to the items they rated; the link weight is
the rating value on the 5-star scale. The graph is immutable after
construction and stores links twice (grouped by user and grouped by item) so
per-user and per-item aggregations are both cheap.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
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


class DuplicatePairError(ValueError):
    """A (user, item) pair occurs twice. Carries the pair's dense indices."""

    def __init__(self, user: int, item: int):
        super().__init__(f"duplicate (user, item) pair: ({user}, {item})")
        self.user = user
        self.item = item


@dataclass(frozen=True, eq=False)
class RatingGraph:
    """Immutable bipartite rating network with dense 0-based indices.

    Links are kept in canonical order (sorted by user, then item); `by_item`
    is the permutation that regroups them by item. Both groupings are CSR
    style: links of user u live at positions user_ptr[u]:user_ptr[u+1].
    """

    num_users: int
    num_items: int
    users: np.ndarray      # link user indices, canonical order
    items: np.ndarray      # link item indices, canonical order
    ratings: np.ndarray    # link weights, canonical order
    user_ptr: np.ndarray   # CSR offsets over canonical order, len num_users+1
    by_item: np.ndarray    # permutation sorting links by (item, user)
    item_ptr: np.ndarray   # CSR offsets over by_item order, len num_items+1

    @classmethod
    def build(
        cls,
        num_users: int,
        num_items: int,
        users: Iterable[int],
        items: Iterable[int],
        ratings: Iterable[float],
    ) -> "RatingGraph":
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        ratings = np.asarray(ratings, dtype=np.float64)
        if not (users.shape == items.shape == ratings.shape) or users.ndim != 1:
            raise ValueError("users, items and ratings must be 1-D and equally long")
        if num_users < 0 or num_items < 0:
            raise ValueError("negative node count")
        if users.size:
            if users.min() < 0 or users.max() >= num_users:
                raise ValueError("user index out of range")
            if items.min() < 0 or items.max() >= num_items:
                raise ValueError("item index out of range")
            if ratings.min() < RATING_MIN or ratings.max() > RATING_MAX:
                raise ValueError(
                    f"rating out of bounds [{RATING_MIN:g}, {RATING_MAX:g}]"
                )

        order = np.lexsort((items, users))
        users = users[order]
        items = items[order]
        ratings = ratings[order]
        if users.size > 1:
            same = (users[1:] == users[:-1]) & (items[1:] == items[:-1])
            if same.any():
                k = int(np.flatnonzero(same)[0])
                raise DuplicatePairError(int(users[k]), int(items[k]))

        user_ptr = np.zeros(num_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=num_users), out=user_ptr[1:])
        by_item = np.lexsort((users, items))
        item_ptr = np.zeros(num_items + 1, dtype=np.int64)
        np.cumsum(np.bincount(items, minlength=num_items), out=item_ptr[1:])

        for a in (users, items, ratings, user_ptr, by_item, item_ptr):
            a.setflags(write=False)
        return cls(num_users, num_items, users, items, ratings,
                   user_ptr, by_item, item_ptr)

    # -- derived views -------------------------------------------------

    @property
    def num_links(self) -> int:
        return int(self.users.size)

    @property
    def user_degrees(self) -> np.ndarray:
        return np.diff(self.user_ptr)

    @property
    def item_degrees(self) -> np.ndarray:
        return np.diff(self.item_ptr)

    @property
    def sparsity(self) -> float:
        denom = self.num_users * self.num_items
        return self.num_links / denom if denom else 0.0

    def with_ratings(self, ratings: np.ndarray) -> "RatingGraph":
        """Copy of this graph with new link weights, topology unchanged."""
        ratings = np.asarray(ratings, dtype=np.float64)
        if ratings.shape != self.ratings.shape:
            raise ValueError("ratings length must match link count")
        if ratings.size and (ratings.min() < RATING_MIN or ratings.max() > RATING_MAX):
            raise ValueError(
                f"rating out of bounds [{RATING_MIN:g}, {RATING_MAX:g}]"
            )
        ratings = ratings.copy()
        ratings.setflags(write=False)
        return dataclasses.replace(self, ratings=ratings)

    def equals(self, other: "RatingGraph") -> bool:
        """Exact equality: same shape, same links, bit-equal ratings."""
        return (
            self.num_users == other.num_users
            and self.num_items == other.num_items
            and np.array_equal(self.users, other.users)
            and np.array_equal(self.items, other.items)
            and np.array_equal(self.ratings, other.ratings)
        )


@dataclass(frozen=True)
class IdMap:
    """Bijection between external string ids and dense 0-based indices."""

    ids: tuple[str, ...]
    index: dict[str, int] = field(repr=False)

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "IdMap":
        ids = tuple(ids)
        index = {ext: i for i, ext in enumerate(ids)}
        if len(index) != len(ids):
            raise ValueError("external ids must be unique")
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
        if not self.item_indices:
            raise ValueError("empty benchmark set")
        if any(i < 0 for i in self.item_indices):
            raise ValueError("negative item index in benchmark set")

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
    """Opens a path as UTF-8 text, or passes an open stream through
    without closing it."""
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding="utf-8") as stream:
            yield stream
    else:
        yield source


def _iter_records(stream: TextIO, fmt: str) -> Iterator[tuple[int, str, str, str]]:
    for lineno, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if fmt == MOVIELENS:
            parts = line.split("::")
            if len(parts) != 4:
                raise IngestError(
                    "expected UserID::MovieID::Rating::Timestamp", lineno
                )
            yield lineno, parts[0], parts[1], parts[2]
        else:
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise IngestError("expected user_id,item_id,rating", lineno)
            yield lineno, parts[0], parts[1], parts[2]


def ingest_ratings(source: str | Path | TextIO, fmt: str = GENERIC_CSV) -> IngestResult:
    """Parse a ratings file into a graph plus external-id maps.

    Formats: "csv" (comma separated, optional `user_id,item_id,rating`
    header, `#` comment lines skipped) and "movielens"
    (`UserID::MovieID::Rating::Timestamp`, timestamp ignored).

    External ids are opaque strings mapped to dense indices in order of
    first appearance. A file without rating records, duplicate (user, item)
    records and ratings outside [1, 5] are errors.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")

    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    ratings: list[float] = []

    with _open_text(source) as stream:
        first = True
        for lineno, uid, iid, rtext in _iter_records(stream, fmt):
            if first and fmt == GENERIC_CSV:
                first = False
                if (uid.lower(), iid.lower(), rtext.lower()) == _CSV_HEADER:
                    continue
            first = False
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

    Without id maps, dense indices are written as the external ids. An
    external id that the CSV reader would not read back as itself, one
    holding a comma or surrounding whitespace, is an error.
    """
    for id_map in (user_map, item_map):
        for ext in id_map.ids if id_map else ():
            if "," in ext or ext != ext.strip():
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

    Ids not present in the graph's item map are skipped and counted;
    an all-unknown or empty file is an error.
    """
    resolved: set[int] = set()
    skipped = 0
    with _open_text(source) as stream:
        for raw in stream:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            idx = item_map.resolve(line)
            if idx is None:
                skipped += 1
            else:
                resolved.add(idx)
    if not resolved:
        raise ValueError("empty benchmark set")
    return BenchmarkLoad(BenchmarkSet(frozenset(resolved)), skipped)
