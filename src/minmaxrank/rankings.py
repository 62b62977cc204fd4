"""Core ordinal data types: permutations, partial rankings, classes, instances.

Elements are the integers ``1..n``.  A permutation assigns each element a
rank in ``1..n`` (rank 1 is best).  A partial ranking is an ordered list of
tie buckets; tied elements share the fractional position

    position(x) = #{ranked strictly higher} + (bucket size + 1) / 2,

which coincides with the rank on total orders.  Positions are kept doubled,
as integers (``twice_positions``), so half-integers stay exact and
comparisons never hit floating-point ties.

A permutation is built from its ranks (``Permutation(ranks)``) or its
best-to-worst order (``Permutation.from_order``), a partial ranking from
its buckets (``PartialRanking.from_buckets``).  Every algorithm and
distance reads either kind through ``twice_positions``, so a class may mix
them.  All types are immutable after construction and validate their
invariants in ``__post_init__``, raising ``RankingError``; they are safe
to share across threads or processes.  An instance carries three read-only
array views, each built on first use: the member view
``Instance.member_tw`` of twice-positions, and from it the members' pair
signs ``Instance.member_signs`` (this module's ``pair_signs``), which
every member-level Kendall distance reads, and the pairwise-count view
``Instance.above_counts``, the one place members' pairwise orders are
counted.  This module imports no other module of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

#: element budget of an array kernel's temporaries (distances, counts, LP blocks)
BLOCK_ELEMENTS = 1 << 16


class RankingError(ValueError):
    """A ranking, class or instance is invalid, or an element is out of range."""


def _check_ids(ids: Iterable, n: int, noun: str, repeated: str) -> None:
    """Raise RankingError unless each of ``ids`` is an int in 1..n, and none
    is repeated; ``noun`` and ``repeated`` word the messages."""
    seen = [False] * n
    for x in ids:
        if not isinstance(x, int):
            raise RankingError(f"{noun} {x!r} is not an integer")
        if not 1 <= x <= n:
            raise RankingError(f"{noun} {x} outside 1..{n}")
        if seen[x - 1]:
            raise RankingError(f"{noun} {x} {repeated}")
        seen[x - 1] = True


@dataclass(frozen=True)
class Permutation:
    """A bijection from elements 1..n to ranks 1..n.

    ``ranks[i]`` is the rank of element ``i + 1`` (storage is 0-based,
    elements are 1-based).
    """

    ranks: tuple[int, ...]

    def __post_init__(self):
        n = len(self.ranks)
        if n < 1:
            raise RankingError("permutation must have at least one element")
        _check_ids(self.ranks, n, "rank", "appears more than once")

    @property
    def n(self) -> int:
        return len(self.ranks)

    def inverse(self) -> "Permutation":
        """The inverse permutation: entry t holds the element ranked t."""
        return Permutation(self.order())

    def order(self) -> tuple[int, ...]:
        """Elements listed best-to-worst (the inverse as a sequence)."""
        order = [0] * self.n
        for x, r in enumerate(self.ranks, start=1):
            order[r - 1] = x
        return tuple(order)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_order(cls, order: Sequence[int]) -> "Permutation":
        """Build from a best-to-worst listing of the elements."""
        _check_ids(order, len(order), "element", "listed more than once")
        ranks = [0] * len(order)
        for pos, x in enumerate(order, start=1):
            ranks[x - 1] = pos
        return cls(tuple(ranks))


@dataclass(frozen=True)
class PartialRanking:
    """An ordered partition of 1..n into nonempty tie buckets."""

    buckets: tuple[frozenset[int], ...]
    # 2 * position(x), indexed by element - 1; half-integers stay exact.
    _twice_positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = sum(len(b) for b in self.buckets)
        if n < 1:
            raise RankingError("partial ranking must have at least one element")
        if not all(self.buckets):
            raise RankingError("empty bucket")
        _check_ids((x for b in self.buckets for x in b), n, "element",
                   "appears in more than one bucket")
        twice, higher = [0] * n, 0
        for b in self.buckets:
            for x in b:
                twice[x - 1] = 2 * higher + len(b) + 1
            higher += len(b)
        object.__setattr__(self, "_twice_positions", tuple(twice))

    @property
    def n(self) -> int:
        return len(self._twice_positions)

    @classmethod
    def from_buckets(cls, buckets: Iterable[Iterable[int]]) -> "PartialRanking":
        return cls(tuple(frozenset(b) for b in buckets))


Ranking = Union[Permutation, PartialRanking]


def twice_positions(rankings: Sequence[Ranking]) -> np.ndarray:
    """(len, n) int64 array: row g holds twice each position in ranking g.

    Columns are elements - 1.  Permutation rows are twice the ranks;
    partial-ranking rows are the doubled half-integer tie positions.  All
    rankings must share one ground set.
    """
    return np.array(
        [
            [2 * r for r in ranking.ranks]
            if isinstance(ranking, Permutation)
            else ranking._twice_positions
            for ranking in rankings
        ],
        dtype=np.int64,
    )


@lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


def pair_signs(tw: np.ndarray) -> np.ndarray:
    """(len, n(n-1)/2) int8 array of sign(tw[:, x] - tw[:, y]) over pairs x < y.

    -1 means x is ranked above y, 1 below, 0 tied.  ``tw`` is any
    non-negative int array: twice-positions, ranks or a permutation table.
    The pair columns are gathered in the narrowest dtype that holds its
    largest entry and compared, not subtracted, so no int64 temporary of
    the result's size is built.
    """
    x, y = _pairs(tw.shape[1])
    narrow = tw.astype(np.min_scalar_type(int(tw.max(initial=0))))
    first, second = narrow.take(x, axis=1), narrow.take(y, axis=1)
    return (first > second).view(np.int8) - (first < second).view(np.int8)


@dataclass(frozen=True)
class RankingClass:
    """A set of rankings sharing a violation cost weight.

    Members may be permutations, partial rankings or both, over a common
    ground set.  The weight is kept as an exact Fraction.
    """

    members: tuple[Ranking, ...]
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        if not self.members:
            raise RankingError("ranking class must have at least one member")
        object.__setattr__(self, "weight", Fraction(self.weight))
        if self.weight <= 0:
            raise RankingError(f"class weight must be positive, got {self.weight}")
        n = self.members[0].n
        if any(m.n != n for m in self.members):
            raise RankingError("members have differing ground-set sizes")
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def m(self) -> int:
        return len(self.members)

    @property
    def n(self) -> int:
        return self.members[0].n


@dataclass(frozen=True)
class Instance:
    """A multiclass aggregation input: C weighted classes over 1..n."""

    n: int
    classes: tuple[RankingClass, ...]

    def __post_init__(self):
        if not self.classes:
            raise RankingError("instance must have at least one class")
        for cls in self.classes:
            if cls.n != self.n:
                raise RankingError(
                    f"class over {cls.n} elements in an instance over {self.n}"
                )
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def member_tw(self) -> np.ndarray:
        """(M, n) read-only ``twice_positions`` of all members, class by class."""
        tw = twice_positions([member for _, _, member in self.iter_members()])
        tw.flags.writeable = False
        return tw

    @cached_property
    def member_signs(self) -> np.ndarray:
        """(M, n(n-1)/2) read-only int8 ``pair_signs`` of ``member_tw``."""
        signs = pair_signs(self.member_tw)
        signs.flags.writeable = False
        return signs

    @cached_property
    def above_counts(self) -> np.ndarray:
        """(C, n, n) read-only int64 array: members of class k ranking x+1
        strictly above y+1, so tied pairs count in neither direction.

        It is summed over blocks of members whose (members, n, n) comparison
        stays within BLOCK_ELEMENTS (one member once n² is larger).
        """
        n = self.n
        step = max(1, BLOCK_ELEMENTS // (n * n))
        counts = np.zeros((self.num_classes, n, n), dtype=np.int64)
        for k, tw in enumerate(np.split(self.member_tw, self.class_starts[1:])):
            for i in range(0, len(tw), step):
                block = tw[i:i + step]
                counts[k] += (block[:, :, None] < block[:, None, :]).sum(axis=0)
        counts.flags.writeable = False
        return counts

    @cached_property
    def class_starts(self) -> tuple[int, ...]:
        """The ``member_tw`` row of each class's first member."""
        return tuple(accumulate((cls.m for cls in self.classes[:-1]), initial=0))

    def iter_members(self) -> Iterator[tuple[int, int, Ranking]]:
        """Yield (class index, member index, ranking) over all members."""
        for k, cls in enumerate(self.classes):
            for i, member in enumerate(cls.members):
                yield k, i, member
