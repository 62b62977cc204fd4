"""Core ordinal data types: permutations, partial rankings, classes, instances.

Elements are the integers ``1..n``.  A permutation assigns each element a
rank in ``1..n`` (rank 1 is best).  A partial ranking is an ordered list of
tie buckets; tied elements share the fractional position

    position(x) = #{ranked strictly higher} + (bucket size + 1) / 2,

which coincides with the rank on total orders.  Positions are kept as exact
half-integers (``Fraction`` with denominator 1 or 2) so comparisons never
hit floating-point ties.

A permutation is built from its ranks (``Permutation(ranks)``) or its
best-to-worst order (``Permutation.from_order``), a partial ranking from its
buckets (``PartialRanking.from_buckets``), and ``as_partial`` promotes either
kind to a partial ranking.  All types are immutable after construction and
validate their invariants in ``__post_init__``, raising ``RankingError``;
they are safe to share across threads or processes.  An
instance carries two read-only array views, each built on first use: the
member view ``Instance.member_tw`` of twice-positions, and from it the
pairwise-count view ``Instance.above_counts``, the one place members'
pairwise orders are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

#: element budget of an array kernel's temporaries (distances, counts, LP blocks)
BLOCK_ELEMENTS = 1 << 16


class RankingError(ValueError):
    """A ranking, class or instance is invalid, or an element is out of range."""


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
        seen = [False] * n
        for r in self.ranks:
            if not isinstance(r, int):
                raise RankingError(f"rank {r!r} is not an integer")
            if r < 1 or r > n:
                raise RankingError(f"rank {r} outside 1..{n}")
            if seen[r - 1]:
                raise RankingError(f"rank {r} appears more than once")
            seen[r - 1] = True

    @property
    def n(self) -> int:
        return len(self.ranks)

    def rank_of(self, x: int) -> int:
        """Rank of element x (1-based)."""
        if not 1 <= x <= self.n:
            raise RankingError(f"element {x} outside 1..{self.n}")
        return self.ranks[x - 1]

    def inverse(self) -> "Permutation":
        """The inverse permutation: entry t holds the element ranked t."""
        inv = [0] * self.n
        for x, r in enumerate(self.ranks, start=1):
            inv[r - 1] = x
        return Permutation(tuple(inv))

    def order(self) -> tuple[int, ...]:
        """Elements listed best-to-worst (the inverse as a sequence)."""
        return self.inverse().ranks

    def to_partial(self) -> "PartialRanking":
        """Equivalent partial ranking with one element per bucket."""
        return PartialRanking(tuple(frozenset((x,)) for x in self.order()))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_order(cls, order: Sequence[int]) -> "Permutation":
        """Build from a best-to-worst listing of the elements."""
        n = len(order)
        ranks = [0] * n
        for pos, x in enumerate(order, start=1):
            if not isinstance(x, int) or not 1 <= x <= n:
                raise RankingError(f"element {x!r} outside 1..{n}")
            if ranks[x - 1] != 0:
                raise RankingError(f"element {x} listed more than once")
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
        twice = [0] * n
        higher = 0
        for b in self.buckets:
            if not b:
                raise RankingError("empty bucket")
            for x in b:
                if not isinstance(x, int) or not 1 <= x <= n:
                    raise RankingError(f"element {x!r} outside 1..{n}")
                if twice[x - 1] != 0:
                    raise RankingError(f"element {x} appears in more than one bucket")
                twice[x - 1] = 2 * higher + len(b) + 1
            higher += len(b)
        object.__setattr__(self, "_twice_positions", tuple(twice))

    @property
    def n(self) -> int:
        return len(self._twice_positions)

    def position(self, x: int) -> Fraction:
        """Fractional position of element x; half-integer valued."""
        if not 1 <= x <= self.n:
            raise RankingError(f"element {x} outside 1..{self.n}")
        return Fraction(self._twice_positions[x - 1], 2)

    def tied_pair_count(self) -> int:
        """Number of unordered pairs sharing a bucket."""
        return sum(len(b) * (len(b) - 1) // 2 for b in self.buckets)

    @classmethod
    def from_buckets(cls, buckets: Iterable[Iterable[int]]) -> "PartialRanking":
        return cls(tuple(frozenset(b) for b in buckets))


Ranking = Union[Permutation, PartialRanking]


def as_partial(r: Ranking) -> PartialRanking:
    """Promote a permutation to a singleton-bucket partial ranking."""
    return r.to_partial() if isinstance(r, Permutation) else r


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


@dataclass(frozen=True)
class RankingClass:
    """A set of rankings sharing a violation cost weight.

    Members must be all permutations or all partial rankings, over a common
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
        kind = type(self.members[0])
        for m in self.members:
            if m.n != n:
                raise RankingError("members have differing ground-set sizes")
            if type(m) is not kind:
                raise RankingError("members mix permutations and partial rankings")
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
