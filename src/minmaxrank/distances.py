"""Pairwise and rank-set distances, and the minmax objective.

Two distances are supported, each on permutations and partial rankings
alike:

* Kendall tau -- pairs ordered oppositely count 1; on partial rankings,
  Kemeny's generalization also counts a pair tied in exactly one of the two
  rankings 1/2.
* Spearman footrule -- the sum of absolute rank differences; on partial
  rankings, the partial footrule over fractional tie positions.

Both generalizations are those of Fagin et al., "Comparing and aggregating
rankings with ties" (PODS 2004), and equal the plain distances on
permutations.  One exact integer kernel, ``doubled_distances``, computes
either: twice a distance is an L1 distance between rows of twice-positions
(footrule) or of pair signs (Kendall tau).  The footrule is summed as a
broadcast; the pair-sign L1 distance is taken as an inner product of lifted
sign rows, one float64 product per block.  Values are exact half-integer
Fractions.  A class costs the mean (median) or the least (minimum) distance
to its members, times its weight; the minmax objective is the worst class.
``class_cost_reduction`` is the one reduction from twice distances to exact
scaled class costs (int64 while a proven bound allows, Python ints beyond
it), and ``scaled_class_costs`` applies it to one kernel call against the
instance's member view.  Rankings over unequal ground sets raise
``DistanceError``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise

import numpy as np

from .rankings import (
    BLOCK_ELEMENTS,
    Instance,
    Ranking,
    RankingClass,
    twice_positions,
)


class DistanceError(ValueError):
    """A distance does not apply to the given rankings or instance."""


class DistanceKind(Enum):
    """The two distance families, each measuring partial rankings too.

    ``KEMENY`` and ``PARTIAL_FOOTRULE`` are aliases of ``KENDALL_TAU`` and
    ``SPEARMAN_FOOTRULE`` (the same members), kept because the benchmark's
    ``oracle-ties`` workload names them.
    """

    KENDALL_TAU = "kendall-tau"
    SPEARMAN_FOOTRULE = "spearman-footrule"
    KEMENY = "kendall-tau"
    PARTIAL_FOOTRULE = "spearman-footrule"

    @property
    def positional(self) -> bool:
        """True for the footrule."""
        return self is DistanceKind.SPEARMAN_FOOTRULE


class SetDistanceKind(Enum):
    MEDIAN = "median"
    MINIMUM = "minimum"


def _check(p: Ranking, q: Ranking) -> None:
    if p.n != q.n:
        raise DistanceError(f"rankings over {p.n} and {q.n} elements")


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


def doubled_distances(p: np.ndarray, q: np.ndarray, positional: bool) -> np.ndarray:
    """(len p, len q) int64 array of twice the distance between rows.

    ``p`` and ``q`` are twice-position arrays (``rankings.twice_positions``).
    Twice the footrule is the L1 distance between them, summed as a
    broadcast.  Twice the Kendall tau is the L1 distance between their
    pair signs, since an opposite pair differs by 2 and a pair tied in
    exactly one ranking by 1.  For signs a, b in {-1, 0, 1},
    |a - b| = |a| + |b| - (ab + |a||b|), so that is
    nnz(s_p) + nnz(s_q) - [s_p, |s_p|] . [s_q, |s_q|]: one float64 inner
    product per block, exact because every partial sum is an integer of
    magnitude at most n(n - 1).  Rows are taken in blocks, and the pairs in
    chunks once a block of lifted rows would not fit, so no temporary
    exceeds BLOCK_ELEMENTS elements, however many rows there are.
    """
    if positional:
        out = np.empty((len(p), len(q)), dtype=np.int64)
        width = max(1, p.shape[1])
        q_rows = max(1, min(len(q), BLOCK_ELEMENTS // width))
        p_rows = max(1, BLOCK_ELEMENTS // (q_rows * width))
        for j in range(0, len(q), q_rows):
            q_block = q[None, j:j + q_rows]
            for i in range(0, len(p), p_rows):
                out[i:i + p_rows, j:j + q_rows] = np.abs(
                    p[i:i + p_rows, None] - q_block
                ).sum(axis=2)
        return out
    p, q = pair_signs(p), pair_signs(q)
    nnz = np.count_nonzero(p, axis=1)[:, None] + np.count_nonzero(q, axis=1)
    out = nnz.astype(np.int64, copy=False)
    width = p.shape[1]
    # a block of rows x cols signs lifts to rows x 2 cols floats, and the
    # product of a p block and a q block is p_rows x q_rows
    q_rows = max(1, min(len(q), math.isqrt(BLOCK_ELEMENTS)))
    cols = max(1, min(width, BLOCK_ELEMENTS // (2 * q_rows)))
    p_rows = max(1, min(BLOCK_ELEMENTS // (2 * cols), BLOCK_ELEMENTS // q_rows))
    for j in range(0, len(q), q_rows):
        for c in range(0, width, cols):
            q_block = _lift(q[j:j + q_rows, c:c + cols])
            for i in range(0, len(p), p_rows):
                dot = _lift(p[i:i + p_rows, c:c + cols]) @ q_block.T
                block = out[i:i + p_rows, j:j + q_rows]
                np.subtract(block, dot, out=block, casting="unsafe")
    return out


def _lift(signs: np.ndarray) -> np.ndarray:
    """[s, |s|] of an int8 sign block, as float64 for the inner product."""
    return np.concatenate([signs, np.abs(signs)], axis=1, dtype=np.float64)


def distance(p: Ranking, q: Ranking, kind: DistanceKind) -> Fraction:
    """The distance of ``kind`` between two rankings over one ground set."""
    if not isinstance(kind, DistanceKind):
        raise DistanceError(f"unknown distance kind {kind!r}")
    _check(p, q)
    d2 = doubled_distances(twice_positions([p]), twice_positions([q]), kind.positional)
    return Fraction(int(d2[0, 0]), 2)


def set_distance(
    p: Ranking,
    cls: RankingClass,
    kind: DistanceKind,
    set_kind: SetDistanceKind,
) -> Fraction:
    """Distance to a class: mean or minimum over members, one pair at a time."""
    ds = [distance(p, member, kind) for member in cls.members]
    if set_kind is SetDistanceKind.MEDIAN:
        return Fraction(sum(ds), cls.m)
    return Fraction(min(ds))


def class_cost_reduction(
    inst: Instance, set_kind: SetDistanceKind
) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """The one reduction from twice distances to exact weighted class costs.

    Returns a function of a (rows, M) int64 array of twice the distances
    to the members of ``inst.member_tw``, giving the (rows, C) array whose
    entry [g, k], over the returned scale, is weight_k * set_distance(row g,
    class k).  The scale is the least common denominator of the factors
    weight / 2m (median) or weight / 2 (minimum) that turn twice the
    distances into costs.

    Twice either distance is at most n²: Kendall tau counts at most 2
    per pair, and each twice-position row lies within floor(n²/2) of
    n + 1 in L1 (ties average ranks, and |.| is convex).  So a scaled class
    cost is at most n² · max m · max integer factor.  Below 2**63 the costs
    are int64; otherwise they are Python ints in an object array.  Both go
    through the same operations, so callers need not tell them apart, but
    must pass a Python ``int`` to ``Fraction``.
    """
    median = set_kind is SetDistanceKind.MEDIAN
    reduce = np.add.reduce if median else np.minimum.reduce
    # factor k is nums[k] / dens[k], kept in integers: Fraction arithmetic
    # would cost more than reducing one row
    nums = [cls.weight.numerator for cls in inst.classes]
    dens = [cls.weight.denominator * (2 * cls.m if median else 2) for cls in inst.classes]
    scale = math.lcm(*(d // math.gcd(a, d) for a, d in zip(nums, dens)))
    int_factors = [a * scale // d for a, d in zip(nums, dens)]
    sizes = [cls.m for cls in inst.classes]
    bound = inst.n ** 2 * max(sizes) * max(int_factors)
    dtype = np.int64 if bound < 2**63 else object
    weights = np.array(int_factors, dtype=dtype)[:, None]
    spans = list(pairwise((*inst.class_starts, sum(sizes))))

    def costs(d2: np.ndarray) -> np.ndarray:
        # class by class over the members' columns: contiguous when d2 is
        # the transpose of a C-ordered array, as the exact oracle makes it
        per_class = np.empty((len(spans), len(d2)), dtype=d2.dtype)
        for k, (a, b) in enumerate(spans):
            reduce(d2.T[a:b], axis=0, out=per_class[k])
        return (per_class.astype(dtype, copy=False) * weights).T

    return costs, scale


def scaled_class_costs(
    rows: np.ndarray, inst: Instance, kind: DistanceKind, set_kind: SetDistanceKind
) -> tuple[np.ndarray, int]:
    """Exact weighted class costs of twice-position rows, and their scale.

    One ``doubled_distances`` call against the instance's member view,
    reduced by ``class_cost_reduction``.
    """
    costs, scale = class_cost_reduction(inst, set_kind)
    return costs(doubled_distances(rows, inst.member_tw, kind.positional)), scale


def minmax_objective(
    p: Ranking,
    inst: Instance,
    kind: DistanceKind,
    set_kind: SetDistanceKind,
) -> Fraction:
    """max over classes of weight * set_distance -- the quantity minimized.

    One member checks ``p``'s size: classes share n.
    """
    _check(p, inst.classes[0].members[0])
    costs, scale = scaled_class_costs(twice_positions([p]), inst, kind, set_kind)
    return Fraction(int(costs.max()), scale)
