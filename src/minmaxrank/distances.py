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
permutations.  Each has one exact integer kernel: twice a distance is an
L1 distance between rows of twice-positions (the footrule,
``doubled_distances``) or of pair signs (Kendall tau, ``sign_distances``;
the signs come from ``rankings.pair_signs``, which this module
re-exports).  The footrule is summed as a broadcast; the pair-sign L1
distance is taken as an inner product of lifted sign rows, one float64
product per block.  ``distance`` picks the kernel by kind.  Values are
exact half-integer Fractions.  A class costs the mean (median) or the
least (minimum) distance to its members, times its weight; the minmax
objective is the worst class.  ``class_cost_reduction`` is the one
reduction from twice distances to exact scaled class costs (int64 while a
proven bound allows, Python ints beyond it), and ``least_worst`` the one
pick of a first row of least worst class cost.  ``scaled_class_costs``
gives the costs of any rows: under the median Kendall distance from the
instance's pairwise counts ``Instance.above_counts``, in O(C n²) a row,
since a class's summed distance is linear in a row's pair orders;
otherwise through one kernel call against the instance's member view
(``member_tw``, or the members' pair signs ``member_signs``), which
``member_distances`` also reads for the members' own distances.  Unequal
ground sets and unknown set distance kinds raise ``DistanceError``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from fractions import Fraction
from itertools import pairwise

import numpy as np

from .rankings import (
    BLOCK_ELEMENTS,
    Instance,
    Ranking,
    RankingClass,
    pair_signs,
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


def _check_set_kind(set_kind: SetDistanceKind) -> None:
    if not isinstance(set_kind, SetDistanceKind):
        raise DistanceError(f"unknown set distance kind {set_kind!r}")


def doubled_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(len p, len q) int64 twice footrule distances between rows.

    ``p`` and ``q`` are twice-position arrays (``rankings.twice_positions``).
    Twice the footrule is the L1 distance between them, summed as a
    broadcast, with rows taken in blocks so that no temporary exceeds
    BLOCK_ELEMENTS elements.
    """
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


def sign_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(len p, len q) int64 twice Kendall distances between pair-sign rows.

    ``p`` and ``q`` are ``pair_signs`` rows.  Twice the Kendall tau is the
    L1 distance between pair signs, since an opposite pair differs by 2 and
    a pair tied in exactly one ranking by 1.  For signs a, b in {-1, 0, 1},
    |a - b| = |a| + |b| - (ab + |a||b|), so that is
    nnz(s_p) + nnz(s_q) - [s_p, |s_p|] . [s_q, |s_q|]: one float64 inner
    product per block, exact because every partial sum is an integer of
    magnitude at most n(n - 1).  Rows are taken in blocks, and the pairs in
    chunks once a block of lifted rows would not fit, so no temporary
    exceeds BLOCK_ELEMENTS elements, however many rows there are.
    """
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
    tp, tq = twice_positions([p]), twice_positions([q])
    if kind.positional:
        d2 = doubled_distances(tp, tq)
    else:
        d2 = sign_distances(pair_signs(tp), pair_signs(tq))
    return Fraction(int(d2[0, 0]), 2)


def set_distance(
    p: Ranking,
    cls: RankingClass,
    kind: DistanceKind,
    set_kind: SetDistanceKind,
) -> Fraction:
    """Distance to a class: mean or minimum over members, one pair at a time."""
    _check_set_kind(set_kind)
    ds = [distance(p, member, kind) for member in cls.members]
    if set_kind is SetDistanceKind.MEDIAN:
        return Fraction(sum(ds), cls.m)
    return Fraction(min(ds))


def _class_factors(inst: Instance, set_kind: SetDistanceKind) -> tuple[np.ndarray, int]:
    """The (C, 1) integer factors that turn twice distances into exact
    weighted class costs, and their scale.

    Factor k over the scale is weight_k / 2m_k (median), applied to class
    k's summed twice distance, or weight_k / 2 (minimum), applied to its
    least one; the scale is the least common denominator of these.

    Twice either distance is at most n²: Kendall tau counts at most 2
    per pair, and each twice-position row lies within floor(n²/2) of
    n + 1 in L1 (ties average ranks, and |.| is convex).  So a scaled class
    cost is at most n² · max m · max integer factor.  Below 2**63 the
    factors are int64; otherwise they are Python ints in an object array,
    and so are the costs scaled by them.
    """
    _check_set_kind(set_kind)
    median = set_kind is SetDistanceKind.MEDIAN
    # factor k is nums[k] / dens[k], kept in integers: Fraction arithmetic
    # would cost more than reducing one row
    nums = [cls.weight.numerator for cls in inst.classes]
    dens = [cls.weight.denominator * (2 * cls.m if median else 2) for cls in inst.classes]
    scale = math.lcm(*(d // math.gcd(a, d) for a, d in zip(nums, dens)))
    int_factors = [a * scale // d for a, d in zip(nums, dens)]
    bound = inst.n ** 2 * max(cls.m for cls in inst.classes) * max(int_factors)
    dtype = np.int64 if bound < 2**63 else object
    return np.array(int_factors, dtype=dtype)[:, None], scale


def class_cost_reduction(
    inst: Instance, set_kind: SetDistanceKind
) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """The one reduction from twice distances to exact weighted class costs.

    Returns a function of a (rows, M) int64 array of twice the distances
    to the members of ``inst.member_tw``, giving the (rows, C) array whose
    entry [g, k], over the returned scale, is weight_k * set_distance(row g,
    class k), and that scale (``_class_factors``).  The costs are int64, or
    Python ints in an object array when their bound reaches 2**63.  Both go
    through the same operations, so callers need not tell them apart, but
    must pass a Python ``int`` to ``Fraction``.
    """
    weights, scale = _class_factors(inst, set_kind)
    reduce = np.add.reduce if set_kind is SetDistanceKind.MEDIAN else np.minimum.reduce
    spans = list(pairwise((*inst.class_starts, len(inst.member_tw))))

    def costs(d2: np.ndarray) -> np.ndarray:
        # class by class over the members' columns: contiguous when d2 is
        # the transpose of a C-ordered array, as the exact oracle makes it
        per_class = np.empty((len(spans), len(d2)), dtype=d2.dtype)
        for k, (a, b) in enumerate(spans):
            reduce(d2.T[a:b], axis=0, out=per_class[k])
        return (per_class.astype(weights.dtype, copy=False) * weights).T

    return costs, scale


def least_worst(costs: np.ndarray, scale: int) -> tuple[int, Fraction]:
    """The first row of least worst class cost, and that cost.

    ``costs`` and ``scale`` are as ``class_cost_reduction`` and
    ``scaled_class_costs`` give them, int64 or Python ints.
    """
    worst = costs.max(axis=1)
    j = int(worst.argmin())
    return j, Fraction(int(worst[j]), scale)


def _median_kendall_sums(rows: np.ndarray, inst: Instance) -> np.ndarray:
    """(C, len rows) int64: twice class k's summed Kendall distance to each
    twice-position row, from the counts ``inst.above_counts``.

    With A = above_counts[k], a pair that a row ranks x above y costs
    class k's m_k members m_k + A[y][x] - A[x][y] (an agreeing member 0,
    an opposite one 2, a tying one 1), and a pair the row ties costs
    A[x][y] + A[y][x] (1 for each member that orders it).  Summed over
    ordered pairs that is

        m_k N + sum_{x, y} A[x][y] (1 - 2 [row ranks x strictly above y]),

    N the pairs the row orders strictly: one int64 product with the
    counts, O(C n²) a row, whatever the class sizes.  Rows go in blocks
    and the x in chunks, so the (rows, x, n) comparison and its +-1 weights
    stay within BLOCK_ELEMENTS elements.
    """
    n, num_classes = inst.n, inst.num_classes
    counts = inst.above_counts.reshape(num_classes, n * n)
    out = np.zeros((num_classes, len(rows)), dtype=np.int64)
    ordered = np.zeros(len(rows), dtype=np.int64)
    row_step = max(1, min(len(rows), BLOCK_ELEMENTS // n))
    x_step = max(1, BLOCK_ELEMENTS // (row_step * n))
    for i in range(0, len(rows), row_step):
        block = rows[i:i + row_step]
        for x in range(0, n, x_step):
            above = block[:, x:x + x_step, None] < block[:, None, :]
            ordered[i:i + row_step] += above.sum(axis=(1, 2))
            signs = np.where(above, -1, 1).reshape(len(block), -1)
            out[:, i:i + row_step] += counts[:, x * n:(x + x_step) * n] @ signs.T
    out += np.array([[cls.m] for cls in inst.classes]) * ordered
    return out


def member_distances(inst: Instance, kind: DistanceKind) -> np.ndarray:
    """(M, M) int64 twice distances between the instance's members.

    Read off its member views: ``member_tw`` for the footrule, and
    ``member_signs`` for Kendall tau, so that no pair signs are built here.
    """
    if kind.positional:
        return doubled_distances(inst.member_tw, inst.member_tw)
    return sign_distances(inst.member_signs, inst.member_signs)


def scaled_class_costs(
    rows: np.ndarray, inst: Instance, kind: DistanceKind, set_kind: SetDistanceKind
) -> tuple[np.ndarray, int]:
    """Exact weighted class costs of twice-position rows, and their scale.

    Under the median Kendall distance a class's summed distance is linear
    in a row's pair orders, so it comes from the counts
    (``_median_kendall_sums``).  Otherwise it is one kernel call against the
    instance's member view, ``member_tw`` or, under Kendall tau, the
    members' pair signs ``member_signs``, reduced by
    ``class_cost_reduction``.
    """
    if set_kind is SetDistanceKind.MEDIAN and not kind.positional:
        weights, scale = _class_factors(inst, set_kind)
        sums = _median_kendall_sums(rows, inst)
        return (sums.astype(weights.dtype, copy=False) * weights).T, scale
    costs, scale = class_cost_reduction(inst, set_kind)
    if kind.positional:
        return costs(doubled_distances(rows, inst.member_tw)), scale
    return costs(sign_distances(pair_signs(rows), inst.member_signs)), scale


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
