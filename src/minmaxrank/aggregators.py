"""Aggregation algorithms for the multiclass minmax problem.

Selection algorithms (pick a member of the heaviest classes), LP-rounding
for the Kendall/Kemeny objective, sort-rounding for the footrule objective,
the selection/reduction pair for the minimum set-distance variants, and two
classless median baselines used for benchmarking.

All randomized routines are deterministic given their seed.  Every result's
ranking is a permutation, on tied input too.  Objectives in results are
exact Fractions recomputed from the returned ranking, and the
``certificate`` (when present) is the relaxation optimum of the run's own
problem as HiGHS's primal value at solver tolerance.  It lower-bounds every
achievable objective only up to that tolerance, which grows with the class
weights' ratio: at weights 7/5 and 10**12 on two elements, the footrule
certificate is 2.800300 against an optimum of 14/5.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from .distances import (
    DistanceError,
    DistanceKind,
    SetDistanceKind,
    class_cost_reduction,
    doubled_distances,
    least_worst,
    member_distances,
    minmax_objective,
    scaled_class_costs,
)
from .lp import build_footrule_program, build_kendall_lp, pairwise_weights, sigma_rank, solve
from .rankings import Instance, Permutation, Ranking, RankingClass, twice_positions
from ._rng import generator

_B_TOLERANCE = 1e-12
_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class AggregationResult:
    ranking: Permutation
    objective: Fraction
    certificate: float | None = None


@dataclass(frozen=True)
class PivotScore:
    """Rounding cost A and fractional cost B per class for one pivot."""

    pivot: int  # 1-based element id
    a_costs: tuple[float, ...]
    b_costs: tuple[float, ...]
    ratio: float


def _ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max_k A_k / B_k per column, with 0/0 -> 0 and positive/0 -> inf."""
    out = np.where(
        b > _B_TOLERANCE,
        a / np.maximum(b, _B_TOLERANCE),
        np.where(a > _B_TOLERANCE, np.inf, 0.0),
    )
    return out.max(axis=0)


def _rounded_matrix(u: np.ndarray) -> np.ndarray:
    """Deterministic int8 0/1 rounding h of the pairwise fractional solution."""
    lower = np.tril(u >= 0.5, -1)  # x > y: printed rule
    return (lower | np.triu(~lower.T, 1)).astype(np.int8)


def _cost_tables(h: np.ndarray, u: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """(3C, n, n) stack of the pair costs under h, those under u, and wf.

    The cost of pair (x, y) under m is m[x][y] w[y][x] + m[y][x] w[x][y].
    """
    def pair_costs(m: np.ndarray) -> np.ndarray:
        return m * wf.swapaxes(1, 2) + m.T * wf

    return np.concatenate([pair_costs(h), pair_costs(u), wf])


def _pivot_costs(active: np.ndarray, h: np.ndarray,
                 tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A and B costs (C, len(active)) of every active element as the pivot.

    Indices are 0-based and ``tables`` is ``_cost_tables(h, u, wf)``.
    Column i scores pivot a = active[i]: elements with h[x, a] = 1 go left
    of it, the rest go right, and the pivot additionally fixes every
    (right, left) pair, which costs wf under A and the pair cost under u
    under B.
    """
    right = h[np.ix_(active, active)]  # right[i, x]: active[x] right of pivot i
    sub = tables[:, active[:, None], active]
    c = len(tables) // 3
    own = sub[:2 * c].sum(axis=2)
    # per pivot i: cost[x][y] summed over x right of i and y left of i
    spanning = (right @ sub[c:] * right.T).sum(axis=2)
    return own[:c] + spanning[c:], own[c:] + spanning[:c]


def _pivot_sort(before: np.ndarray, choose) -> list[int]:
    """Quicksort of 0..n-1 (0-based) around the pivots ``choose`` picks.

    ``choose(active)`` returns the pivot of an ascending array of at least
    two elements; x goes left of pivot v when ``before[x, v]``.  An explicit
    stack of (right, pivot, left) stands in for recursion, so ``choose``
    still runs in pre-order, left part before right part.
    """
    order, stack = [], [np.arange(len(before))]
    while stack:
        active = stack.pop()
        if len(active) <= 1:
            order.extend(active.tolist())
            continue
        v = choose(active)
        goes_left = before[active, v]
        stack += [active[~goes_left & (active != v)], np.array([v]), active[goes_left]]
    return order


def pivot_rounding(
    u: np.ndarray, wf: np.ndarray
) -> tuple[list[int], list[PivotScore]]:
    """Min-ratio pivot rounding of a pairwise fractional solution.

    Returns the elements (1-based) best-to-worst together with the chosen
    pivot's cost record at every quicksort level, in pre-order.
    """
    h = _rounded_matrix(u)
    hf = h.astype(float)  # so that no product below casts
    tables = _cost_tables(hf, u, wf)
    trace = []

    def choose(active: np.ndarray) -> int:
        a_costs, b_costs = _pivot_costs(active, hf, tables)
        ratios = _ratio(a_costs, b_costs)
        # ascending ids: ratios within _TIE_TOLERANCE tie, the smallest id wins
        i = int(np.flatnonzero(ratios <= ratios.min() + _TIE_TOLERANCE)[0])
        trace.append(PivotScore(
            int(active[i]) + 1,
            tuple(a_costs[:, i].tolist()),
            tuple(b_costs[:, i].tolist()),
            float(ratios[i]),
        ))
        return active[i]

    return [x + 1 for x in _pivot_sort(h == 1, choose)], trace


def _footrule_kind(kind: DistanceKind | None) -> DistanceKind:
    """The footrule, if ``kind`` is it or None."""
    if kind not in (None, DistanceKind.SPEARMAN_FOOTRULE):
        raise DistanceError(f"{kind} is not a footrule-type distance")
    return DistanceKind.SPEARMAN_FOOTRULE


def _kendall_order(u: np.ndarray, inst: Instance) -> list[int]:
    """Pivot rounding's order of u: elements (1-based) best-to-worst.

    The pivots are scored, on the class weights of ``inst``, only when the
    rounding h of u has a cycle.  A tournament is transitive exactly when
    its row sums are n - 1, ..., 0, and every quicksort split by a
    transitive h keeps h's order, whichever pivot each level picks; so its
    order is read off the row sums.
    """
    n = len(u)
    wins = _rounded_matrix(u).sum(axis=1)
    order = np.argsort(-wins, kind="stable")
    if (wins[order] == np.arange(n)[::-1]).all():
        return (order + 1).tolist()
    return pivot_rounding(u, pairwise_weights(inst, np.arange(n * n).reshape(n, n)))[0]


def _mmkt(inst: Instance) -> tuple[Permutation, float]:
    """The rounded Kendall LP optimum and the optimum's value."""
    sol = solve(build_kendall_lp(inst))
    return Permutation.from_order(_kendall_order(sol.u, inst)), sol.objective


def mmkt_conv(inst: Instance) -> AggregationResult:
    """LP relaxation plus deterministic pivot rounding (median Kendall/Kemeny).

    The returned permutation costs at most twice the relaxation optimum,
    which is reported as the certificate.  Each pivot rounding level puts
    the elements that the 0.5-rounding h ranks above the pivot on its left
    and the rest on its right.  When h is a total order, every pivot choice
    therefore yields h's order, so that order is read off h directly, and
    ``pivot_rounding`` scores pivots only when h has a cycle.
    """
    perm, certificate = _mmkt(inst)
    objective = minmax_objective(perm, inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN)
    return AggregationResult(perm, objective, certificate=certificate)


def positions_to_order(u: np.ndarray, rng_seed=None) -> list[int]:
    """Elements (1-based) by ascending fractional position, ties shuffled.

    Values within 1e-9 of each other count as tied; each tie group is
    shuffled by one generator drawn from ``rng_seed``, so the same seed gives
    the same order.  Sort rounding's guarantee holds for every tie order.
    """
    order = sorted(range(len(u)), key=lambda i: (u[i], i))
    groups: list[list[int]] = []
    for i in order:
        if groups and u[i] - u[groups[-1][0]] <= _TIE_TOLERANCE:
            groups[-1].append(i)
        else:
            groups.append([i])
    rng = generator(rng_seed)
    for g in groups:
        rng.shuffle(g)
    return [i + 1 for g in groups for i in g]


def _mmsp(inst: Instance, rng_seed) -> tuple[Permutation, float]:
    """The sort-rounded footrule program optimum and the optimum's value."""
    sol = solve(build_footrule_program(inst))
    return Permutation.from_order(positions_to_order(sol.u, rng_seed)), sol.objective


def mmsp_conv(
    inst: Instance, kind: DistanceKind | None = None, rng_seed=None
) -> AggregationResult:
    """Footrule program plus sort-rounding (median footrule objective).

    The output orders elements by their optimal fractional positions u, so
    it is an L1-closest permutation s to u, for every tie-break.  Positions
    are average ranks and the partial footrule is L1 over them, so with pi
    optimal, class k's cost f_k has f_k(s) <= w_k|s - u| + f_k(u) and
    w_k|s - u| <= w_k|pi - u| <= f_k(pi) + f_k(u): the objective is at most
    optimum + 2 x certificate <= 3 x optimum.  Permutation members g give
    w_k|s - u| <= f_k(u) through |s - u| <= |g - u|: 2 x certificate.
    """
    kind = _footrule_kind(kind)
    perm, certificate = _mmsp(inst, rng_seed)
    objective = minmax_objective(perm, inst, kind, SetDistanceKind.MEDIAN)
    return AggregationResult(perm, objective, certificate=certificate)


def max_weight_members(inst: Instance) -> list[tuple[int, int, Ranking]]:
    """All (class, index, member) candidates from the heaviest classes."""
    top = max(cls.weight for cls in inst.classes)
    heaviest = [cls.weight == top for cls in inst.classes]
    return [(k, i, m) for k, i, m in inst.iter_members() if heaviest[k]]


def _selected(inst: Instance, member: Ranking, kind: DistanceKind,
              set_kind: SetDistanceKind, objective: Fraction | None = None
              ) -> AggregationResult:
    """A selected member, with ``objective`` if known, as a result.

    A partial ranking's objective can fall below every permutation's, so a
    tied member is refined to a permutation, each bucket in the order of
    ``lp.sigma_rank``, and its objective recomputed.
    """
    if not isinstance(member, Permutation):
        order = np.lexsort((sigma_rank(inst), twice_positions([member])[0]))
        member, objective = Permutation.from_order((order + 1).tolist()), None
    if objective is None:
        objective = minmax_objective(member, inst, kind, set_kind)
    return AggregationResult(member, objective)


def pick_rnd_perm(
    inst: Instance,
    kind: DistanceKind,
    set_kind: SetDistanceKind,
    rng_seed=None,
) -> AggregationResult:
    """Uniform random member of the heaviest classes, refined to a
    permutation if tied (2-approx in expectation for permutation classes)."""
    candidates = max_weight_members(inst)
    rng = generator(rng_seed)
    _, _, chosen = candidates[int(rng.integers(len(candidates)))]
    return _selected(inst, chosen, kind, set_kind)


def pick_opt_perm(
    inst: Instance, kind: DistanceKind, set_kind: SetDistanceKind
) -> AggregationResult:
    """Best member of the heaviest classes, refined to a permutation if tied;
    ties keep the first (class, index)."""
    candidates = max_weight_members(inst)
    rows = [inst.class_starts[k] + i for k, i, _ in candidates]
    j, objective = least_worst(*scaled_class_costs(inst.member_tw[rows], inst, kind, set_kind))
    return _selected(inst, candidates[j][2], kind, set_kind, objective)


def _nearest_member(inst: Instance, kind: DistanceKind) -> tuple[tuple, Fraction, np.ndarray]:
    """The first (class, index, member) of least minimum-distance objective,
    its objective, and its twice distances to every member.

    One member-by-member kernel call (``member_distances``) gives all three.
    """
    d2 = member_distances(inst, kind)
    costs, scale = class_cost_reduction(inst, SetDistanceKind.MINIMUM)
    j, objective = least_worst(costs(d2), scale)
    return list(inst.iter_members())[j], objective, d2[j]


def min_pick_perm(inst: Instance, kind: DistanceKind) -> AggregationResult:
    """Member selection for the minimum set-distance problem, refined to a
    permutation if tied (2-approx when every class holds permutations).

    Ties keep the first (class, index).  A member's own class costs it 0,
    so with one class of permutations the first member is returned.
    """
    (_, _, member), objective, _ = _nearest_member(inst, kind)
    return _selected(inst, member, kind, SetDistanceKind.MINIMUM, objective)


def restrict_to_min_witnesses(inst: Instance, kind: DistanceKind) -> Instance:
    """Shrink each class to the members closest to the min-pick selection.

    The selected member's own class becomes a singleton; every other class
    keeps exactly its members attaining the minimum distance to it.  Class
    weights are unchanged.  A median aggregate of the restricted instance
    approximates the original minimum-distance problem.
    """
    (k_star, _, anchor), _, d2 = _nearest_member(inst, kind)
    lows = np.minimum.reduceat(d2, inst.class_starts)
    classes = []
    for j, (cls, start, lo) in enumerate(zip(inst.classes, inst.class_starts, lows)):
        kept = [s for s, d in zip(cls.members, d2[start:]) if d == lo]
        classes.append(RankingClass((anchor,) if j == k_star else kept, cls.weight))
    return Instance(inst.n, tuple(classes))


def min_mmkt_conv(inst: Instance) -> AggregationResult:
    """Pivot rounding on the witness-restricted instance (min set-distance).

    The objective is evaluated against the original instance under the
    minimum set-distance; when every class holds permutations, the
    reduction guarantees a factor of 4.
    """
    kind = DistanceKind.KENDALL_TAU
    perm, _ = _mmkt(restrict_to_min_witnesses(inst, kind))
    return AggregationResult(
        perm, minmax_objective(perm, inst, kind, SetDistanceKind.MINIMUM))


def min_mmsp_conv(
    inst: Instance, kind: DistanceKind | None = None, rng_seed=None
) -> AggregationResult:
    """Sort-rounding on the witness-restricted instance (min set-distance);
    a factor of 4 when every class holds permutations."""
    kind = _footrule_kind(kind)
    perm, _ = _mmsp(restrict_to_min_witnesses(inst, kind), rng_seed)
    return AggregationResult(
        perm, minmax_objective(perm, inst, kind, SetDistanceKind.MINIMUM))


def median_pivot_baseline(
    inst: Instance,
    rng_seed=None,
    kind: DistanceKind = DistanceKind.KENDALL_TAU,
    set_kind: SetDistanceKind = SetDistanceKind.MEDIAN,
) -> AggregationResult:
    """Classless random-pivot quicksort on pooled majority comparisons.

    A classical median-aggregation heuristic kept as a benchmark; it offers
    no minmax guarantee.  The objective is evaluated under (kind, set_kind).
    """
    # maj[x][y]: members of all classes pooled ranking x + 1 above y + 1
    maj = inst.above_counts.sum(axis=0)
    rng = generator(rng_seed)
    order = _pivot_sort(
        maj > maj.T, lambda active: active[int(rng.integers(len(active)))]
    )
    perm = Permutation.from_order([x + 1 for x in order])
    return AggregationResult(perm, minmax_objective(perm, inst, kind, set_kind))


def median_footrule_matching_baseline(
    inst: Instance,
    kind: DistanceKind = DistanceKind.SPEARMAN_FOOTRULE,
    set_kind: SetDistanceKind = SetDistanceKind.MEDIAN,
) -> AggregationResult:
    """Classless footrule median via optimal element-to-position assignment.

    Minimizes the pooled (unweighted) footrule exactly; no minmax guarantee.
    """
    tw = inst.member_tw
    # cost[x][t - 1]: pooled |2 * position - 2t| of element x + 1 at rank t,
    # the footrule kernel between element columns and constant rank rows
    twice_ranks = np.repeat(2 * np.arange(1, inst.n + 1)[:, None], len(tw), axis=1)
    cost = doubled_distances(tw.T, twice_ranks, True)
    _, cols = linear_sum_assignment(cost)
    perm = Permutation(tuple(int(c) + 1 for c in cols))
    return AggregationResult(perm, minmax_objective(perm, inst, kind, set_kind))
