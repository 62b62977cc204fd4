"""Brute-force minmax optimum by full enumeration of the output space.

Used as the ground-truth oracle when checking approximation ratios.
Candidates are scored in blocks, never one Python tuple each: a block is
one prefix of n - s ranks followed by the remaining ranks, in ascending
order (``rest``), permuted by every row of one lexicographic table of the
s! permutations of ``range(s)``.  Laid end to end, the blocks are
lexicographic order, so ties break toward the smallest rank array.

A block is scored from features of the table, cached per s, without
building its rank arrays.  Twice the distance of block row r to member g
splits into
  * a constant per member set by the prefix: the prefix's part of the
    footrule, or its prefix-prefix pair signs under Kemeny;
  * sum_j E_g[table[r, j], j] for an s x s matrix E_g per member: the
    footrule terms |2 rest_v - tw_g| of the suffix elements, or the Kemeny
    prefix-suffix pair terms.  Over the block this is one float64 product
    of E, stacked as (M, s²), with the table's (s², s!) one-hot;
  * under Kemeny, the suffix-suffix pairs, whose signs are the table's own
    and do not depend on the prefix: one product per call.
Every partial sum is an integer below 2**53, so the products are exact.
The twice distances then go through ``distances.class_cost_reduction``,
the exact reduction of member distances, whose integer class factors the
objective scales by too: int64 costs while
n² · max m · max integer factor < 2**63, Python ints beyond that.  Each
block's first row of least cost (``distances.least_worst``, the selections'
rule too) becomes a rank array and replaces the incumbent only when
strictly cheaper; the reported value is an exact Fraction.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import numpy as np

from .distances import DistanceKind, SetDistanceKind, class_cost_reduction, least_worst
from .lp import build_footrule_program, build_kendall_lp, solve
from .rankings import BLOCK_ELEMENTS, Instance, Permutation, pair_signs


class TooLarge(ValueError):
    """Ground set too large to enumerate."""


@dataclass(frozen=True)
class OptimalSolution:
    ranking: Permutation
    value: Fraction


@lru_cache(maxsize=8)
def _lexicographic_table(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only (s!, s) table of the permutations of range(s), in
    lexicographic order, and its float64 features, one column per row: the
    (s², s!) one-hot, whose row v*s + j is 1 where table[:, j] == v, and
    the (s(s-1)/2, s!) pair signs of the table's rows.
    """
    table = np.array(list(itertools.permutations(range(s))), dtype=np.intp)
    onehot = table.T[None, :, :] == np.arange(s)[:, None, None]
    arrays = (table, onehot.reshape(s * s, len(table)).astype(np.float64),
              np.ascontiguousarray(pair_signs(table).T, dtype=np.float64))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _suffix_length(n: int) -> int:
    """The s of every block: the largest s <= n whose s! rows stay in budget."""
    rows = max(1, BLOCK_ELEMENTS // (n * n))
    s = 1
    while s < n and math.factorial(s + 1) <= rows:
        s += 1
    return s


def _block_scorer(
    tw: np.ndarray, s: int, positional: bool
) -> Callable[[Sequence[int], np.ndarray], np.ndarray]:
    """score(prefix, rest): the (s!, M) int64 twice distances of one block.

    Row r of the block is ``prefix`` followed by ``rest[table[r]]``, and
    column g is its distance to member row ``tw[g]``, as its kind's kernel
    gives it: ``doubled_distances`` for the footrule, ``sign_distances`` of
    pair signs for Kemeny.  What depends only on the members and the table
    is computed here, once per call of the oracle.  The products are taken
    member by row, so the result is the transpose of a C-ordered (M, s!)
    array, and each class's members are contiguous rows of it for
    ``class_cost_reduction``.
    """
    n = tw.shape[1]
    head, tail = tw[:, :n - s], tw[:, n - s:]
    _, onehot, table_signs = _lexicographic_table(s)
    suffix = 0
    if not positional:
        # for a candidate sign a = ±1 and a member sign b, |a - b| = 1 - ab
        head_signs = pair_signs(head).astype(np.int64)  # int8 products would wrap
        cross_signs = np.sign(head.T[:, None, :] - tail.T[None, :, :])  # (x, j, g)
        cross_signs = cross_signs.reshape(n - s, s * len(tw)).astype(np.float64)
        suffix = len(table_signs) - pair_signs(tail) @ table_signs

    def score(prefix, rest):
        prefix = np.asarray(prefix, dtype=np.int64)
        if positional:
            const = np.abs(2 * prefix - head).sum(axis=1)
            cross = np.abs(2 * rest[:, None, None] - tail.T)  # (v, j, g)
        else:
            const = head_signs.shape[1] - head_signs @ pair_signs(prefix[None])[0]
            cross = (n - s) - np.sign(prefix[:, None] - rest).T @ cross_signs
        d2 = cross.reshape(s * s, -1).T @ onehot
        d2 += suffix
        d2 += const[:, None]
        return d2.astype(np.int64).T
    return score


def brute_force(
    inst: Instance,
    kind: DistanceKind,
    set_kind: SetDistanceKind,
    n_limit: int = 8,
) -> OptimalSolution:
    """Enumerate all n! permutations and return the minmax minimizer.

    Ties are broken toward the lexicographically smallest rank array.
    """
    n = inst.n
    if n > n_limit:
        raise TooLarge(f"n={n} exceeds enumeration limit {n_limit}")

    s = _suffix_length(n)
    table = _lexicographic_table(s)[0]
    score = _block_scorer(inst.member_tw, s, kind.positional)
    class_costs, scale = class_cost_reduction(inst, set_kind)
    ranks = range(1, n + 1)
    best = None
    for prefix in permutations(ranks, n - s):
        rest = np.array(sorted(set(ranks).difference(prefix)))
        j, value = least_worst(class_costs(score(prefix, rest)), scale)
        if best is None or value < best:
            best, ranking = value, (*prefix, *rest[table[j]].tolist())
    return OptimalSolution(Permutation(ranking), best)


def relaxation_gap(inst: Instance, kind: DistanceKind, optimum: Fraction) -> float:
    """A known median optimum over the relaxation optimum; 1.0 when the
    optimum is 0 (exactly, so tiny weights keep their gap), inf when only
    the relaxation is."""
    if kind.positional:
        prog = build_footrule_program(inst)
    else:
        prog = build_kendall_lp(inst)
    relaxed = solve(prog).objective
    if optimum == 0:
        return 1.0
    return float(optimum) / relaxed if relaxed > 0 else math.inf


def lp_gap(inst: Instance, kind: DistanceKind) -> float:
    """Exact optimum over the relaxation optimum (1.0 when the optimum is zero)."""
    opt = brute_force(inst, kind, SetDistanceKind.MEDIAN)
    return relaxation_gap(inst, kind, opt.value)
