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
the same exact reduction the objective uses: int64 costs while
n² · max m · max integer factor < 2**63, Python ints beyond that.  Rank
arrays are built only for the rows of least cost, and the reported value
is an exact Fraction.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import numpy as np

from .distances import (
    BLOCK_ELEMENTS,
    DistanceKind,
    SetDistanceKind,
    class_cost_reduction,
    pair_signs,
)
from .lp import build_footrule_program, build_kendall_lp, solve
from .rankings import Instance, Permutation


class TooLarge(ValueError):
    """Ground set too large to enumerate."""


@dataclass(frozen=True)
class OptimalSolution:
    ranking: Permutation
    value: Fraction
    all_optima: tuple[Permutation, ...] | None = None


@lru_cache(maxsize=8)
def _lexicographic_table(s: int) -> np.ndarray:
    """Read-only (s!, s) array of the permutations of range(s), in lexicographic order.

    The table for k elements is the one for k - 1 under each first element
    f in turn, with its entries >= f shifted up by one.
    """
    table = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, s + 1):
        table = np.concatenate([
            np.column_stack([np.full(len(table), f), table + (table >= f)])
            for f in range(k)
        ])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _table_features(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 features of ``_lexicographic_table(s)``, one column per row.

    The (s², s!) one-hot, whose row v*s + j is 1 where table[:, j] == v,
    and the (s(s-1)/2, s!) pair signs of the table's rows.
    """
    table = _lexicographic_table(s)
    onehot = table.T[None, :, :] == np.arange(s)[:, None, None]
    features = (onehot.reshape(s * s, len(table)).astype(np.float64),
                np.ascontiguousarray(pair_signs(table).T, dtype=np.float64))
    for a in features:
        a.flags.writeable = False
    return features


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
    column g is its distance to member row ``tw[g]``, as
    ``doubled_distances`` gives it.  What depends only on the members and
    the table is computed here, once per call of the oracle.  The products
    are taken member by row, so the result is the transpose of a
    C-ordered (M, s!) array, and each class's members are contiguous rows
    of it for ``class_cost_reduction``.
    """
    n = tw.shape[1]
    head, tail = tw[:, :n - s], tw[:, n - s:]
    onehot, table_signs = _table_features(s)
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
    collect_all: bool = False,
) -> OptimalSolution:
    """Enumerate all n! permutations and return the minmax minimizer.

    Ties are broken toward the lexicographically smallest rank array; pass
    ``collect_all`` to also get every minimizer.
    """
    n = inst.n
    if n > n_limit:
        raise TooLarge(f"n={n} exceeds enumeration limit {n_limit}")

    s = _suffix_length(n)
    table = _lexicographic_table(s)
    score = _block_scorer(inst.member_tw, s, kind.positional)
    class_costs, scale = class_cost_reduction(inst, set_kind)
    ranks = range(1, n + 1)
    best = None
    optima: list[list[int]] = []
    for prefix in permutations(ranks, n - s):
        rest = np.array(sorted(set(ranks).difference(prefix)))
        worst = class_costs(score(prefix, rest)).max(axis=1)
        lo = worst.min()
        if best is None or lo < best:
            best, optima = lo, []
        elif not (collect_all and lo == best):
            continue
        hits = np.flatnonzero(worst == lo)
        block = np.empty((len(hits), n), dtype=np.int64)
        block[:, :n - s] = prefix
        block[:, n - s:] = rest[table[hits]]
        optima += block.tolist()

    value = Fraction(int(best), scale)
    all_optima = tuple(Permutation(tuple(r)) for r in optima) if collect_all else None
    return OptimalSolution(Permutation(tuple(optima[0])), value, all_optima)


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
