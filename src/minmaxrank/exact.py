"""Brute-force minmax optimum by full enumeration of the output space.

Used as the ground-truth oracle when checking approximation ratios.
Candidates are rank arrays built as int arrays, never one Python tuple
each: a block is one prefix of n - s ranks followed by the remaining ranks,
in ascending order, permuted by every row of one lexicographic table of the
s! permutations of ``range(s)``.  Laid end to end, the blocks are
lexicographic order, so ties break toward the smallest rank array.  Each
block is scored by one ``scaled_class_costs`` call (one distance-kernel
call against the instance's member view), so memory stays bounded however
large n! is.  Objectives are compared as the scaled Python ints that
function returns, so no weight can overflow them; the reported value is an
exact Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .distances import BLOCK_ELEMENTS, DistanceKind, SetDistanceKind, scaled_class_costs
from .lp import build_footrule_program, build_kendall_lp, solve
from .rankings import Instance, Permutation


class TooLarge(ValueError):
    """Ground set too large to enumerate."""


@dataclass(frozen=True)
class OptimalSolution:
    ranking: Permutation
    value: Fraction
    all_optima: tuple[Permutation, ...] | None = None


def _lexicographic_table(s: int) -> np.ndarray:
    """(s!, s) array of the permutations of range(s) in lexicographic order.

    The table for k elements is the one for k - 1 under each first element
    f in turn, with its entries >= f shifted up by one.
    """
    table = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, s + 1):
        table = np.concatenate([
            np.column_stack([np.full(len(table), f), table + (table >= f)])
            for f in range(k)
        ])
    return table


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

    rows = max(1, BLOCK_ELEMENTS // (n * n))  # a block's pair signs stay in budget
    s = 1
    while s < n and math.factorial(s + 1) <= rows:
        s += 1
    table = _lexicographic_table(s)
    ranks = range(1, n + 1)
    block = np.empty((len(table), n), dtype=np.int64)
    best_scaled = None
    optima: list[tuple[int, ...]] = []
    for prefix in permutations(ranks, n - s):
        block[:, :n - s] = prefix
        block[:, n - s:] = np.array(sorted(set(ranks).difference(prefix)))[table]
        costs, scale = scaled_class_costs(2 * block, inst, kind, set_kind)
        scaled = costs.max(axis=1)
        lo = scaled.min()
        hits = [tuple(block[i].tolist()) for i in np.flatnonzero(scaled == lo)]
        if best_scaled is None or lo < best_scaled:
            best_scaled, optima = lo, hits
        elif collect_all and lo == best_scaled:
            optima += hits

    value = Fraction(best_scaled, scale)
    all_optima = tuple(Permutation(r) for r in optima) if collect_all else None
    return OptimalSolution(Permutation(optima[0]), value, all_optima)


def relaxation_gap(inst: Instance, kind: DistanceKind, optimum: Fraction) -> float:
    """A known median optimum over the relaxation optimum (1.0 when both are zero)."""
    if kind.positional:
        prog = build_footrule_program(inst)
    else:
        prog = build_kendall_lp(inst)
    relaxed = solve(prog).objective
    w = float(optimum)
    tol = 1e-9
    if relaxed < tol:
        return 1.0 if w < tol else math.inf
    return w / relaxed


def lp_gap(inst: Instance, kind: DistanceKind, n_limit: int = 8) -> float:
    """Exact optimum over the relaxation optimum (1.0 when both are zero)."""
    opt = brute_force(inst, kind, SetDistanceKind.MEDIAN, n_limit=n_limit)
    return relaxation_gap(inst, kind, opt.value)
