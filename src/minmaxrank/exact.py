"""Brute-force minmax optimum by full enumeration of the output space.

Used as the ground-truth oracle when checking approximation ratios.
Candidates are scored in blocks of rows, one distance-kernel call per class
and block, so memory stays bounded however large n! is.  Objectives are
compared in scaled integers (twice the distance, times the least common
denominator of the class factors), held as Python ints so no weight can
overflow them; the reported value is an exact Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations

import numpy as np

from .distances import BLOCK_ELEMENTS, DistanceKind, SetDistanceKind, doubled_distances
from .lp import build_footrule_program, build_kendall_lp, solve
from .rankings import Instance, Permutation, twice_positions


class TooLarge(ValueError):
    """Ground set too large to enumerate."""


@dataclass(frozen=True)
class OptimalSolution:
    ranking: Permutation
    value: Fraction
    all_optima: tuple[Permutation, ...] | None = None


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

    # Exact integer scaling: objective * scale is integral for every class.
    if set_kind is SetDistanceKind.MEDIAN:
        factors = [cls.weight / (2 * cls.m) for cls in inst.classes]
        aggregate = np.sum
    else:
        factors = [cls.weight / 2 for cls in inst.classes]
        aggregate = np.min
    scale = math.lcm(*(f.denominator for f in factors))
    int_factors = [int(f * scale) for f in factors]
    class_tw = [twice_positions(cls.members) for cls in inst.classes]

    candidates = permutations(range(1, n + 1))  # lexicographic rank arrays
    rows = max(1, BLOCK_ELEMENTS // (n * n))  # a block's pair signs stay in budget
    best_scaled = None
    optima: list[tuple[int, ...]] = []
    while block := list(islice(candidates, rows)):
        tw = 2 * np.array(block, dtype=np.int64)
        scaled = np.max(
            [
                aggregate(doubled_distances(tw, members, kind.positional), axis=1)
                .astype(object) * f
                for f, members in zip(int_factors, class_tw)
            ],
            axis=0,
        )
        lo = scaled.min()
        hits = [block[i] for i in np.flatnonzero(scaled == lo)]
        if best_scaled is None or lo < best_scaled:
            best_scaled, optima = lo, hits
        elif collect_all and lo == best_scaled:
            optima += hits

    value = Fraction(best_scaled, scale)
    all_optima = tuple(Permutation(r) for r in optima) if collect_all else None
    return OptimalSolution(Permutation(optima[0]), value, all_optima)


def lp_gap(inst: Instance, kind: DistanceKind, n_limit: int = 8) -> float:
    """Exact optimum over the relaxation optimum (1.0 when both are zero)."""
    opt = brute_force(inst, kind, SetDistanceKind.MEDIAN, n_limit=n_limit)
    if kind.positional:
        prog = build_footrule_program(inst)
    else:
        prog = build_kendall_lp(inst)
    relaxed = solve(prog).objective
    w = float(opt.value)
    tol = 1e-9
    if relaxed < tol:
        return 1.0 if w < tol else math.inf
    return w / relaxed
