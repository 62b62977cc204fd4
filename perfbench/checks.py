"""Independent output checks for the benchmark.

Objectives are recomputed here with a small integer implementation of the
Kendall/Kemeny and footrule distances that shares no code with
``minmaxrank.distances``.  Every distance is carried doubled, so half-integer
Kemeny and partial-footrule values stay integers, and the objective is
returned as an exact ``Fraction`` that must equal the program's own.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

#: slack on float guarantees, as in the program's own acceptance tests
FTOL = 1e-6


class CheckFailed(AssertionError):
    """An output violated a recomputed value or a proven guarantee."""


def twice_positions(ranking) -> np.ndarray:
    """Twice the (fractional) position of each element, indexed by element - 1."""
    buckets = getattr(ranking, "buckets", None)
    if buckets is None:
        return 2 * np.asarray(ranking.ranks, dtype=np.int64)
    n = sum(len(b) for b in buckets)
    out = np.zeros(n, dtype=np.int64)
    higher = 0
    for bucket in buckets:
        for x in bucket:
            out[x - 1] = 2 * higher + len(bucket) + 1
        higher += len(bucket)
    return out


def _pair_signs(twice: np.ndarray, iu) -> np.ndarray:
    """sign(pos[x] - pos[y]) over the pairs x < y, for one or many rankings."""
    diff = twice[..., :, None] - twice[..., None, :]
    return np.sign(diff)[..., iu[0], iu[1]]


class Oracle:
    """Exact minmax objectives of candidate rankings for one instance."""

    def __init__(self, inst):
        self.inst = inst
        self.n = inst.n
        self._iu = np.triu_indices(self.n, 1)
        self._classes = []
        for cls in inst.classes:
            twice = np.array([twice_positions(m) for m in cls.members])
            self._classes.append((cls.weight, len(cls.members), twice,
                                  _pair_signs(twice, self._iu)))

    def doubled_distances(self, ranking, positional: bool) -> list[np.ndarray]:
        """Per class, twice the distance from ``ranking`` to each member."""
        p = twice_positions(ranking)
        if p.shape != (self.n,):
            raise CheckFailed(f"ranking over {p.size} elements, instance has {self.n}")
        if positional:
            return [np.abs(twice - p).sum(axis=1) for _, _, twice, _ in self._classes]
        sp = _pair_signs(p, self._iu)
        out = []
        for _, _, _, signs in self._classes:
            opposite = (signs * sp < 0).sum(axis=1)
            tied_in_one = ((signs == 0) != (sp == 0)).sum(axis=1)
            out.append(2 * opposite + tied_in_one)
        return out

    def objective(self, ranking, positional: bool, minimum: bool) -> Fraction:
        """max over classes of weight * (mean or min) distance, exactly."""
        worst = None
        for (weight, m, _, _), d2 in zip(
            self._classes, self.doubled_distances(ranking, positional)
        ):
            agg = Fraction(int(d2.min()), 2) if minimum else Fraction(int(d2.sum()), 2 * m)
            cost = weight * agg
            if worst is None or cost > worst:
                worst = cost
        return worst


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_permutation(ranking, n: int, label: str) -> None:
    ranks = getattr(ranking, "ranks", None)
    require(
        ranks is not None and sorted(ranks) == list(range(1, n + 1)),
        f"{label}: ranking is not a permutation of 1..{n}",
    )


def check_result(oracle: Oracle, result, label: str, positional: bool,
                 minimum: bool) -> Fraction:
    """Permutation output whose reported objective is exact; returns it."""
    check_permutation(result.ranking, oracle.n, label)
    expected = oracle.objective(result.ranking, positional, minimum)
    require(
        result.objective == expected,
        f"{label}: objective {result.objective} != recomputed {expected}",
    )
    return expected


def check_relaxation(objective: Fraction, certificate, label: str) -> float:
    """Relaxation guarantee: certificate <= objective <= 2 * certificate.

    Returns objective / certificate, the quality ratio the benchmark reports.
    """
    require(certificate is not None, f"{label}: no certificate")
    obj = float(objective)
    require(certificate <= obj + FTOL,
            f"{label}: certificate {certificate} above objective {obj}")
    require(obj <= 2 * certificate + FTOL,
            f"{label}: objective {obj} above 2 x certificate {certificate}")
    return obj / certificate if certificate > FTOL else 1.0
