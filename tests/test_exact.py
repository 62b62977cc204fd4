import math
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest

from minmaxrank import (
    DistanceKind,
    Instance,
    Permutation,
    RankingClass,
    SetDistanceKind,
    TooLarge,
    brute_force,
    lp_gap,
    make_permutation,
    minmax_objective,
)
from minmaxrank._rng import generator

from conftest import random_instance


def gap_instance():
    return Instance(
        4,
        (
            RankingClass((Permutation.identity(4),), 1),
            RankingClass((make_permutation([2, 1, 3, 4]),), 1),
        ),
    )


def test_singleton_class():
    p = make_permutation([3, 1, 2])
    opt = brute_force(
        Instance(3, (RankingClass((p,), 1),)),
        DistanceKind.KENDALL_TAU,
        SetDistanceKind.MEDIAN,
    )
    assert opt.ranking == p
    assert opt.value == 0


def test_gap_instance_w():
    opt = brute_force(gap_instance(), DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN)
    assert opt.value == 1


def test_two_singleton_classes_value_is_consistent_oracle_output():
    # identity vs reversal as two classes: any output disagrees with one of
    # them on at least half the pairs, so the max is at least ceil(3/2) = 2
    inst = Instance(
        3,
        (
            RankingClass((Permutation.identity(3),), 1),
            RankingClass((make_permutation([3, 2, 1]),), 1),
        ),
    )
    opt = brute_force(inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN)
    assert opt.value == minmax_objective(
        opt.ranking, inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN
    )
    for ranks in permutations(range(1, 4)):
        other = minmax_objective(
            Permutation(ranks), inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN
        )
        assert other >= opt.value
    assert opt.value == 2


def test_too_large():
    inst = Instance(9, (RankingClass((Permutation.identity(9),), 1),))
    with pytest.raises(TooLarge):
        brute_force(inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN)
    # configurable limit
    brute_force(inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN, n_limit=9)


def test_lexicographic_tie_break_and_all_optima():
    # single class of all 2-element permutations: both are optimal
    inst = Instance(
        2,
        (RankingClass((Permutation.identity(2), make_permutation([2, 1])), 1),),
    )
    opt = brute_force(
        inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN, collect_all=True
    )
    assert opt.ranking == Permutation.identity(2)
    assert set(opt.all_optima) == {Permutation.identity(2), make_permutation([2, 1])}


def test_matches_direct_enumeration(rng):
    for _ in range(20):
        inst = random_instance(rng, n_choices=(3, 4, 5), allow_ties=True)
        for kind in (DistanceKind.KEMENY, DistanceKind.PARTIAL_FOOTRULE):
            for sk in SetDistanceKind:
                opt = brute_force(inst, kind, sk)
                best = min(
                    (minmax_objective(Permutation(r), inst, kind, sk), r)
                    for r in permutations(range(1, inst.n + 1))
                )
                assert opt.value == best[0]
                assert opt.ranking.ranks == best[1]


def test_relabeling_invariance(rng):
    for _ in range(10):
        inst = random_instance(rng, n_choices=(4, 5))
        relabel = [int(x) + 1 for x in rng.permutation(inst.n)]

        def conj(p):
            # move element x to name relabel[x-1], keeping ranks
            ranks = [0] * inst.n
            for x in range(1, inst.n + 1):
                ranks[relabel[x - 1] - 1] = p.rank_of(x)
            return Permutation(tuple(ranks))

        relabeled = Instance(
            inst.n,
            tuple(
                RankingClass(tuple(conj(m) for m in c.members), c.weight)
                for c in inst.classes
            ),
        )
        a = brute_force(inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN)
        b = brute_force(relabeled, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN)
        assert a.value == b.value
        assert minmax_objective(
            conj(a.ranking), relabeled, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN
        ) == b.value


def test_optima_across_blocks_in_lexicographic_order():
    # identity and reversal disagree on every pair, so each of the 8!
    # permutations has Kendall distances summing to 28 and median cost 14
    inst = Instance(
        8,
        (RankingClass((Permutation.identity(8), make_permutation(range(8, 0, -1))), 1),),
    )
    opt = brute_force(
        inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN, collect_all=True
    )
    assert opt.value == 14
    assert opt.ranking == Permutation.identity(8)
    assert [p.ranks for p in opt.all_optima] == list(permutations(range(1, 9)))


@pytest.mark.parametrize("kind", [DistanceKind.KEMENY, DistanceKind.PARTIAL_FOOTRULE])
def test_memory_stays_within_a_few_mb_at_n8(kind):
    inst = random_instance(
        generator(8), n_choices=(8,), c_choices=(3,), m_choices=(4,), allow_ties=True
    )
    inst.member_tw  # built before tracing: the instance's view, not the oracle's
    tracemalloc.start()
    try:
        opt = brute_force(inst, kind, SetDistanceKind.MEDIAN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert opt.value == minmax_objective(opt.ranking, inst, kind, SetDistanceKind.MEDIAN)
    # one block of candidates at a time; all 8! rank arrays as int64 alone
    # would take 2.6 MB, and as tuples about 4 MB
    assert peak < 2 * 2**20


@pytest.mark.parametrize("weight", [Fraction(0.1), Fraction(1, 3)])
def test_inexact_weights_match_enumeration(rng, weight):
    for kind in DistanceKind:
        for _ in range(3):
            inst = random_instance(
                rng, n_choices=(5,), weight_choices=(weight, Fraction(1)),
                allow_ties=kind in (DistanceKind.KEMENY, DistanceKind.PARTIAL_FOOTRULE),
            )
            for sk in SetDistanceKind:
                best = min(
                    minmax_objective(Permutation(r), inst, kind, sk)
                    for r in permutations(range(1, 6))
                )
                assert brute_force(inst, kind, sk).value == best


class TestLpGap:
    def test_gap_instance(self):
        assert abs(lp_gap(gap_instance(), DistanceKind.KENDALL_TAU) - 2.0) < 1e-6

    def test_singleton_zero_over_zero(self):
        inst = Instance(3, (RankingClass((Permutation.identity(3),), 1),))
        assert lp_gap(inst, DistanceKind.KENDALL_TAU) == 1.0
        assert lp_gap(inst, DistanceKind.SPEARMAN_FOOTRULE) == 1.0

    def test_random_gaps_within_two(self, rng):
        for _ in range(15):
            inst = random_instance(rng)
            for kind in (DistanceKind.KENDALL_TAU, DistanceKind.SPEARMAN_FOOTRULE):
                gap = lp_gap(inst, kind)
                assert math.isfinite(gap)
                assert 1.0 - 1e-6 <= gap <= 2.0 + 1e-6
