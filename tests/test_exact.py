import math
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import numpy as np
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
    minmax_objective,
)
from minmaxrank._rng import generator
from minmaxrank.distances import class_cost_reduction, doubled_distances, scaled_class_costs
from minmaxrank.exact import _block_scorer, _lexicographic_table, _suffix_length

from conftest import gap_instance, random_instance


def test_singleton_class():
    p = Permutation((3, 1, 2))
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
            RankingClass((Permutation((3, 2, 1)),), 1),
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
        (RankingClass((Permutation.identity(2), Permutation((2, 1))), 1),),
    )
    opt = brute_force(
        inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN, collect_all=True
    )
    assert opt.ranking == Permutation.identity(2)
    assert set(opt.all_optima) == {Permutation.identity(2), Permutation((2, 1))}


def test_matches_direct_enumeration(rng):
    for _ in range(20):
        inst = random_instance(rng, n_choices=(3, 4, 5), allow_ties=True)
        for kind in DistanceKind:
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
        (RankingClass((Permutation.identity(8), Permutation(tuple(range(8, 0, -1)))), 1),),
    )
    opt = brute_force(
        inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN, collect_all=True
    )
    assert opt.value == 14
    assert opt.ranking == Permutation.identity(8)
    assert [p.ranks for p in opt.all_optima] == list(permutations(range(1, 9)))


def _costs_dtype(inst, set_kind):
    costs, _ = class_cost_reduction(inst, set_kind)
    return costs(np.zeros((1, len(inst.member_tw)), dtype=np.int64)).dtype


def test_matches_direct_enumeration_all_kinds():
    # every kind and set distance, permutation and tied classes, n = 1..6;
    # a class weighted 10**20 pushes the scaled costs past int64
    rng = generator(100)
    weights = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(1, 3))
    for n, ties, _ in product(range(1, 7), (False, True), range(3)):
        plain = random_instance(rng, n_choices=(n,), weight_choices=weights,
                                allow_ties=ties)
        first, *others = plain.classes
        heavy = Instance(n, (RankingClass(first.members, first.weight * 10**20), *others))
        for inst, dtype in ((plain, np.int64), (heavy, object)):
            for kind, sk in product(DistanceKind, SetDistanceKind):
                assert _costs_dtype(inst, sk) == dtype
                values = [(minmax_objective(Permutation(r), inst, kind, sk), r)
                          for r in permutations(range(1, n + 1))]
                best = min(v for v, _ in values)
                expected = [r for v, r in values if v == best]
                opt = brute_force(inst, kind, sk, collect_all=True)
                assert opt.value == best
                assert type(opt.value.numerator) is int
                assert opt.ranking.ranks == expected[0]
                assert [p.ranks for p in opt.all_optima] == expected


def test_all_optima_across_blocks_match_one_kernel_call():
    # at n = 7 each first rank is one block; the optima must be every
    # least-cost row of all 7! in lexicographic order, and no row of a
    # block whose own least cost is higher
    rng = generator(7)
    rows = np.array(list(permutations(range(1, 8))))
    spans_blocks = False
    for _ in range(4):
        inst = random_instance(rng, n_choices=(7,), m_choices=(1, 2),
                               weight_choices=(Fraction(1), Fraction(2)), allow_ties=True)
        for kind, sk in product(DistanceKind, SetDistanceKind):
            costs, scale = scaled_class_costs(2 * rows, inst, kind, sk)
            worst = costs.max(axis=1)
            expected = [tuple(r) for r in rows[worst == worst.min()].tolist()]
            opt = brute_force(inst, kind, sk, collect_all=True)
            assert opt.value == Fraction(int(worst.min()), scale)
            assert [p.ranks for p in opt.all_optima] == expected
            spans_blocks |= len({r[0] for r in expected}) > 1
    assert spans_blocks


@pytest.mark.parametrize("positional", [False, True])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_block_scorer_matches_kernel_row_for_row(n, positional):
    inst = random_instance(generator(n), n_choices=(n,), m_choices=(1, 3),
                           allow_ties=True)
    s = _suffix_length(n)
    assert (s == n) == (n <= 6)  # below n = 7 one block has an empty prefix
    table = _lexicographic_table(s)
    assert table is _lexicographic_table(s) and not table.flags.writeable
    score = _block_scorer(inst.member_tw, s, positional)
    ranks = range(1, n + 1)
    for prefix in permutations(ranks, n - s):
        rest = np.array(sorted(set(ranks).difference(prefix)))
        block = np.empty((len(table), n), dtype=np.int64)
        block[:, :n - s] = prefix
        block[:, n - s:] = rest[table]
        got = score(prefix, rest)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(
            got, doubled_distances(2 * block, inst.member_tw, positional)
        )


# by the alias names that the benchmark's oracle-ties workload passes
@pytest.mark.parametrize("name", ["KEMENY", "PARTIAL_FOOTRULE"],
                         ids=lambda name: f"DistanceKind.{name}")
def test_memory_stays_within_a_few_mb_at_n8(name):
    kind = DistanceKind[name]
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
    # untied, then tied, classes under each kind
    for ties, kind in product((False, True), DistanceKind):
        for _ in range(3):
            inst = random_instance(
                rng, n_choices=(5,), weight_choices=(weight, Fraction(1)),
                allow_ties=ties,
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

    @pytest.mark.parametrize("weight", [Fraction(1, 10**6), Fraction(1, 10**10)],
                             ids=["1e-6", "1e-10"])
    def test_footrule_gap_holds_at_tiny_weights(self, weight):
        # zero is read from the exact optimum, so a tiny one keeps its gap
        inst = Instance(4, tuple(RankingClass(cls.members, weight)
                                 for cls in gap_instance().classes))
        assert lp_gap(inst, DistanceKind.SPEARMAN_FOOTRULE) == pytest.approx(2.0, rel=1e-6)

    def test_random_gaps_within_two(self, rng):
        for _ in range(15):
            inst = random_instance(rng)
            for kind in (DistanceKind.KENDALL_TAU, DistanceKind.SPEARMAN_FOOTRULE):
                gap = lp_gap(inst, kind)
                assert math.isfinite(gap)
                assert 1.0 - 1e-6 <= gap <= 2.0 + 1e-6
