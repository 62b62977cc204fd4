import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from minmaxrank import distances
from minmaxrank import (
    DistanceError,
    DistanceKind,
    Instance,
    PartialRanking,
    Permutation,
    RankingClass,
    SetDistanceKind,
    as_partial,
    distance,
    kemeny,
    kendall_tau,
    minmax_objective,
    partial_footrule,
    set_distance,
    spearman_footrule,
)
from minmaxrank._rng import generator
from minmaxrank.distances import doubled_distances
from minmaxrank.rankings import twice_positions

from conftest import random_instance, random_partial_ranking, random_permutation

ALL_KINDS = list(DistanceKind)


def pair_count_kendall(p, q):
    """Independent O(n^2) oracle: count oppositely ordered pairs directly."""
    total = 0
    for x, y in combinations(range(1, p.n + 1), 2):
        if (p.rank_of(x) - p.rank_of(y)) * (q.rank_of(x) - q.rank_of(y)) < 0:
            total += 1
    return total


def pair_count_kemeny(p, q):
    """Independent oracle for the Kemeny distance via positions."""
    p, q = as_partial(p), as_partial(q)
    total = Fraction(0)
    for x, y in combinations(range(1, p.n + 1), 2):
        dp = p.position(x) - p.position(y)
        dq = q.position(x) - q.position(y)
        if dp * dq < 0:
            total += 1
        elif (dp == 0) != (dq == 0):
            total += Fraction(1, 2)
    return total


def position_footrule(p, q):
    """Independent oracle for the partial footrule via positions."""
    p, q = as_partial(p), as_partial(q)
    return sum(abs(p.position(x) - q.position(x)) for x in range(1, p.n + 1))


class TestKendallTau:
    def test_identity(self):
        p = Permutation.identity(4)
        assert kendall_tau(p, p) == 0

    def test_full_reversal_is_maximum(self):
        assert kendall_tau(Permutation.identity(3), Permutation((3, 2, 1))) == 3

    def test_adjacent_transposition(self):
        assert kendall_tau(Permutation((1, 2, 3)), Permutation((2, 1, 3))) == 1

    def test_size_mismatch(self):
        with pytest.raises(DistanceError, match=r"rankings over 3 and 4 elements"):
            kendall_tau(Permutation.identity(3), Permutation.identity(4))

    def test_rejects_partial(self):
        p, q = PartialRanking.from_buckets([{1, 2}]), PartialRanking.from_buckets([{1}, {2}])
        with pytest.raises(DistanceError, match="kendall_tau is defined on permutations only"):
            kendall_tau(p, q)

    def test_matches_pair_count_oracle(self):
        rng = generator(1)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            p, q = random_permutation(rng, n), random_permutation(rng, n)
            assert kendall_tau(p, q) == pair_count_kendall(p, q)


class TestSpearmanFootrule:
    def test_identity(self):
        p = Permutation.identity(3)
        assert spearman_footrule(p, p) == 0

    def test_reversal(self):
        assert spearman_footrule(Permutation.identity(3), Permutation((3, 2, 1))) == 4

    def test_transposition(self):
        assert spearman_footrule(Permutation((1, 2, 3)), Permutation((2, 1, 3))) == 2

    def test_even(self):
        rng = generator(2)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            assert spearman_footrule(random_permutation(rng, n), random_permutation(rng, n)) % 2 == 0


class TestKemeny:
    def test_one_pair_tied_in_one(self):
        r = PartialRanking.from_buckets([{1, 2}, {3}])
        q = PartialRanking.from_buckets([{1}, {2}, {3}])
        assert kemeny(r, q) == Fraction(1, 2)

    def test_self_distance_zero(self, rng):
        for _ in range(30):
            r = random_partial_ranking(rng, int(rng.integers(1, 9)))
            assert kemeny(r, r) == 0

    def test_opposite_pair(self):
        p, q = PartialRanking.from_buckets([{1}, {2}]), PartialRanking.from_buckets([{2}, {1}])
        assert kemeny(p, q) == 1

    def test_agrees_with_kendall_on_total_orders(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            p, q = random_permutation(rng, n), random_permutation(rng, n)
            assert kemeny(p, q) == kendall_tau(p, q)

    def test_matches_position_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            p, q = random_partial_ranking(rng, n), random_partial_ranking(rng, n)
            assert kemeny(p, q) == pair_count_kemeny(p, q)


class TestPartialFootrule:
    def test_half_positions(self):
        r = PartialRanking.from_buckets([{1, 2}, {3}])
        q = PartialRanking.from_buckets([{1}, {2}, {3}])
        assert partial_footrule(r, q) == 1

    def test_self_zero(self):
        r = PartialRanking.from_buckets([{2, 3}, {1}])
        assert partial_footrule(r, r) == 0

    def test_swap(self):
        assert partial_footrule(
            PartialRanking.from_buckets([{1}, {2}]), PartialRanking.from_buckets([{2}, {1}])
        ) == 2

    def test_agrees_with_footrule_on_total_orders(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            p, q = random_permutation(rng, n), random_permutation(rng, n)
            assert partial_footrule(p, q) == spearman_footrule(p, q)


def _random_ranking(rng, n, kind):
    if kind in (DistanceKind.KENDALL_TAU, DistanceKind.SPEARMAN_FOOTRULE):
        return random_permutation(rng, n)
    return random_partial_ranking(rng, n)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pseudometric_axioms(kind):
    rng = generator(3)
    for _ in range(150):
        n = int(rng.integers(2, 13))
        a = _random_ranking(rng, n, kind)
        b = _random_ranking(rng, n, kind)
        c = _random_ranking(rng, n, kind)
        dab, dba = distance(a, b, kind), distance(b, a, kind)
        assert dab >= 0
        assert dab == dba
        assert distance(a, a, kind) == 0
        assert dab <= distance(a, c, kind) + distance(c, b, kind)


def test_diaconis_graham():
    rng = generator(4)
    for _ in range(300):
        n = int(rng.integers(2, 21))
        p, q = random_permutation(rng, n), random_permutation(rng, n)
        dt, ds = kendall_tau(p, q), spearman_footrule(p, q)
        assert dt <= ds <= 2 * dt


def test_partial_constant_factor_both_directions():
    rng = generator(5)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        p, q = random_partial_ranking(rng, n), random_partial_ranking(rng, n)
        dk, dp = kemeny(p, q), partial_footrule(p, q)
        assert dp <= 2 * dk
        assert dk <= 2 * dp


class TestSetDistance:
    def test_minimum_attained_at_member(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            cls = inst.classes[0]
            assert set_distance(
                cls.members[0], cls, DistanceKind.KENDALL_TAU, SetDistanceKind.MINIMUM
            ) == 0

    def test_median_of_identity_and_reversal(self):
        cls = RankingClass(
            (Permutation.identity(3), Permutation((3, 2, 1))), Fraction(1)
        )
        got = set_distance(
            Permutation.identity(3), cls, DistanceKind.KENDALL_TAU,
            SetDistanceKind.MEDIAN,
        )
        assert got == Fraction(3, 2)

    def test_singleton_median_equals_minimum(self, rng):
        for _ in range(20):
            n = 5
            q = random_permutation(rng, n)
            p = random_permutation(rng, n)
            cls = RankingClass((q,), Fraction(2))
            med = set_distance(p, cls, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN)
            mini = set_distance(p, cls, DistanceKind.KENDALL_TAU, SetDistanceKind.MINIMUM)
            assert med == mini == kendall_tau(p, q)


class TestMinmaxObjective:
    def test_single_singleton_class(self):
        p = Permutation.identity(4)
        inst = Instance(4, (RankingClass((p,), 1),))
        assert minmax_objective(p, inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN) == 0

    def test_gap_instance_value(self):
        inst = Instance(
            4,
            (
                RankingClass((Permutation.identity(4),), 1),
                RankingClass((Permutation((2, 1, 3, 4)),), 1),
            ),
        )
        got = minmax_objective(
            Permutation.identity(4), inst, DistanceKind.KENDALL_TAU,
            SetDistanceKind.MEDIAN,
        )
        assert got == 1

    def test_weight_homogeneity(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            p = random_permutation(rng, inst.n)
            base = minmax_objective(p, inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN)
            scaled = Instance(
                inst.n,
                tuple(RankingClass(c.members, 3 * c.weight) for c in inst.classes),
            )
            assert minmax_objective(
                p, scaled, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN
            ) == 3 * base

    def test_minimum_at_most_median(self, rng):
        for _ in range(30):
            inst = random_instance(rng, allow_ties=True)
            p = random_permutation(rng, inst.n)
            kind = DistanceKind.KEMENY
            assert minmax_objective(
                p, inst, kind, SetDistanceKind.MINIMUM
            ) <= minmax_objective(p, inst, kind, SetDistanceKind.MEDIAN)


class TestDoubledDistances:
    @pytest.mark.parametrize("block", [distances.BLOCK_ELEMENTS, 7])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_pair_oracles(self, rng, monkeypatch, ties, block):
        monkeypatch.setattr(distances, "BLOCK_ELEMENTS", block)
        make = random_partial_ranking if ties else random_permutation
        # 130 is past the uint8/uint16 switch of pair_signs' gathers
        for n in [*rng.integers(1, 9, size=30).tolist(), 45, 130]:
            rows = int(rng.integers(1, 5))
            p = [make(rng, n) for _ in range(rows)]
            q = [make(rng, n) for _ in range(rows + int(rng.integers(1, 4)))]
            tp, tq = twice_positions(p), twice_positions(q)
            pairwise = doubled_distances(tp, tq, False)
            positional = doubled_distances(tp, tq, True)
            assert pairwise.shape == positional.shape == (len(p), len(q))
            for i, a in enumerate(p):
                for j, b in enumerate(q):
                    assert pairwise[i, j] == 2 * pair_count_kemeny(a, b)
                    assert positional[i, j] == 2 * position_footrule(a, b)

    @pytest.mark.parametrize("positional", [False, True])
    def test_memory_stays_within_budget(self, positional):
        rng = generator(6)
        tw = twice_positions([random_permutation(rng, 10) for _ in range(1000)])
        tracemalloc.start()
        try:
            out = doubled_distances(tw, tw, positional)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1000, 1000)
        # the 8 MB result plus bounded temporaries; one unblocked broadcast
        # would hold 1000 * 1000 * 45 pair signs
        assert peak < 12 * 2**20

    def test_kemeny_memory_stays_within_budget_past_one_lifted_row(self):
        rng = generator(7)
        perms = [random_permutation(rng, 300) for _ in range(30)]
        tw = twice_positions(perms)
        distances.pair_signs(tw)  # build the cached pair indices first
        tracemalloc.start()
        try:
            out = doubled_distances(tw, tw, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.diagonal().tolist() == [0] * 30
        assert out[0, 1] == 2 * pair_count_kendall(perms[0], perms[1])
        # pair_signs' uint16 gathers take about 8 MB and each lifted block
        # at most 0.5 MB; lifting one side's 30 rows of 44,850 pairs whole
        # would add 21 MB
        assert peak < 16 * 2**20

    def test_pair_signs_memory_is_a_few_times_the_result(self):
        rng = generator(6)
        tw = twice_positions([random_permutation(rng, 200) for _ in range(30)])
        distances.pair_signs(tw)  # build the cached pair indices first
        tracemalloc.start()
        try:
            signs = distances.pair_signs(tw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert signs.dtype == np.int8 and signs.shape == (30, 200 * 199 // 2)
        # int64 gathers and their difference take about 24 bytes per sign
        assert peak <= 10 * signs.nbytes

    def test_pair_signs_match_signs_of_differences(self, rng):
        for n in (1, 2, 5, 127, 128, 130):
            tw = twice_positions([random_partial_ranking(rng, n) for _ in range(4)])
            x, y = zip(*combinations(range(n), 2)) if n > 1 else ((), ())
            want = np.sign(tw[:, list(x)] - tw[:, list(y)])
            assert distances.pair_signs(tw).tolist() == want.tolist()

    def test_pair_signs_of_narrow_slices_with_large_entries(self):
        # a two-column slice of n = 200 twice-positions, as the exact
        # oracle's prefix columns are, holds entries a width-sized uint8 wraps
        tw = np.array([[258, 4], [4, 258], [300, 300], [0, 0]])
        assert distances.pair_signs(tw).tolist() == [[1], [-1], [0], [0]]
        assert distances.pair_signs(tw[:, :0]).shape == (4, 0)
