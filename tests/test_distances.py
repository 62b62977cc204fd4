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
    minmax_objective,
    set_distance,
)
from minmaxrank._rng import generator
from minmaxrank.distances import doubled_distances
from minmaxrank.rankings import twice_positions

from conftest import (
    gap_instance,
    has_ties,
    random_instance,
    random_partial_ranking,
    random_permutation,
    tied_instance,
)

KT = DistanceKind.KENDALL_TAU
SF = DistanceKind.SPEARMAN_FOOTRULE


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


def test_one_distance_per_family():
    # KEMENY and PARTIAL_FOOTRULE are aliases, not members: the benchmark's
    # oracle-ties workload names them
    assert list(DistanceKind) == [KT, SF]
    assert DistanceKind.KEMENY is KT and DistanceKind.PARTIAL_FOOTRULE is SF
    assert [kind.value for kind in DistanceKind] == ["kendall-tau", "spearman-footrule"]
    assert [kind.positional for kind in DistanceKind] == [False, True]


class TestKendallTau:
    def test_identity(self):
        p = Permutation.identity(4)
        assert distance(p, p, KT) == 0

    def test_full_reversal_is_maximum(self):
        assert distance(Permutation.identity(3), Permutation((3, 2, 1)), KT) == 3

    def test_adjacent_transposition(self):
        assert distance(Permutation((1, 2, 3)), Permutation((2, 1, 3)), KT) == 1

    def test_size_mismatch(self):
        with pytest.raises(DistanceError, match=r"rankings over 3 and 4 elements"):
            distance(Permutation.identity(3), Permutation.identity(4), KT)

    def test_measures_partial_rankings(self):
        # the pair tied in p only counts 1/2, as Kemeny's generalization has it
        p, q = PartialRanking.from_buckets([{1, 2}]), PartialRanking.from_buckets([{1}, {2}])
        assert distance(p, q, KT) == Fraction(1, 2)
        assert distance(Permutation((2, 1)), p, KT) == Fraction(1, 2)

    def test_matches_pair_count_oracle(self):
        rng = generator(1)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            p, q = random_permutation(rng, n), random_permutation(rng, n)
            assert distance(p, q, KT) == pair_count_kendall(p, q)


class TestSpearmanFootrule:
    def test_identity(self):
        p = Permutation.identity(3)
        assert distance(p, p, SF) == 0

    def test_reversal(self):
        assert distance(Permutation.identity(3), Permutation((3, 2, 1)), SF) == 4

    def test_transposition(self):
        assert distance(Permutation((1, 2, 3)), Permutation((2, 1, 3)), SF) == 2

    def test_even(self):
        rng = generator(2)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            d = distance(random_permutation(rng, n), random_permutation(rng, n), SF)
            assert d.denominator == 1 and d % 2 == 0


class TestKemeny:
    """Kendall tau on partial rankings: tied-in-one pairs count 1/2."""

    def test_one_pair_tied_in_one(self):
        r = PartialRanking.from_buckets([{1, 2}, {3}])
        q = PartialRanking.from_buckets([{1}, {2}, {3}])
        assert distance(r, q, KT) == Fraction(1, 2)

    def test_self_distance_zero(self, rng):
        for _ in range(30):
            r = random_partial_ranking(rng, int(rng.integers(1, 9)))
            assert distance(r, r, KT) == 0

    def test_opposite_pair(self):
        p, q = PartialRanking.from_buckets([{1}, {2}]), PartialRanking.from_buckets([{2}, {1}])
        assert distance(p, q, KT) == 1

    def test_agrees_with_kendall_on_total_orders(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            p, q = random_permutation(rng, n), random_permutation(rng, n)
            assert distance(p.to_partial(), q, KT) == pair_count_kendall(p, q)

    def test_matches_position_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            p, q = random_partial_ranking(rng, n), random_partial_ranking(rng, n)
            assert distance(p, q, KT) == pair_count_kemeny(p, q)


class TestPartialFootrule:
    """The footrule on partial rankings, over fractional tie positions."""

    def test_half_positions(self):
        r = PartialRanking.from_buckets([{1, 2}, {3}])
        q = PartialRanking.from_buckets([{1}, {2}, {3}])
        assert distance(r, q, SF) == 1

    def test_self_zero(self):
        r = PartialRanking.from_buckets([{2, 3}, {1}])
        assert distance(r, r, SF) == 0

    def test_swap(self):
        assert distance(
            PartialRanking.from_buckets([{1}, {2}]), PartialRanking.from_buckets([{2}, {1}]),
            SF,
        ) == 2

    def test_agrees_with_footrule_on_total_orders(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            p, q = random_permutation(rng, n), random_permutation(rng, n)
            assert distance(p.to_partial(), q.to_partial(), SF) == distance(p, q, SF)

    def test_matches_position_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            p, q = random_partial_ranking(rng, n), random_partial_ranking(rng, n)
            assert distance(p, q, SF) == position_footrule(p, q)


#: every name of a kind, aliases included: the aliases are the names the
#: benchmark's oracle-ties workload passes, and each name is checked on the
#: rankings it was first named for
NAMED_KINDS = {
    "KENDALL_TAU": random_permutation,
    "SPEARMAN_FOOTRULE": random_permutation,
    "KEMENY": random_partial_ranking,
    "PARTIAL_FOOTRULE": random_partial_ranking,
}


@pytest.mark.parametrize("name", list(NAMED_KINDS), ids=lambda name: f"DistanceKind.{name}")
def test_pseudometric_axioms(name):
    kind, make = DistanceKind[name], NAMED_KINDS[name]
    rng = generator(3)
    for _ in range(150):
        n = int(rng.integers(2, 13))
        a, b, c = make(rng, n), make(rng, n), make(rng, n)
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
        dt, ds = distance(p, q, KT), distance(p, q, SF)
        assert dt <= ds <= 2 * dt


def test_partial_constant_factor_both_directions():
    rng = generator(5)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        p, q = random_partial_ranking(rng, n), random_partial_ranking(rng, n)
        dk, dp = distance(p, q, KT), distance(p, q, SF)
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
            assert med == mini == pair_count_kendall(p, q)


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
            assert minmax_objective(
                p, inst, KT, SetDistanceKind.MINIMUM
            ) <= minmax_objective(p, inst, KT, SetDistanceKind.MEDIAN)

    @pytest.mark.parametrize("set_kind", list(SetDistanceKind))
    @pytest.mark.parametrize("kind, oracle", [
        (KT, pair_count_kemeny), (SF, position_footrule),
    ], ids=["kt", "sf"])
    def test_tied_input_is_measured_by_the_generalization(self, kind, oracle, set_kind):
        rng = generator(22)
        instances = [inst for inst in (tied_instance(rng) for _ in range(40)) if has_ties(inst)]
        assert len(instances) >= 20

        def cost(p, cls):
            ds = [oracle(p, member) for member in cls.members]
            return sum(ds) / cls.m if set_kind is SetDistanceKind.MEDIAN else min(ds)

        for inst in instances:
            for p in (random_permutation(rng, inst.n), random_partial_ranking(rng, inst.n)):
                expected = max(cls.weight * cost(p, cls) for cls in inst.classes)
                assert minmax_objective(p, inst, kind, set_kind) == expected


_TIED = PartialRanking.from_buckets([{1, 2}, {3}, {4}])


@pytest.mark.parametrize("kind, expected", [(KT, Fraction(1, 2)), (SF, 1)], ids=["kt", "sf"])
def test_objective_measures_partial_rankings_on_untied_input(kind, expected):
    # {1 2} 3 4 ties the one pair that the two classes order apart: 1/2
    # under Kendall tau, two half-position moves under the footrule
    for set_kind in SetDistanceKind:
        assert minmax_objective(_TIED, gap_instance(), kind, set_kind) == expected


@pytest.mark.parametrize("call, message", [
    (lambda: distance(_TIED, _TIED, "kt"), "unknown distance kind 'kt'"),
    (lambda: minmax_objective(Permutation.identity(3), gap_instance(),
                              DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN),
     "rankings over 3 and 4 elements"),
], ids=["unknown-kind", "objective-size"])
def test_inapplicable_distance_names_its_fault(call, message):
    with pytest.raises(DistanceError, match=f"^{message}$"):
        call()


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
