import ast
import re
import tracemalloc
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxrank import (
    Instance,
    PartialRanking,
    Permutation,
    RankingClass,
    RankingError,
    max_weight_members,
)
from minmaxrank._rng import generator
from minmaxrank.rankings import BLOCK_ELEMENTS, twice_positions

from conftest import positions, random_partial_ranking, singleton_buckets, tied_instance

perm_strategy = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda ranks: Permutation(tuple(ranks)))


class TestMakePermutation:
    def test_identity(self):
        p = Permutation((1, 2, 3))
        assert p == Permutation.identity(3)
        assert p.order() == (1, 2, 3)

    def test_transposition(self):
        p = Permutation((2, 1, 3))
        assert p.order() == (2, 1, 3)

    def test_duplicate_rank(self):
        with pytest.raises(RankingError, match="rank 1 appears more than once"):
            Permutation((1, 1, 3))

    def test_rank_out_of_range(self):
        with pytest.raises(RankingError, match=r"rank 0 outside 1\.\.3"):
            Permutation((0, 1, 2))
        with pytest.raises(RankingError, match=r"rank 4 outside 1\.\.3"):
            Permutation((1, 2, 4))

    def test_empty(self):
        with pytest.raises(RankingError):
            Permutation(())

    def test_from_order_roundtrip(self):
        p = Permutation((3, 1, 2))
        assert Permutation.from_order(p.order()) == p


class TestInverse:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.inverse() == p

    def test_involution_of_transposition(self):
        p = Permutation((2, 1, 3))
        assert p.inverse() == p

    def test_three_cycle(self):
        assert Permutation((2, 3, 1)).inverse() == Permutation((3, 1, 2))

    @given(perm_strategy)
    @settings(max_examples=150)
    def test_double_inverse(self, p):
        assert p.inverse().inverse() == p

    @given(perm_strategy)
    @settings(max_examples=150)
    def test_inverse_composes_to_identity(self, p):
        inv = p.inverse()
        assert all(inv.ranks[p.ranks[x - 1] - 1] == x for x in range(1, p.n + 1))


class TestPosition:
    def test_tied_pair(self):
        r = PartialRanking.from_buckets([{1, 2}, {3}])
        assert positions(r) == [Fraction(3, 2), Fraction(3, 2), 3]

    def test_total_order_equals_rank(self):
        r = PartialRanking.from_buckets([{1}, {2}, {3}])
        assert positions(r)[1] == 2

    def test_single_bucket(self):
        r = PartialRanking.from_buckets([{1, 2, 3}])
        assert positions(r)[2] == 2

    def test_positions_sum(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            r = random_partial_ranking(rng, n)
            assert sum(positions(r)) == Fraction(n * (n + 1), 2)

    def test_permutation_promotion_preserves_positions(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            p = Permutation.from_order([int(x) + 1 for x in rng.permutation(n)])
            assert positions(singleton_buckets(p)) == list(p.ranks)

    def test_twice_positions_mixes_kinds(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            p = Permutation.from_order([int(x) + 1 for x in rng.permutation(n)])
            r = random_partial_ranking(rng, n)
            tw = twice_positions([p, r])
            assert tw.shape == (2, n) and tw.dtype.kind == "i"
            assert tw[0].tolist() == [2 * rank for rank in p.ranks]
            # position(x) = #{ranked strictly higher} + (bucket size + 1) / 2
            bucket_of = {x: i for i, b in enumerate(r.buckets) for x in b}
            for x in range(1, n + 1):
                higher = sum(bucket_of[y] < bucket_of[x] for y in bucket_of)
                size = sum(bucket_of[y] == bucket_of[x] for y in bucket_of)
                assert tw[1, x - 1] == 2 * higher + size + 1


class TestPartialRankingValidation:
    def test_element_in_two_buckets(self):
        with pytest.raises(RankingError):
            PartialRanking.from_buckets([{1, 2}, {2, 3}])

    def test_element_out_of_range(self):
        with pytest.raises(RankingError, match=r"element 5 outside 1\.\.3"):
            PartialRanking.from_buckets([{1, 5}, {2}])

    def test_empty_bucket(self):
        with pytest.raises(RankingError):
            PartialRanking((frozenset({1}), frozenset()))

    def test_tied_pair_count(self):
        # tied elements, and only they, share a position
        for buckets, tied in (([{1, 2, 3}, {4}], 3), ([{1}, {2}], 0)):
            tw = twice_positions([PartialRanking.from_buckets(buckets)])[0]
            assert sum(a == b for a, b in combinations(tw, 2)) == tied


class TestClassesAndInstances:
    def test_class_requires_members(self):
        with pytest.raises(RankingError):
            RankingClass((), Fraction(1))

    def test_class_requires_positive_weight(self):
        with pytest.raises(RankingError):
            RankingClass((Permutation.identity(2),), Fraction(0))

    def test_class_accepts_mixed_kinds(self):
        members = (
            Permutation((2, 3, 1)),
            PartialRanking.from_buckets([{3}, {1, 2}]),
            PartialRanking.from_buckets([{1}, {2}, {3}]),
        )
        inst = Instance(3, (RankingClass(members, 1),))
        np.testing.assert_array_equal(
            inst.member_tw, [[4, 6, 2], [5, 5, 2], [2, 4, 6]]
        )
        np.testing.assert_array_equal(inst.member_tw, twice_positions(members))

    def test_max_weight_members(self):
        inst = Instance(
            2,
            (
                RankingClass((Permutation.identity(2),), Fraction(2)),
                RankingClass((Permutation.identity(2),), Fraction(1)),
                RankingClass((Permutation.identity(2),), Fraction(2)),
            ),
        )
        assert [k for k, _, _ in max_weight_members(inst)] == [0, 2]

    def test_instance_size_check(self):
        with pytest.raises(RankingError):
            Instance(3, (RankingClass((Permutation.identity(2),), 1),))


@pytest.mark.parametrize("build, message", [
    (lambda: Permutation((1, 2.0)), r"rank 2\.0 is not an integer"),
    (lambda: Permutation.from_order([1, 3]), r"element 3 outside 1\.\.2"),
    (lambda: Permutation.from_order(np.array([2, 1, 3])),
     rf"element {re.escape(repr(np.int64(2)))} is not an integer"),
    (lambda: Permutation.from_order([2.0, 1, 3]), r"element 2\.0 is not an integer"),
    (lambda: PartialRanking.from_buckets([[np.int64(1)]]),
     rf"element {re.escape(repr(np.int64(1)))} is not an integer"),
    (lambda: PartialRanking.from_buckets([[1], [2.0]]), r"element 2\.0 is not an integer"),
    (lambda: Permutation.from_order([2, 2]), r"element 2 listed more than once"),
    (lambda: PartialRanking(()), r"partial ranking must have at least one element"),
    (lambda: PartialRanking((frozenset({1.5}), frozenset())), r"empty bucket"),
    (lambda: RankingClass((Permutation.identity(2), Permutation.identity(3))),
     r"members have differing ground-set sizes"),
    (lambda: Instance(2, ()), r"instance must have at least one class"),
], ids=["rank-not-int", "from-order-range", "from-order-numpy", "from-order-float",
        "bucket-numpy", "bucket-float", "from-order-repeat", "empty-partial",
        "empty-bucket-first", "member-sizes", "no-classes"])
def test_invalid_input_names_its_fault(build, message):
    with pytest.raises(RankingError, match=f"^{message}$"):
        build()


class TestMemberView:
    def instance(self):
        return Instance(
            3,
            (
                RankingClass((Permutation.identity(3), Permutation((3, 1, 2))), 2),
                RankingClass((PartialRanking.from_buckets([{1, 2}, {3}]),), Fraction(1, 3)),
            ),
        )

    def test_rows_follow_classes(self):
        inst = self.instance()
        members = [m for _, _, m in inst.iter_members()]
        assert inst.member_tw.tolist() == twice_positions(members).tolist()
        assert inst.class_starts == (0, 2)

    def test_view_is_read_only(self):
        inst = self.instance()
        for view in (inst.member_tw, inst.above_counts):
            before = view[0, 0].copy()
            with pytest.raises(ValueError):
                view[0, 0] = 7
            assert (view[0, 0] == before).all()

    def test_blocked_counts_match_unblocked_formula(self):
        rng = generator(12)
        for n in (20, 30, 70):
            inst = tied_instance(rng, n_choices=(n,), m_choices=(1, 90, 200))
            assert inst.n**2 * max(cls.m for cls in inst.classes) > BLOCK_ELEMENTS
            whole = [
                (tw[:, :, None] < tw[:, None, :]).sum(axis=0)
                for tw in np.split(inst.member_tw, inst.class_starts[1:])
            ]
            assert inst.above_counts.tolist() == np.stack(whole).tolist()

    def test_counts_memory_stays_within_budget(self):
        rng = generator(13)
        members = tuple(random_partial_ranking(rng, 300) for _ in range(400))
        inst = Instance(300, (RankingClass(members, 1),))
        inst.member_tw  # built before the count is traced
        tracemalloc.start()
        try:
            counts = inst.above_counts
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.shape == (1, 300, 300)
        # the 0.7 MB result plus one member's 0.7 MB count and comparison;
        # all 400 members' (400, 300, 300) comparison at once takes 36 MB
        assert peak < 4 * 2**20

    def test_built_view_leaves_equality_hash_and_repr(self):
        views = [name for name, attr in vars(Instance).items()
                 if isinstance(attr, cached_property)]
        assert {"member_tw", "member_signs", "above_counts"} <= set(views)
        for view in views:
            built, fresh = self.instance(), self.instance()
            value = getattr(built, view)
            assert view in vars(built) and view not in vars(fresh)
            # every view is read-only: an array that refuses writes, or a tuple
            assert isinstance(value, tuple) or not value.flags.writeable
            assert built == fresh
            assert hash(built) == hash(fresh)
            assert repr(built) == repr(fresh)

    def test_member_signs_are_the_pair_signs_of_member_tw(self):
        inst = self.instance()
        signs = inst.member_signs
        assert signs.dtype == np.int8
        # pairs (1, 2), (1, 3), (2, 3): -1 when the first is above
        assert signs.tolist() == [[-1, -1, -1], [1, 1, -1], [0, -1, -1]]


def test_rankings_imports_no_module_of_the_package():
    # the core types sit below every other module, so the member views build
    # their pair signs here and no import runs inside a function
    path = Path(__file__).parents[1] / "src" / "minmaxrank" / "rankings.py"
    roots = set()  # top-level names imported, "." for a relative import
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("." if node.level else node.module.split(".")[0])
    assert roots.isdisjoint({".", "minmaxrank"})
