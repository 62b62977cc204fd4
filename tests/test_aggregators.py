from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from minmaxrank import (
    DistanceKind,
    Instance,
    KindMismatch,
    Permutation,
    RankingClass,
    RoundedMatrix,
    SetDistanceKind,
    brute_force,
    build_footrule_program,
    build_kendall_lp,
    make_partial_ranking,
    make_permutation,
    max_weight_members,
    median_footrule_matching_baseline,
    median_pivot_baseline,
    min_mmkt_conv,
    min_mmsp_conv,
    min_pick_perm,
    minmax_objective,
    mmkt_conv,
    mmsp_conv,
    pick_opt_perm,
    pick_rnd_perm,
    pivot_rounding,
    restrict_to_min_witnesses,
    solve,
)
from minmaxrank.aggregators import _pivot_costs, positions_to_order
from minmaxrank._rng import generator

from conftest import random_instance, random_permutation

KT = DistanceKind.KENDALL_TAU
SF = DistanceKind.SPEARMAN_FOOTRULE
MED = SetDistanceKind.MEDIAN
MIN = SetDistanceKind.MINIMUM
TOL = 1e-6


def gap_instance():
    return Instance(
        4,
        (
            RankingClass((Permutation.identity(4),), 1),
            RankingClass((make_permutation([2, 1, 3, 4]),), 1),
        ),
    )


def singleton_instance(p):
    return Instance(p.n, (RankingClass((p,), 1),))


class TestRoundedMatrix:
    def test_invariants_on_random_fractional(self):
        rng = generator(6)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            u = np.zeros((n, n))
            for x in range(n):
                for y in range(x + 1, n):
                    r = rng.random()
                    u[x, y], u[y, x] = r, 1.0 - r
            h = RoundedMatrix.from_fractional(u).h
            for x in range(n):
                assert h[x, x] == 0
                for y in range(n):
                    if x > y:
                        assert h[x, y] == (1 if u[x, y] >= 0.5 else 0)
                    elif x < y:
                        assert h[x, y] == 1 - h[y, x]

    def test_snapping_near_integral(self):
        u = np.array([[0.0, 1.0 - 1e-12], [1e-12, 0.0]])
        h = RoundedMatrix.from_fractional(u).h
        assert h[1, 0] == 0 and h[0, 1] == 1


def naive_pivot_costs(a, active, h, u, wf):
    """Literal transcription of the per-pivot cost definitions."""
    C = wf.shape[0]
    others = [x for x in active if x != a]
    spanning = [
        (x, y)
        for x in others
        for y in others
        if x != y and h[a, x] == 1 and h[y, a] == 1
    ]
    a_costs, b_costs = [], []
    for k in range(C):
        acost = sum(h[x, a] * wf[k, a, x] + h[a, x] * wf[k, x, a] for x in others)
        acost += sum(wf[k, x, y] for x, y in spanning)
        bcost = sum(u[x, a] * wf[k, a, x] + u[a, x] * wf[k, x, a] for x in others)
        bcost += sum(
            u[x, y] * wf[k, y, x] + u[y, x] * wf[k, x, y] for x, y in spanning
        )
        a_costs.append(acost)
        b_costs.append(bcost)
    return np.array(a_costs), np.array(b_costs)


def test_pivot_costs_match_naive_reference():
    rng = generator(7)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        C = int(rng.integers(1, 4))
        u = np.zeros((n, n))
        for x in range(n):
            for y in range(x + 1, n):
                r = rng.random()
                u[x, y], u[y, x] = r, 1.0 - r
        wf = rng.random((C, n, n))
        for x in range(n):
            wf[:, x, x] = 0.0
        h = RoundedMatrix.from_fractional(u).h
        active = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        active = [int(x) for x in active]
        for a in active:
            others = np.array([x for x in active if x != a])
            got_a, got_b = _pivot_costs(a, others, h, u, wf)
            want_a, want_b = naive_pivot_costs(a, active, h, u, wf)
            assert np.allclose(got_a, want_a)
            assert np.allclose(got_b, want_b)


class TestMmktConv:
    def test_singleton_returns_member_exactly(self, rng):
        for _ in range(10):
            p = random_permutation(rng, int(rng.integers(2, 7)))
            res = mmkt_conv(singleton_instance(p))
            assert res.ranking == p
            assert res.objective == 0

    def test_gap_instance_meets_factor_two(self):
        res = mmkt_conv(gap_instance())
        assert res.objective == 1
        assert abs(res.certificate - 0.5) < TOL

    def test_bound_and_per_level_invariant(self, rng):
        for _ in range(40):
            inst = random_instance(rng)
            prog = build_kendall_lp(inst)
            sol = solve(prog)
            order, trace = pivot_rounding(sol.u_pair, prog.wf)
            for level in trace:
                for a, b in zip(level.a_costs, level.b_costs):
                    assert a <= 2 * b + TOL
            perm = Permutation.from_order(order)
            obj = minmax_objective(perm, inst, KT, MED)
            assert float(obj) <= 2 * sol.objective + TOL
            w = brute_force(inst, KT, MED).value
            assert obj <= 2 * w

    def test_rounding_consistency_integral_solution(self, rng):
        # a unanimous class forces an integral optimum
        for _ in range(10):
            p = random_permutation(rng, 6)
            inst = Instance(6, (RankingClass((p, p, p), Fraction(2)),))
            res = mmkt_conv(inst)
            assert res.ranking == p

    def test_partial_instance_uses_kemeny(self):
        inst = Instance(
            3,
            (
                RankingClass((make_partial_ranking([{1, 2}, {3}]),), 1),
                RankingClass((make_partial_ranking([{1}, {2}, {3}]),), 1),
            ),
        )
        res = mmkt_conv(inst)
        assert res.objective == minmax_objective(
            res.ranking, inst, DistanceKind.KEMENY, MED
        )
        assert float(res.objective) <= 2 * res.certificate + TOL

    def test_rejects_footrule_kind(self):
        with pytest.raises(KindMismatch):
            mmkt_conv(gap_instance(), SF)


class TestMmspConv:
    def test_singleton_returns_member(self, rng):
        for _ in range(10):
            p = random_permutation(rng, int(rng.integers(2, 7)))
            res = mmsp_conv(singleton_instance(p), rng_seed=3)
            assert res.ranking == p
            assert res.objective == 0

    def test_two_class_example(self):
        inst = Instance(
            3,
            (
                RankingClass((Permutation.identity(3),), 1),
                RankingClass((make_permutation([2, 1, 3]),), 1),
            ),
        )
        res = mmsp_conv(inst, rng_seed=5)
        assert res.ranking in (Permutation.identity(3), make_permutation([2, 1, 3]))
        assert res.objective == 2
        assert abs(res.certificate - 1.0) < TOL

    def test_bound_and_closest_permutation(self, rng):
        for t in range(30):
            inst = random_instance(rng)
            prog = build_footrule_program(inst)
            sol = solve(prog)
            res = mmsp_conv(inst, rng_seed=t)
            assert float(res.objective) <= 2 * sol.objective + TOL
            # membership in the set of L1-closest permutations, via assignment
            n = inst.n
            cost = np.abs(sol.u_pos[:, None] - np.arange(1, n + 1)[None, :])
            rows, cols = linear_sum_assignment(cost)
            best = cost[rows, cols].sum()
            mine = np.abs(sol.u_pos - np.array(res.ranking.ranks)).sum()
            assert mine <= best + TOL
            # adjacent-swap argument: fractional positions weakly increase
            u_in_order = sol.u_pos[[x - 1 for x in res.ranking.order()]]
            assert (np.diff(u_in_order) >= -1e-9).all()

    def test_deterministic_ties_mode(self):
        u = np.array([2.0, 2.0, 1.0])
        assert positions_to_order(u, deterministic_ties=True) == [3, 1, 2]
        a = positions_to_order(u, rng_seed=11)
        b = positions_to_order(u, rng_seed=11)
        assert a == b

    def test_rejects_kendall_kind(self):
        with pytest.raises(KindMismatch):
            mmsp_conv(gap_instance(), KT)


class TestPickAlgorithms:
    def test_singleton(self):
        p = make_permutation([2, 3, 1])
        res = pick_rnd_perm(singleton_instance(p), KT, MED, rng_seed=0)
        assert res.ranking == p
        assert res.objective == 0

    def test_max_weight_restriction(self):
        heavy = RankingClass((Permutation.identity(3),), Fraction(2))
        light = RankingClass((make_permutation([3, 2, 1]),), Fraction(1))
        inst = Instance(3, (heavy, light))
        assert [k for k, _, _ in max_weight_members(inst)] == [0]
        for seed in range(5):
            res = pick_rnd_perm(inst, KT, MED, rng_seed=seed)
            assert res.ranking == Permutation.identity(3)

    def test_pick_opt_never_worse_than_any_draw(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            opt = pick_opt_perm(inst, KT, MED)
            for seed in range(8):
                assert opt.objective <= pick_rnd_perm(inst, KT, MED, seed).objective

    def test_pick_opt_gap_instance(self):
        assert pick_opt_perm(gap_instance(), KT, MED).objective == 1

    def test_pick_opt_identity_reversal(self):
        inst = Instance(
            3,
            (RankingClass((Permutation.identity(3), make_permutation([3, 2, 1])), 1),),
        )
        assert pick_opt_perm(inst, KT, MED).objective == Fraction(3, 2)

    def test_expected_pick_rnd_within_two_w(self, rng):
        for _ in range(15):
            inst = random_instance(rng)
            candidates = max_weight_members(inst)
            expectation = Fraction(
                sum(minmax_objective(m, inst, KT, MED) for _, _, m in candidates),
                len(candidates),
            )
            w = brute_force(inst, KT, MED).value
            assert expectation <= 2 * w

    def test_pick_rnd_deterministic_given_seed(self, rng):
        inst = random_instance(rng)
        a = pick_rnd_perm(inst, KT, MED, rng_seed=123)
        b = pick_rnd_perm(inst, KT, MED, rng_seed=123)
        assert a == b


class TestMinPick:
    def test_identity_vs_reversal(self):
        inst = Instance(
            3,
            (
                RankingClass((Permutation.identity(3),), 1),
                RankingClass((make_permutation([3, 2, 1]),), 1),
            ),
        )
        res = min_pick_perm(inst, KT)
        assert res.ranking == Permutation.identity(3)  # tie, lowest (class, index)
        assert res.objective == 3

    def test_shared_member_wins(self, rng):
        p = random_permutation(rng, 5)
        inst = Instance(
            5,
            (
                RankingClass((random_permutation(rng, 5), p), 1),
                RankingClass((p, random_permutation(rng, 5)), 1),
            ),
        )
        res = min_pick_perm(inst, KT)
        assert res.objective == 0
        assert res.ranking == p

    def test_single_class_fallback(self):
        p = make_permutation([2, 1, 3])
        inst = Instance(3, (RankingClass((p, Permutation.identity(3)), 1),))
        res = min_pick_perm(inst, KT)
        assert res.ranking == p
        assert res.objective == 0

    def test_within_two_of_min_optimum(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            res = min_pick_perm(inst, KT)
            w = brute_force(inst, KT, MIN).value
            assert res.objective <= 2 * w


class TestRestrictToMinWitnesses:
    def test_singletons_unchanged(self, rng):
        inst = random_instance(rng, m_choices=(1,))
        restricted = restrict_to_min_witnesses(inst, KT)
        assert restricted.n == inst.n
        assert [c.members for c in restricted.classes] == [
            c.members for c in inst.classes
        ]

    def test_keeps_only_closest(self):
        anchor = Permutation.identity(4)
        near = make_permutation([2, 1, 3, 4])  # distance 1
        far = make_permutation([4, 3, 2, 1])  # distance 6
        inst = Instance(
            4,
            (
                RankingClass((anchor,), Fraction(2)),
                RankingClass((far, near), Fraction(1)),
            ),
        )
        restricted = restrict_to_min_witnesses(inst, KT)
        assert restricted.classes[0].members == (anchor,)
        assert restricted.classes[1].members == (near,)
        assert restricted.classes[1].weight == 1

    def test_keeps_all_tied_witnesses(self):
        anchor = Permutation.identity(3)
        a = make_permutation([2, 1, 3])
        b = make_permutation([1, 3, 2])  # both at distance 1
        inst = Instance(
            3,
            (
                RankingClass((anchor,), Fraction(2)),
                RankingClass((a, b), Fraction(1)),
            ),
        )
        restricted = restrict_to_min_witnesses(inst, KT)
        assert restricted.classes[1].members == (a, b)


class TestMinConvVariants:
    def test_two_singletons_reduce_to_mmkt(self, rng):
        for _ in range(5):
            inst = random_instance(rng, c_choices=(2,), m_choices=(1,))
            direct = mmkt_conv(inst)
            viamin = min_mmkt_conv(inst)
            assert viamin.ranking == direct.ranking

    def test_factor_four_bounds(self, rng):
        for t in range(20):
            inst = random_instance(rng)
            w_kt = brute_force(inst, KT, MIN).value
            assert min_mmkt_conv(inst).objective <= 4 * w_kt
            w_sf = brute_force(inst, SF, MIN).value
            assert min_mmsp_conv(inst, rng_seed=t).objective <= 4 * w_sf


class TestBaselines:
    def test_pivot_baseline_singleton(self):
        p = make_permutation([3, 1, 2])
        res = median_pivot_baseline(singleton_instance(p), rng_seed=0)
        assert res.ranking == p

    def test_pivot_baseline_unanimous(self, rng):
        p = random_permutation(rng, 6)
        inst = Instance(
            6,
            (
                RankingClass((p, p), Fraction(1)),
                RankingClass((p,), Fraction(2)),
            ),
        )
        for seed in range(6):
            assert median_pivot_baseline(inst, rng_seed=seed).ranking == p

    def test_matching_baseline_singleton(self):
        p = make_permutation([2, 3, 1])
        res = median_footrule_matching_baseline(singleton_instance(p))
        assert res.ranking == p
        assert res.objective == 0

    def test_matching_baseline_identity_reversal_pooled_cost(self):
        inst = Instance(
            3,
            (RankingClass((Permutation.identity(3), make_permutation([3, 2, 1])), 1),),
        )
        res = median_footrule_matching_baseline(inst)
        pooled = sum(
            int(
                minmax_objective(res.ranking, Instance(3, (RankingClass((m,), 1),)),
                                 SF, MED)
            )
            for m in inst.classes[0].members
        )
        assert pooled == 4

    def test_matching_baseline_can_lose_to_mmsp(self):
        # found by random search: the pooled footrule median ignores the
        # class structure and pays for it in the minmax objective
        inst = Instance(
            5,
            (
                RankingClass((make_permutation([3, 2, 5, 1, 4]),), Fraction(2)),
                RankingClass((make_permutation([2, 4, 1, 5, 3]),), Fraction(2)),
            ),
        )
        base = median_footrule_matching_baseline(inst)
        conv = mmsp_conv(inst, rng_seed=0, deterministic_ties=True)
        assert base.objective > conv.objective
