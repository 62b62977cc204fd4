import math
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from minmaxrank import (
    DistanceError,
    DistanceKind,
    Instance,
    PartialRanking,
    Permutation,
    RankingClass,
    SetDistanceKind,
    as_partial,
    brute_force,
    build_footrule_program,
    build_kendall_lp,
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
    set_distance,
    solve,
)
from minmaxrank import aggregators
from minmaxrank.aggregators import (
    _cost_tables,
    _kendall_order,
    _pivot_costs,
    _rounded_matrix,
    positions_to_order,
)
from minmaxrank.distances import BLOCK_ELEMENTS
from minmaxrank._rng import generator
from minmaxrank.cli import parse_gene_order_file
from minmaxrank.mallows import TwoLevelConfig, sample_instance

from conftest import gap_instance, random_instance, random_permutation, tied_instance

KT = DistanceKind.KENDALL_TAU
SF = DistanceKind.SPEARMAN_FOOTRULE
MED = SetDistanceKind.MEDIAN
MIN = SetDistanceKind.MINIMUM
TOL = 1e-6
GENE_SAMPLE = Path(__file__).parents[1] / "data" / "sample_gene_orders.tsv"


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
            h = _rounded_matrix(u)
            for x in range(n):
                assert h[x, x] == 0
                for y in range(n):
                    if x > y:
                        assert h[x, y] == (1 if u[x, y] >= 0.5 else 0)
                    elif x < y:
                        assert h[x, y] == 1 - h[y, x]

    def test_snapping_near_integral(self):
        u = np.array([[0.0, 1.0 - 1e-12], [1e-12, 0.0]])
        h = _rounded_matrix(u)
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
        h = _rounded_matrix(u)
        active = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        active = [int(x) for x in active]
        got_a, got_b = _pivot_costs(np.array(active), h, _cost_tables(h, u, wf))
        assert got_a.shape == got_b.shape == (C, len(active))
        for i, a in enumerate(active):
            want_a, want_b = naive_pivot_costs(a, active, h, u, wf)
            assert np.allclose(got_a[:, i], want_a)
            assert np.allclose(got_b[:, i], want_b)


def naive_ratio(a_costs, b_costs):
    return max(
        a / b if b > 1e-12 else (math.inf if a > 1e-12 else 0.0)
        for a, b in zip(a_costs, b_costs)
    )


def reference_pivot_rounding(u, wf):
    """Recursive min-ratio pivot rounding over ``naive_pivot_costs``.

    Ratios within 1e-9 of the level's minimum tie, and the smallest id wins.
    """
    h = _rounded_matrix(u)

    def recurse(active):
        if len(active) <= 1:
            return list(active), []
        scored = []
        for a in active:
            a_costs, b_costs = naive_pivot_costs(a, active, h, u, wf)
            scored.append((naive_ratio(a_costs, b_costs), a, a_costs, b_costs))
        least = min(ratio for ratio, *_ in scored)
        ratio, v, a_costs, b_costs = next(s for s in scored if s[0] <= least + 1e-9)
        left_order, left_trace = recurse([x for x in active if h[x, v] == 1])
        right_order, right_trace = recurse(
            [x for x in active if x != v and h[x, v] == 0]
        )
        return (
            left_order + [v] + right_order,
            [(v + 1, a_costs, b_costs, ratio)] + left_trace + right_trace,
        )

    order, trace = recurse(list(range(u.shape[0])))
    return [x + 1 for x in order], trace


def random_pairwise_problem(rng):
    """Fractional u, partly snapped to a hidden order, and sparse weights.

    Snapped pairs and zero weights make many candidates score exactly 0/0
    or tie in exact arithmetic.
    """
    n = int(rng.integers(2, 9))
    C = int(rng.integers(1, 4))
    rank = rng.permutation(n)
    u = np.zeros((n, n))
    for x in range(n):
        for y in range(x + 1, n):
            r = float(rank[x] < rank[y]) if rng.random() < 0.5 else rng.random()
            u[x, y], u[y, x] = r, 1.0 - r
    wf = rng.random((C, n, n)) * (rng.random((C, n, n)) < 0.5)
    for x in range(n):
        wf[:, x, x] = 0.0
    return u, wf


def assert_same_rounding(u, wf):
    order, trace = pivot_rounding(u, wf)
    want_order, want_trace = reference_pivot_rounding(u, wf)
    assert order == want_order
    assert [level.pivot for level in trace] == [t[0] for t in want_trace]
    for level, (_, a_costs, b_costs, ratio) in zip(trace, want_trace):
        assert np.allclose(level.a_costs, a_costs)
        assert np.allclose(level.b_costs, b_costs)
        assert np.isclose(level.ratio, ratio)
    return trace


def test_pivot_rounding_matches_recursive_reference():
    rng = generator(11)
    zero_ties = 0
    for _ in range(60):
        trace = assert_same_rounding(*random_pairwise_problem(rng))
        zero_ties += sum(level.ratio == 0 for level in trace)
    assert zero_ties > 0


def test_pivot_rounding_matches_reference_on_lp_solutions():
    # LP optima are integral on many pairs, so candidates tie in exact
    # arithmetic and their float ratios differ only by summation order
    for trial in range(8):
        cfg = TwoLevelConfig.create(10, 3, 10, 0.7, 0.7)
        prog = build_kendall_lp(sample_instance(cfg, (4, trial)))
        assert_same_rounding(solve(prog).u, prog.wf)


@contextmanager
def recursion_headroom(frames=40):
    """Allow only ``frames`` Python frames beyond the current depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_pivot_rounding_has_no_recursion_limit():
    # the identity's integral solution: every candidate scores 0/0, so the
    # smallest active element is the pivot at each of n - 1 levels
    n = 80
    u = np.triu(np.ones((n, n)), 1)
    with recursion_headroom():
        order, trace = pivot_rounding(u, u[None])
    assert order == list(range(1, n + 1))
    assert [level.pivot for level in trace] == list(range(1, n))
    assert all(level.ratio == 0 for level in trace)


def test_pivot_baseline_has_no_recursion_limit(rng):
    p = random_permutation(rng, 80)
    inst = Instance(80, (RankingClass((p,), 1),))
    with recursion_headroom():
        assert median_pivot_baseline(inst, rng_seed=0).ranking == p


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
            order, trace = pivot_rounding(sol.u, prog.wf)
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
                RankingClass((PartialRanking.from_buckets([{1, 2}, {3}]),), 1),
                RankingClass((PartialRanking.from_buckets([{1}, {2}, {3}]),), 1),
            ),
        )
        res = mmkt_conv(inst)
        assert res.objective == minmax_objective(res.ranking, inst, KT, MED)
        assert float(res.objective) <= 2 * res.certificate + TOL

    def test_rejects_footrule_kind(self):
        with pytest.raises(DistanceError, match="is not a Kendall-type distance"):
            mmkt_conv(gap_instance(), SF)


def has_three_cycle(h):
    """A tournament is transitive exactly when it has no 3-cycle."""
    h = h.astype(np.int64)
    return bool(((h @ h) * h.T).any())


@pytest.fixture
def pivot_calls(monkeypatch):
    """The arguments of every ``pivot_rounding`` call that ``aggregators`` makes."""
    calls = []

    def spy(*args):
        calls.append(args)
        return pivot_rounding(*args)

    monkeypatch.setattr(aggregators, "pivot_rounding", spy)
    return calls


@pytest.fixture(scope="module")
def mallows300():
    """A seeded n=300 Mallows instance and pivot rounding's ranking of it."""
    inst = sample_instance(TwoLevelConfig.create(300, 3, 10, 0.7, 0.7), 0)
    prog = build_kendall_lp(inst)
    sol = solve(prog)
    return inst, prog, sol, Permutation.from_order(pivot_rounding(sol.u, prog.wf)[0])


class TestTransitiveShortcut:
    def test_matches_pivot_rounding_on_lp_solutions(self, mallows300):
        inst300, prog300, sol300, _ = mallows300
        cases = [(sol300.u, prog300.wf)]
        sources = [restrict_to_min_witnesses(inst300, KT)]
        for n, seeds in ((10, range(6)), (40, range(3))):
            for seed in seeds:
                inst = sample_instance(TwoLevelConfig.create(n, 3, 10, 0.7, 0.7), seed)
                sources += [inst, restrict_to_min_witnesses(inst, KT)]
        # the gene sample's rounding has cycles whatever vertex HiGHS returns
        sources.append(parse_gene_order_file(GENE_SAMPLE.read_text()).instance)
        for source in sources:
            prog = build_kendall_lp(source)
            cases.append((solve(prog).u, prog.wf))
        transitive = []
        for u, wf in cases:
            transitive.append(not has_three_cycle(_rounded_matrix(u)))
            assert _kendall_order(u, wf) == pivot_rounding(u, wf)[0]
        # both branches run: the order read off h, and the pivot fallback
        assert any(transitive) and not all(transitive)

    def test_three_cycle_falls_back_to_pivot_rounding(self, pivot_calls):
        # u[x, y] = 0.6 for x -> y around 0 -> 1 -> 2 -> 0: every row sum is 1
        u = np.zeros((3, 3))
        for x, y in ((0, 1), (1, 2), (2, 0)):
            u[x, y], u[y, x] = 0.6, 0.4
        assert has_three_cycle(_rounded_matrix(u))
        wf = np.ones((1, 3, 3)) - np.eye(3)
        assert _kendall_order(u, wf) == pivot_rounding(u, wf)[0]
        assert len(pivot_calls) == 1

    def test_transitive_rounding_scores_no_pivot(self, monkeypatch, mallows300):
        inst, _, _, want = mallows300

        def refuse(*args):
            raise AssertionError("pivot_rounding ran on a transitive rounding")

        monkeypatch.setattr(aggregators, "pivot_rounding", refuse)
        assert mmkt_conv(inst).ranking == want

    def test_cyclic_gene_rounding_scores_pivots_once(self, pivot_calls):
        res = mmkt_conv(parse_gene_order_file(GENE_SAMPLE.read_text()).instance)
        assert len(pivot_calls) == 1
        assert has_three_cycle(_rounded_matrix(pivot_calls[0][0]))
        assert res.objective == 274


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
                RankingClass((Permutation((2, 1, 3)),), 1),
            ),
        )
        res = mmsp_conv(inst, rng_seed=5)
        assert res.ranking in (Permutation.identity(3), Permutation((2, 1, 3)))
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
            cost = np.abs(sol.u[:, None] - np.arange(1, n + 1)[None, :])
            rows, cols = linear_sum_assignment(cost)
            best = cost[rows, cols].sum()
            mine = np.abs(sol.u - np.array(res.ranking.ranks)).sum()
            assert mine <= best + TOL
            # adjacent-swap argument: fractional positions weakly increase
            u_in_order = sol.u[[x - 1 for x in res.ranking.order()]]
            assert (np.diff(u_in_order) >= -1e-9).all()

    def test_tied_bound_against_the_optimum(self):
        # with ties the objective can pass 2 x certificate; optimum + 2 x
        # certificate <= 3 x optimum holds (see the mmsp_conv docstring)
        rng = generator(25)
        above_twice = 0
        for t in range(200):
            inst = tied_instance(rng, n_choices=(3, 4, 5, 6, 7))
            res = mmsp_conv(inst, rng_seed=t)
            optimum = float(brute_force(inst, SF, MED).value)
            objective = float(res.objective)
            assert res.certificate <= optimum + TOL
            assert objective <= optimum + 2 * res.certificate + TOL
            assert objective <= 3 * optimum + TOL
            above_twice += objective > 2 * res.certificate + TOL
        assert above_twice > 0

    def test_positions_to_order_shuffles_tie_groups_by_seed(self):
        # tie groups {3, 5} and {1, 2, 4} (1-based; 1e-10 apart counts as
        # tied), separated by gaps far above 1e-9, and 6 alone after them
        u = np.array([2.0, 2.0 + 1e-10, 1.0, 2.0, 1.0 + 5e-10, 3.0])
        orders = set()
        for seed in range(20):
            order = positions_to_order(u, rng_seed=seed)
            assert order == positions_to_order(u, rng_seed=seed)
            assert sorted(order[:2]) == [3, 5]
            assert sorted(order[2:5]) == [1, 2, 4]
            assert order[5] == 6
            orders.add(tuple(order[2:5]))
        assert len(orders) > 1

    def test_rejects_kendall_kind(self):
        with pytest.raises(DistanceError, match="is not a footrule-type distance"):
            mmsp_conv(gap_instance(), KT)


class TestPickAlgorithms:
    def test_singleton(self):
        p = Permutation((2, 3, 1))
        res = pick_rnd_perm(singleton_instance(p), KT, MED, rng_seed=0)
        assert res.ranking == p
        assert res.objective == 0

    def test_max_weight_restriction(self):
        heavy = RankingClass((Permutation.identity(3),), Fraction(2))
        light = RankingClass((Permutation((3, 2, 1)),), Fraction(1))
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
            (RankingClass((Permutation.identity(3), Permutation((3, 2, 1))), 1),),
        )
        res = pick_opt_perm(inst, KT, MED)
        assert res.objective == Fraction(3, 2)
        # both members cost 3/2; the first (class, index) wins
        assert res.ranking is inst.classes[0].members[0]

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


def reference_objective(p, inst, kind, set_kind, skip=None):
    """Weighted worst class over the per-member ``set_distance``, in Fractions."""
    return max(
        (
            cls.weight * set_distance(p, cls, kind, set_kind)
            for k, cls in enumerate(inst.classes)
            if k != skip
        ),
        default=Fraction(0),
    )


def refined(member, inst):
    """``member`` itself if a permutation; else its buckets each ordered by
    descending pooled weighted wins, then id, counted in Fractions."""
    if isinstance(member, Permutation):
        return member
    elements = range(1, inst.n + 1)
    wins = {x: sum(
        cls.weight / cls.m * sum((r.position(y) > r.position(x)) - (r.position(y) < r.position(x))
                                 for y in elements)
        for cls in inst.classes for r in map(as_partial, cls.members)
    ) for x in elements}
    return Permutation.from_order(
        sorted(elements, key=lambda x: (member.position(x), -wins[x], x)))


@pytest.mark.parametrize("set_kind", [MED, MIN])
@pytest.mark.parametrize("family", [KT, SF])
@pytest.mark.parametrize("ties", [False, True])
def test_objective_and_picks_match_set_distance_reference(ties, family, set_kind):
    rng = generator(7 + 2 * ties)
    for _ in range(25):
        inst = random_instance(
            rng, n_choices=(3, 4, 5, 6, 7), c_choices=(1, 2, 3),
            m_choices=(1, 2, 3, 4), allow_ties=ties,
            weight_choices=(Fraction(1, 3), Fraction(7, 5), Fraction(0.1)),
        )
        kind = family
        members = list(inst.iter_members())
        for p in [m for _, _, m in members] + [random_permutation(rng, inst.n)]:
            assert minmax_objective(p, inst, kind, set_kind) == reference_objective(
                p, inst, kind, set_kind
            )

        # pick-opt: the first heaviest-class member of least objective,
        # refined if tied
        candidates = max_weight_members(inst)
        scores = [
            reference_objective(m, inst, kind, set_kind) for _, _, m in candidates
        ]
        best = candidates[scores.index(min(scores))][2]
        res = pick_opt_perm(inst, family, set_kind)
        assert res.ranking == refined(best, inst)
        assert res.objective == reference_objective(res.ranking, inst, kind, set_kind)
        if best is res.ranking:
            assert res.objective == min(scores)

        # min-pick: the first member of least score over the other classes,
        # refined if tied
        scores = [
            reference_objective(m, inst, kind, MIN, skip=k) for k, _, m in members
        ]
        best = members[scores.index(min(scores))][2]
        res = min_pick_perm(inst, family)
        assert res.ranking == refined(best, inst)
        assert res.objective == reference_objective(res.ranking, inst, kind, MIN)
        if best is res.ranking:
            assert res.objective == min(scores)


class TestMinPick:
    def test_identity_vs_reversal(self):
        inst = Instance(
            3,
            (
                RankingClass((Permutation.identity(3),), 1),
                RankingClass((Permutation((3, 2, 1)),), 1),
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
        p = Permutation((2, 1, 3))
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
        near = Permutation((2, 1, 3, 4))  # distance 1
        far = Permutation((4, 3, 2, 1))  # distance 6
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
        a = Permutation((2, 1, 3))
        b = Permutation((1, 3, 2))  # both at distance 1
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


ONE, UP, DOWN = Permutation.identity(1), Permutation.identity(2), Permutation((2, 1))

#: one- and two-element instances; "n2-rounding" rounds u12 of about 0.355 to
#: 2 > 1 at cost 21/10 where 1 > 2 costs 2, so rounding is not optimal at n=2
DEGENERATE = {
    "n1": Instance(1, (RankingClass((ONE,), 1),)),
    "n1-two-classes": Instance(1, (
        RankingClass((ONE,), 1), RankingClass((ONE, ONE), Fraction(5, 2)))),
    "n2": Instance(2, (RankingClass((UP,), 1), RankingClass((DOWN,), 1))),
    "n2-rounding": Instance(2, (
        RankingClass((DOWN,) * 2 + (UP,), 3),
        RankingClass((UP,), Fraction(21, 10)))),
    "n2-tied": Instance(2, (
        RankingClass((PartialRanking.from_buckets([{1, 2}]),
                      PartialRanking.from_buckets([{2}, {1}])), 1),
        RankingClass((PartialRanking.from_buckets([{1}, {2}]),), 2))),
}


@pytest.mark.parametrize("name", list(DEGENERATE))
class TestDegenerateSizes:
    def test_median_algorithms_meet_their_certificates(self, name):
        inst = DEGENERATE[name]
        for algo, family in ((mmkt_conv, KT), (mmsp_conv, SF)):
            res = algo(inst)
            optimum = brute_force(inst, family, MED).value
            assert res.certificate <= optimum + 1e-9
            assert res.objective <= 2 * res.certificate + 1e-9

    def test_min_variants_within_four(self, name):
        inst = DEGENERATE[name]
        for algo, family in ((min_mmkt_conv, KT), (min_mmsp_conv, SF)):
            optimum = brute_force(inst, family, MIN).value
            assert algo(inst).objective <= 4 * optimum


class TestBaselines:
    def test_pivot_baseline_singleton(self):
        p = Permutation((3, 1, 2))
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
        p = Permutation((2, 3, 1))
        res = median_footrule_matching_baseline(singleton_instance(p))
        assert res.ranking == p
        assert res.objective == 0

    def test_matching_baseline_identity_reversal_pooled_cost(self):
        inst = Instance(
            3,
            (RankingClass((Permutation.identity(3), Permutation((3, 2, 1))), 1),),
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
        # the pooled footrule median ignores the class structure and pays for
        # it in the minmax objective.  Found by a seeded search: the first of
        # 3,000 draws of two one-member classes of weight 2 over n=5
        # (``random_permutation(generator(0), 5)``, twice per draw), of which
        # 1,891 are witnesses; the baseline scores 12 here, and mmsp 8
        inst = Instance(
            5,
            (
                RankingClass((Permutation((1, 5, 4, 2, 3)),), Fraction(2)),
                RankingClass((Permutation((1, 4, 2, 3, 5)),), Fraction(2)),
            ),
        )
        base = median_footrule_matching_baseline(inst)
        conv = mmsp_conv(inst, rng_seed=0)
        assert base.objective > conv.objective

    def test_matching_baseline_blocks_match_unblocked_cost(self, rng):
        # M * n^2 exceeds BLOCK_ELEMENTS on each, so the pooled cost is
        # summed over several member blocks
        instances = [
            sample_instance(TwoLevelConfig.create(40, 3, 15, 0.7, 0.7), (seed, 0))
            for seed in range(3)
        ] + [tied_instance(rng, n_choices=(30,), c_choices=(3,), m_choices=(25,))
             for _ in range(3)]
        for inst in instances:
            tw = inst.member_tw
            assert len(tw) * inst.n**2 > BLOCK_ELEMENTS
            cost = np.abs(tw[:, :, None] - 2 * np.arange(1, inst.n + 1)).sum(axis=0)
            _, cols = linear_sum_assignment(cost)
            expected = Permutation(tuple(int(c) + 1 for c in cols))
            assert median_footrule_matching_baseline(inst).ranking == expected

    def test_matching_baseline_memory_stays_within_budget(self):
        inst = sample_instance(TwoLevelConfig.create(400, 3, 10, 0.7, 0.7), (0, 0))
        inst.member_tw  # build the cached member view first
        tracemalloc.start()
        try:
            median_footrule_matching_baseline(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one unblocked (30, 400, 400) int64 temporary alone is 38 MB
        assert peak < 8 * 2**20


def test_bounds_hold_for_permutation_classes_only():
    # class=a lambda=3/2 : { 1 2 3 4 5 }
    # class=a lambda=3/2 : 3 5 { 1 2 } 4
    tied = Instance(5, (RankingClass((
        PartialRanking.from_buckets([{1, 2, 3, 4, 5}]),
        PartialRanking.from_buckets([{3}, {5}, {1, 2}, {4}]),
    ), Fraction(3, 2)),))
    # min-pick selects the all-tied member (objective 0, below every
    # permutation's) and refines it by pooled wins, which here order it as
    # the other member does, ties by id: an optimum
    pick = min_pick_perm(tied, KT)
    assert pick.ranking == Permutation.from_order([3, 5, 1, 2, 4])
    assert pick.objective == brute_force(tied, KT, MIN).value == Fraction(3, 4)
    # 27/4 (9x) before the Kendall program took one column per pair; its
    # optimal vertex moved, and the rounding with it
    assert min_mmkt_conv(tied).objective == Fraction(15, 2)  # 10x
    assert brute_force(tied, SF, MIN).value == Fraction(3, 2)
    assert min_mmsp_conv(tied, rng_seed=0).objective == 9  # 6x
    # class=a lambda=1 : { 1 2 3 } and class=b lambda=2 : { 1 2 3 }
    all_tied = Instance(3, tuple(
        RankingClass((PartialRanking.from_buckets([{1, 2, 3}]),), w) for w in (1, 2)
    ))
    res = mmsp_conv(all_tied, rng_seed=0)
    assert res.objective == 4 and f"{res.certificate:.6f}" == "0.000000"


#: mean objective / brute-force optimum of each LP-rounding algorithm on
#: ``sweep_instances(8)``, the footrule ones with ``rng_seed=(0, t)`` on
#: instance t, as measured once the Kendall model was solved without presolve
MEAN_RATIO = {
    "mmkt": Fraction(14105798157078847, 13761036804028800),  # 1.02505
    "min-mmkt": Fraction(1663, 1440),  # 1.15486
    "mmsp": Fraction(2047220249230971829245653, 1937553630106712813395200),  # 1.05660
    "min-mmsp": Fraction(89, 72),  # 1.23611
}


def sweep_instances(n, trials=24, seed=0):
    """Instances sampled as the benchmark sweep samples them, phi1 cycling."""
    phi1 = (0.5, 0.7, 0.9, 1.0)
    return [sample_instance(TwoLevelConfig.create(n, 3, 10, phi1[t % 4], 0.7), (seed, t))
            for t in range(trials)]


def test_rounding_quality_holds_against_the_optimum():
    # the relaxation's optimal vertex decides what pivot rounding returns;
    # it may move with the formulation, but the mean ratio to the optimum
    # must not grow by more than 0.5%
    ratios = {"mmkt": [], "min-mmkt": []}
    for inst in sweep_instances(8):
        ratios["mmkt"].append(mmkt_conv(inst).objective / brute_force(inst, KT, MED).value)
        ratios["min-mmkt"].append(
            min_mmkt_conv(inst).objective / brute_force(inst, KT, MIN).value)
    for name, values in ratios.items():
        assert sum(values) / len(values) <= MEAN_RATIO[name] * Fraction(1005, 1000)


def test_footrule_rounding_quality_holds_against_the_optimum():
    # the footrule program's optimal vertex and the seeded tie-breaks decide
    # what sort rounding returns; the mean ratio must not grow by more than 0.5%
    ratios = {"mmsp": [], "min-mmsp": []}
    for t, inst in enumerate(sweep_instances(8)):
        ratios["mmsp"].append(
            mmsp_conv(inst, rng_seed=(0, t)).objective / brute_force(inst, SF, MED).value)
        ratios["min-mmsp"].append(
            min_mmsp_conv(inst, rng_seed=(0, t)).objective / brute_force(inst, SF, MIN).value)
    for name, values in ratios.items():
        assert sum(values) / len(values) <= MEAN_RATIO[name] * Fraction(1005, 1000)
