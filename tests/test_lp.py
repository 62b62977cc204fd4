import time
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, vstack

from minmaxrank import (
    DistanceKind,
    Instance,
    PartialRanking,
    Permutation,
    RankingClass,
    SetDistanceKind,
    SolverError,
    as_partial,
    brute_force,
    build_footrule_program,
    build_kendall_lp,
    minmax_objective,
    mmkt_conv,
    restrict_to_min_witnesses,
    solve,
    tie_mass,
)
from minmaxrank.cli import parse_gene_order_file
from minmaxrank.lp import LinearProgram
from minmaxrank.rankings import twice_positions
from minmaxrank.mallows import TwoLevelConfig, sample_instance
from minmaxrank._rng import generator

from conftest import (
    random_instance,
    random_partial_ranking,
    random_permutation,
    tied_instance,
)

TOL = 1e-6
GENE_SAMPLE = Path(__file__).parents[1] / "data" / "sample_gene_orders.tsv"


def gap_instance():
    return Instance(
        4,
        (
            RankingClass((Permutation.identity(4),), Fraction(1)),
            RankingClass((Permutation((2, 1, 3, 4)),), Fraction(1)),
        ),
    )


def class_weights(inst: Instance) -> list:
    """Exact w[k][x][y] = count * weight / m from ``Instance.above_counts``.

    count is the number of class k's members ranking x+1 strictly above
    y+1.  It also checks that the Kendall program's float class weights
    ``wf`` are these values as floats.
    """
    w = [[[c * cls.weight / cls.m for c in row] for row in counts]
         for cls, counts in zip(inst.classes, inst.above_counts.tolist())]
    assert build_kendall_lp(inst).wf.tolist() == [
        [[float(v) for v in row] for row in wk] for wk in w]
    return w


class TestPairwiseWeights:
    def test_single_identity_class(self):
        inst = Instance(3, (RankingClass((Permutation.identity(3),), 1),))
        w = class_weights(inst)
        for x in range(3):
            for y in range(3):
                expect = 1 if x < y else 0
                assert w[0][x][y] == expect

    def test_identity_and_reversal(self):
        cls = RankingClass(
            (Permutation.identity(3), Permutation((3, 2, 1))), Fraction(1)
        )
        w = class_weights(Instance(3, (cls,)))
        for x in range(3):
            for y in range(3):
                assert w[0][x][y] == (Fraction(1, 2) if x != y else 0)

    def test_tied_pair_contributes_nothing(self):
        inst = Instance(
            3, (RankingClass((PartialRanking.from_buckets([{1, 2}, {3}]),), 1),)
        )
        w = class_weights(inst)
        assert w[0][0][1] == 0 and w[0][1][0] == 0
        assert w[0][0][2] == 1 and w[0][1][2] == 1
        assert w[0][2][0] == 0 and w[0][2][1] == 0

    def test_permutation_class_pair_sums(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            w = class_weights(inst)
            for k, cls in enumerate(inst.classes):
                total = Fraction(0)
                for x in range(inst.n):
                    for y in range(inst.n):
                        if x != y:
                            total += w[k][x][y]
                        if x < y:
                            assert w[k][x][y] + w[k][y][x] == cls.weight
                        assert 0 <= w[k][x][y] <= cls.weight
                assert total == cls.weight * inst.n * (inst.n - 1) / 2

    def test_above_counts_match_member_loop(self, rng):
        for _ in range(20):
            inst = random_instance(rng, allow_ties=True)
            counts = inst.above_counts
            for k, cls in enumerate(inst.classes):
                for x, y in permutations(range(1, inst.n + 1), 2):
                    expect = sum(
                        as_partial(m).position(x) < as_partial(m).position(y)
                        for m in cls.members
                    )
                    assert counts[k, x - 1, y - 1] == expect

    def test_triangle_property(self, rng):
        for _ in range(20):
            inst = random_instance(rng, allow_ties=True)
            w = class_weights(inst)
            for k in range(inst.num_classes):
                wk = w[k]
                for x, y, z in permutations(range(inst.n), 3):
                    assert wk[x][y] + wk[y][z] >= wk[x][z]


class TestTieMass:
    def test_zero_for_permutations(self, rng):
        inst = random_instance(rng)
        assert all(t == 0 for t in tie_mass(inst))

    def test_partial_average(self):
        cls = RankingClass(
            (
                PartialRanking.from_buckets([{1, 2, 3}]),
                PartialRanking.from_buckets([{1}, {2}, {3}]),
            ),
            1,
        )
        assert tie_mass(Instance(3, (cls,)))[0] == Fraction(3, 2)

    def test_matches_tied_pair_count_with_unequal_class_sizes(self):
        rng = generator(31)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            classes = tuple(
                RankingClass(
                    tuple(random_partial_ranking(rng, n) for _ in range(m)),
                    Fraction(int(rng.integers(1, 5)), 3),
                )
                for m in (1, 2, 5)
            )
            inst = Instance(n, classes)
            for k, cls in enumerate(inst.classes):
                tied = sum(as_partial(m).tied_pair_count() for m in cls.members)
                assert tie_mass(inst)[k] == Fraction(tied, cls.m)


def kendall_class_costs(inst: Instance, perm) -> list[Fraction]:
    """Reference: exact per-class cost of the Kendall program at an integral point.

    For a permutation pi this equals weight * median Kemeny distance to the
    class (weight * median Kendall tau when the class has no ties).
    """
    ties = tie_mass(inst)
    tw = twice_positions([perm])[0]
    # below[x][y]: pi ranks y + 1 above x + 1, i.e. u[y][x] = 1
    below = tw[None, :] < tw[:, None]
    sums = (inst.above_counts * below).sum(axis=(1, 2)).tolist()
    return [
        cls.weight * ties[k] / 2 + cls.weight * s / cls.m
        for k, (cls, s) in enumerate(zip(inst.classes, sums))
    ]


class TestKendallLP:
    def test_gap_instance_optimum(self):
        sol = solve(build_kendall_lp(gap_instance()))
        assert abs(sol.objective - 0.5) < TOL
        assert abs(sol.u[0, 1] - 0.5) < TOL
        assert abs(sol.u[1, 0] - 0.5) < TOL

    def test_singleton_class_integral_zero(self):
        p = Permutation((2, 3, 1))
        sol = solve(build_kendall_lp(Instance(3, (RankingClass((p,), 1),))))
        assert abs(sol.objective) < TOL
        for x in range(1, 4):
            for y in range(1, 4):
                if x == y:
                    continue
                expect = 1.0 if p.rank_of(x) < p.rank_of(y) else 0.0
                assert abs(sol.u[x - 1, y - 1] - expect) < TOL

    def test_single_partial_class_tie_shift(self):
        inst = Instance(
            3, (RankingClass((PartialRanking.from_buckets([{1, 2}, {3}]),), 1),)
        )
        sol = solve(build_kendall_lp(inst))
        assert abs(sol.objective - 0.5) < TOL

    def test_feasibility_invariants(self, rng):
        for _ in range(10):
            inst = random_instance(rng, allow_ties=True)
            sol = solve(build_kendall_lp(inst))
            u = sol.u
            n = inst.n
            for x, y in combinations(range(n), 2):
                assert abs(u[x, y] + u[y, x] - 1.0) < TOL
            for x, y, z in combinations(range(n), 3):
                assert u[x, y] + u[y, z] + u[z, x] >= 1.0 - TOL
                assert u[y, x] + u[z, y] + u[x, z] >= 1.0 - TOL
            assert (u >= -TOL).all() and (u <= 1.0 + TOL).all()

    def test_objective_at_integral_point_matches_exact_cost(self, rng):
        for _ in range(15):
            inst = random_instance(rng, allow_ties=True)
            perm = random_permutation(rng, inst.n)
            costs = kendall_class_costs(inst, perm)
            assert max(costs) == minmax_objective(
                perm, inst, DistanceKind.KEMENY, SetDistanceKind.MEDIAN
            )

    def test_gene_sample_size(self):
        prog = build_kendall_lp(parse_gene_order_file(GENE_SAMPLE.read_text()).instance)
        assert len(prog.c) == 1 + 36 * 35
        assert prog.A_ub.shape == (11, 1_261)
        assert prog.A_eq.shape == (630, 1_261)
        # a one-genome class costs one entry per unordered pair, plus q;
        # pairing rows hold 2 entries
        assert prog.A_ub.nnz + prog.A_eq.nnz == 11 * (1 + 630) + 2 * 630
        # with all 14,280 triangles the program would have 14,921 rows
        assert solve(prog).rows <= 2_500

    def test_large_integer_weights(self, rng):
        # 0.1 is 3602879701896397 / 2**55, so weight denominator times m
        # passes int64 at m = 512, and count times numerator passes 2**53
        weight, m = Fraction(0.1), 512
        members = tuple(random_permutation(rng, 4) for _ in range(m))
        inst = Instance(4, (RankingClass(members, weight),))
        prog = build_kendall_lp(inst)
        want = [
            [float(Fraction(c * weight, m)) for c in row]
            for row in inst.above_counts[0].tolist()
        ]
        assert prog.wf[0].tolist() == want
        res = mmkt_conv(inst)
        assert float(res.objective) <= 2 * res.certificate + TOL

    def test_relaxation_lower_bounds_optimum(self, rng):
        for _ in range(15):
            inst = random_instance(rng)
            sol = solve(build_kendall_lp(inst))
            w = brute_force(inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN)
            assert sol.objective <= float(w.value) + TOL


def full_triangle_optimum(prog):
    """HiGHS's optimum of a pairwise program's class rows with every triangle.

    Written out triple by triple, independently of the program's own
    triangle rows.
    """
    n, num_classes = prog.n, prog.A_ub.shape[0]

    def col(x, y):
        return 1 + x * (n - 1) + y - (y > x)

    tri_cols = []
    for x, y, z in combinations(range(n), 3):
        tri_cols.append([col(x, y), col(y, z), col(z, x)])
        tri_cols.append([col(y, x), col(z, y), col(x, z)])
    tri_cols = np.array(tri_cols, dtype=np.intp).reshape(-1, 3)
    triangles = csr_matrix(
        (np.full(tri_cols.size, -1.0),
         (np.repeat(np.arange(len(tri_cols)), 3), tri_cols.ravel())),
        shape=(len(tri_cols), len(prog.c)),
    )
    res = linprog(
        prog.c,
        A_ub=vstack([prog.A_ub[:num_classes], triangles]),
        b_ub=np.concatenate([prog.b_ub[:num_classes], np.full(len(tri_cols), -1.0)]),
        A_eq=prog.A_eq,
        b_eq=prog.b_eq,
        bounds=prog.bounds,
        method="highs",
    )
    assert res.status == 0
    return res.fun


def assert_separation_exact(inst):
    prog = build_kendall_lp(inst)
    sol = solve(prog)
    full = full_triangle_optimum(prog)
    assert abs(sol.objective - full) <= 1e-7 * max(1.0, abs(full))
    # every triangle, both orientations: u[x][y] + u[y][z] + u[z][x] >= 1
    u = sol.u
    sums = u[:, :, None] + u[None, :, :] + u.T[:, None, :]
    n = inst.n
    idx = np.arange(n)
    distinct = (
        (idx[:, None, None] != idx[None, :, None])
        & (idx[None, :, None] != idx[None, None, :])
        & (idx[:, None, None] != idx[None, None, :])
    )
    assert (sums[distinct] >= 1.0 - TOL).all()


class TestTriangleSeparation:
    @pytest.mark.parametrize("n,trials", [(10, 6), (20, 2), (40, 1)])
    def test_mallows_matches_full_program(self, n, trials):
        for trial in range(trials):
            inst = sample_instance(TwoLevelConfig.create(n, 3, 10, 0.7, 0.7), (12, trial))
            assert_separation_exact(inst)
            assert_separation_exact(restrict_to_min_witnesses(inst, DistanceKind.KENDALL_TAU))

    def test_tied_unequal_weights_match_full_program(self, rng):
        weights = (Fraction(3, 2), Fraction(2, 7), Fraction(5, 2))
        for _ in range(20):
            inst = random_instance(
                rng, n_choices=(7,), m_choices=(2, 3, 4),
                weight_choices=weights, allow_ties=True,
            )
            assert_separation_exact(inst)

    def test_gene_sample_matches_full_program(self):
        assert_separation_exact(parse_gene_order_file(GENE_SAMPLE.read_text()).instance)

    def test_condorcet_cycle_adds_rows(self):
        # the model starts from the class row alone; the majority order
        # without triangles is the cycle 1 > 2 > 3 > 1
        members = tuple(Permutation(tuple(p)) for p in ([1, 2, 3], [2, 3, 1], [3, 1, 2]))
        inst = Instance(3, (RankingClass(members, 1),))
        prog = build_kendall_lp(inst)
        assert prog.A_ub.shape[0] == 1
        sol = solve(prog)
        assert sol.runs > 1
        assert abs(sol.objective - full_triangle_optimum(prog)) < 1e-9
        assert abs(sol.objective - 4 / 3) < TOL

    def test_n_100_stays_far_below_full_program(self):
        cfg = TwoLevelConfig.create(100, 3, 10, 0.7, 0.7)
        inst = sample_instance(cfg, 5)
        start = time.perf_counter()
        res = mmkt_conv(inst)
        elapsed = time.perf_counter() - start
        assert float(res.objective) <= 2 * res.certificate + TOL
        # the full program has 2 * C(100, 3) = 323,400 triangle rows; the
        # model's other rows are 3 class rows and C(100, 2) pairing rows
        sol = solve(build_kendall_lp(inst))
        assert sol.rows - 3 - 4_950 < 323_400 // 10
        assert elapsed < 120


class TestHighsBinding:
    def test_rows_added_to_a_solved_model_are_solved_warm(self):
        # lp.solve loads both programs into one model through scipy's
        # private HiGHS binding; a scipy release that moves or changes the
        # calls it makes fails here by name
        from scipy.optimize._highspy._core import (
            HighsModelStatus,
            HighsStatus,
            _Highs,
            kHighsInf,
        )

        # min x + y with -x - 2y <= -1 and x, y in [0, 1]: x = 0, y = 1/2
        highs = _Highs()
        highs.setOptionValue("output_flag", False)
        ok = HighsStatus.kOk
        assert highs.addCols(2, np.ones(2), np.zeros(2), np.ones(2), 0, [], [], []) == ok
        row = csr_matrix([[-1.0, -2.0]])
        assert highs.addRows(1, np.array([-kHighsInf]), np.array([-1.0]), row.nnz,
                             row.indptr, row.indices, row.data) == ok
        highs.run()
        assert highs.getModelStatus() == HighsModelStatus.kOptimal
        assert np.allclose(highs.getSolution().col_value, [0.0, 0.5], atol=1e-9)

        # add -x <= -4/5 and solve again from that basis: x = 4/5, y = 1/10
        row = csr_matrix([[-1.0, 0.0]])
        assert highs.addRows(1, np.array([-kHighsInf]), np.array([-0.8]), row.nnz,
                             row.indptr, row.indices, row.data) == ok
        highs.run()
        assert highs.getModelStatus() == HighsModelStatus.kOptimal
        assert highs.modelStatusToString(highs.getModelStatus()) == "Optimal"
        assert highs.getNumRow() == 2
        assert np.allclose(highs.getSolution().col_value, [0.8, 0.1], atol=1e-9)
        info = highs.getInfo()
        assert abs(info.objective_function_value - 0.9) < 1e-9
        assert info.simplex_iteration_count >= 1


def slack_footrule_program(inst: Instance) -> LinearProgram:
    """Reference footrule LP: one slack e_gh >= |u(h) - p_gh| per member and element."""
    n = inst.n
    rows, cols, data, b_ub = [], [], [], []
    class_pos, lam_over_m = [], []
    row0, col0 = 0, 1 + n
    for cls in inst.classes:
        lam = float(cls.weight) / cls.m
        pos = twice_positions(cls.members) / 2
        lam_over_m.append(lam)
        class_pos.append(pos)
        size = pos.size
        # slack e_{g,h} per member g and element h, in (g, h) order:
        # e >= u(h) - target and e >= target - u(h)
        u_cols = 1 + np.tile(np.arange(n), cls.m)
        e_cols = col0 + np.arange(size)
        rows.append(row0 + np.repeat(np.arange(2 * size), 2))
        cols.append(np.tile(np.stack([u_cols, e_cols], axis=1), 2).ravel())
        data.append(np.tile([1.0, -1.0, -1.0, -1.0], size))
        target = pos.ravel()
        b_ub.append(np.stack([target, -target], axis=1).ravel())
        # class cost: lambda/m * sum e - q <= 0
        rows.append(np.full(size + 1, row0 + 2 * size))
        cols.append(np.concatenate([[0], e_cols]))
        data.append(np.concatenate([[-1.0], np.full(size, lam)]))
        b_ub.append([0.0])
        row0 += 2 * size + 1
        col0 += size
    c_vec = np.zeros(col0)
    c_vec[0] = 1.0
    bounds = np.zeros((col0, 2))
    bounds[:, 1] = np.inf
    bounds[1:1 + n, 0] = -np.inf
    A_ub = csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row0, col0),
    )
    return LinearProgram(c_vec, A_ub, np.concatenate(b_ub), None, None, bounds,
                         "positional", n, class_pos=tuple(class_pos),
                         lam_over_m=tuple(lam_over_m))


def program_bytes(prog: LinearProgram) -> list[bytes]:
    a = prog.A_ub
    return [x.tobytes() for x in (prog.c, a.indptr, a.indices, a.data, prog.b_ub,
                                  prog.bounds)]


REFERENCE_WEIGHTS = (Fraction(1, 3), Fraction(7, 5), Fraction(0.1))


def reference_instance(seed: int) -> Instance:
    return tied_instance(generator(seed), n_choices=(3, 5, 7), m_choices=(1, 2, 5),
                         weight_choices=REFERENCE_WEIGHTS)


class TestFootruleProgram:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_slack_reference(self, seed):
        inst = reference_instance(seed)
        ours = solve(build_footrule_program(inst)).objective
        ref = solve(slack_footrule_program(inst)).objective
        assert abs(ours - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_reference_sweep_covers_ties_sizes_and_weights(self):
        sizes, weights, tied = set(), set(), 0
        for seed in range(40):
            inst = reference_instance(seed)
            sizes |= {cls.m for cls in inst.classes}
            weights |= {cls.weight for cls in inst.classes}
            tied += inst.has_ties
        assert sizes == {1, 2, 5}
        assert weights == set(REFERENCE_WEIGHTS)
        assert tied >= 10

    @pytest.mark.parametrize("seed", [*range(40), "gene"])
    def test_solve_matches_linprog(self, seed):
        # linprog loads and solves the same arrays apart from lp.solve
        inst = (parse_gene_order_file(GENE_SAMPLE.read_text()).instance
                if seed == "gene" else reference_instance(seed))
        prog = build_footrule_program(inst)
        sol = solve(prog)
        res = linprog(prog.c, A_ub=prog.A_ub, b_ub=prog.b_ub, bounds=prog.bounds,
                      method="highs")
        assert res.status == 0
        assert np.allclose(sol.u, res.x[1:1 + inst.n], rtol=0, atol=1e-9)
        assert (sol.iterations, sol.rows) == (res.nit, prog.A_ub.shape[0])

    @pytest.mark.parametrize("name", ["gene", "gap"])
    def test_one_member_classes_keep_the_slack_arrays(self, name):
        # each element of a one-member class has one piece per slack row
        inst = (parse_gene_order_file(GENE_SAMPLE.read_text()).instance
                if name == "gene" else gap_instance())
        assert all(cls.m == 1 for cls in inst.classes)
        assert program_bytes(build_footrule_program(inst)) == program_bytes(
            slack_footrule_program(inst))

    def test_size_counts_distinct_member_positions(self, rng):
        for _ in range(10):
            inst = tied_instance(rng, m_choices=(1, 2, 5))
            prog = build_footrule_program(inst)
            n, num_classes = inst.n, inst.num_classes
            distinct = sum(len(set(col)) for cls in inst.classes
                           for col in twice_positions(cls.members).T.tolist())
            assert prog.A_ub.shape == (distinct + n * num_classes + num_classes,
                                       1 + n + num_classes * n)

    def test_agreeing_members_cost_two_rows_per_element(self):
        identity = Permutation.identity(4)
        inst = Instance(4, (
            RankingClass((identity,) * 3, Fraction(1)),
            RankingClass((identity, Permutation((4, 3, 2, 1))), Fraction(1)),
        ))
        # 2 pieces per element and a cost row, then 3 per element and a cost row
        assert build_footrule_program(inst).A_ub.shape[0] == (2 * 4 + 1) + (3 * 4 + 1)

    def test_gap_instance_size(self):
        inst = gap_instance()
        prog = build_footrule_program(inst)
        n = inst.n
        assert len(prog.c) == 1 + n + sum(cls.m * n for cls in inst.classes)
        # two pieces per element of a one-member class plus one cost row per class
        assert prog.A_ub.shape[0] == 2 * 2 * n + 2
        assert prog.A_eq is None
        sol = solve(prog)
        assert (sol.runs, sol.rows) == (1, 2 * 2 * n + 2)

    def test_singleton_zero_at_own_ranks(self):
        p = Permutation((2, 3, 1))
        sol = solve(build_footrule_program(Instance(3, (RankingClass((p,), 1),))))
        assert abs(sol.objective) < TOL
        assert np.allclose(sol.u, [2.0, 3.0, 1.0], atol=1e-6)

    def test_two_class_example(self):
        inst = Instance(
            3,
            (
                RankingClass((Permutation.identity(3),), 1),
                RankingClass((Permutation((2, 1, 3)),), 1),
            ),
        )
        sol = solve(build_footrule_program(inst))
        assert abs(sol.objective - 1.0) < TOL

    def test_weight_homogeneity(self, rng):
        inst = random_instance(rng)
        doubled = Instance(
            inst.n,
            tuple(RankingClass(c.members, 2 * c.weight) for c in inst.classes),
        )
        a = solve(build_footrule_program(inst)).objective
        b = solve(build_footrule_program(doubled)).objective
        assert abs(b - 2 * a) < TOL

    def test_relaxation_lower_bounds_optimum(self, rng):
        for _ in range(15):
            inst = random_instance(rng)
            sol = solve(build_footrule_program(inst))
            w = brute_force(inst, DistanceKind.SPEARMAN_FOOTRULE, SetDistanceKind.MEDIAN)
            assert sol.objective <= float(w.value) + TOL


class TestSolveErrors:
    def test_infeasible(self):
        # x in [0, 1] with x >= 2, written as -x <= -2
        prog = LinearProgram(
            c=np.array([1.0]),
            A_ub=csr_matrix([[-1.0]]),
            b_ub=np.array([-2.0]),
            A_eq=None,
            b_eq=None,
            bounds=np.array([[0.0, 1.0]]),
            kind="positional",
            n=1,
        )
        with pytest.raises(SolverError, match="^Infeasible$"):
            solve(prog)

    def test_unbounded(self):
        prog = LinearProgram(
            c=np.array([1.0]),
            A_ub=None,
            b_ub=None,
            A_eq=None,
            b_eq=None,
            bounds=np.array([[-np.inf, np.inf]]),
            kind="positional",
            n=1,
        )
        with pytest.raises(SolverError, match="^Unbounded$"):
            solve(prog)

    def test_pairwise_model_statuses_raise_the_same_errors(self):
        # pairwise programs share the one status mapping with positional ones
        def pairwise(A_ub, b_ub, bounds):
            return LinearProgram(
                c=np.array([1.0]), A_ub=csr_matrix(A_ub), b_ub=np.array(b_ub),
                A_eq=csr_matrix((0, 1)), b_eq=np.empty(0),
                bounds=np.array([bounds]), kind="pairwise", n=1,
            )

        with pytest.raises(SolverError, match="^Infeasible$"):
            solve(pairwise([[-1.0]], [-2.0], [0.0, 1.0]))
        with pytest.raises(SolverError, match="^Unbounded$"):
            solve(pairwise([[0.0]], [0.0], [-np.inf, np.inf]))

    def test_model_error_is_not_infeasible(self):
        # HiGHS rejects a program with coefficients as large as 1e20; both
        # programs reach it through the same loader and status mapping
        inst = Instance(
            3,
            (
                RankingClass((Permutation.identity(3),), Fraction(10**20)),
                RankingClass((Permutation((3, 2, 1)),), Fraction(1)),
            ),
        )
        for build in (build_kendall_lp, build_footrule_program):
            with pytest.raises(SolverError, match="^Model error$"):
                solve(build(inst))
