import ast
import dataclasses
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    brute_force,
    build_footrule_program,
    build_kendall_lp,
    minmax_objective,
    mmkt_conv,
    mmsp_conv,
    restrict_to_min_witnesses,
    solve,
    tie_mass,
)
from minmaxrank import lp
from minmaxrank.aggregators import _kendall_order
from minmaxrank.cli import parse_gene_order_file
from minmaxrank.lp import LinearProgram
from minmaxrank.distances import BLOCK_ELEMENTS
from minmaxrank.rankings import twice_positions
from minmaxrank.mallows import TwoLevelConfig, sample_instance
from minmaxrank._rng import generator

from conftest import (
    float_weights,
    gap_instance,
    has_ties,
    positions,
    random_instance,
    random_partial_ranking,
    random_permutation,
    tied_instance,
)

TOL = 1e-6
GENE_SAMPLE = Path(__file__).parents[1] / "data" / "sample_gene_orders.tsv"


def class_weights(inst: Instance) -> list:
    """Exact w[k][x][y] = count * weight / m from ``Instance.above_counts``.

    count is the number of class k's members ranking x+1 strictly above
    y+1.  It also checks that ``lp.pairwise_weights`` gives these values as
    floats at every cell.
    """
    w = [[[c * cls.weight / cls.m for c in row] for row in counts]
         for cls, counts in zip(inst.classes, inst.above_counts.tolist())]
    cells = np.arange(inst.n ** 2).reshape(inst.n, inst.n)
    assert lp.pairwise_weights(inst, cells).tolist() == [
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

    def test_quotient_table_is_built_once_per_class_kind(self):
        # two classes of equal m and weight share one read-only table, and
        # later calls (the build, tie_mass, pivot rounding) rebuild none
        members = (Permutation.identity(3), Permutation((3, 2, 1)), Permutation((2, 1, 3)))
        inst = Instance(3, (RankingClass(members, Fraction(2, 7)),) * 2)
        lp._quotients.cache_clear()
        first = class_weights(inst)
        assert class_weights(inst) == first
        assert lp._quotients.cache_info().misses == 1
        table = lp._quotients(3, 2, 7)
        assert not table.flags.writeable
        assert table.tolist() == [float(Fraction(2 * c, 21)) for c in range(4)]

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
                member_positions = [positions(m) for m in cls.members]
                for x, y in permutations(range(inst.n), 2):
                    expect = sum(pos[x] < pos[y] for pos in member_positions)
                    assert counts[k, x, y] == expect

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
                tied = sum(len(b) * (len(b) - 1) // 2 for m in cls.members for b in m.buckets)
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
                expect = 1.0 if p.ranks[x - 1] < p.ranks[y - 1] else 0.0
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
        # of the 630 pairs, one is strictly unanimous and has no column
        prog = build_kendall_lp(parse_gene_order_file(GENE_SAMPLE.read_text()).instance)
        assert len(prog.bounds) == 1 + 629
        assert prog.A_ub.shape == (11, 1 + 629)
        # a one-genome class costs one entry per pair with a column, plus q;
        # the pairs need no pairing rows
        assert np.count_nonzero(prog.A_ub) == 11 * (1 + 629)
        assert (prog.pair_col == 0).sum() == 36 + 2  # the diagonal, and that pair both ways
        # with all 7,140 triangle rows the program would have 7,151 rows
        assert solve(prog).rows <= 1_600

    @pytest.mark.parametrize("orders, rank, row", [
        # 1 and 3 tie on wins (2 each) ahead of 2 (-4), so the smaller id goes
        # first: sigma is 1, 3, 2.  {1, 2} and {2, 3} are unanimous and have
        # no column; {1, 3} has column 1, u[3][1], whose entry is 0
        (([3, 1, 2], [1, 3, 2]), [0, 2, 1], [-1.0, 0.0]),
        # the same with 1 and 2 swapped: sigma is 2, 3, 1, and column 1 is
        # u[3][2]
        (([3, 2, 1], [2, 3, 1]), [2, 0, 1], [-1.0, 0.0]),
    ])
    def test_pair_columns_are_oriented_by_wins(self, orders, rank, row):
        members = tuple(Permutation.from_order(order) for order in orders)
        inst = Instance(3, (RankingClass(members, 1),))
        prog = build_kendall_lp(inst)
        assert prog.rank.tolist() == rank
        first, second, last = np.argsort(rank)
        assert prog.pair_col[first, second] == prog.pair_col[second, first] == 1
        assert (prog.pair_col[last] == 0).all() and (prog.pair_col[:, last] == 0).all()
        # each class entry is w[a][b] - w[b][a] with a first in sigma, and
        # b_ub is minus the class cost at sigma
        assert prog.A_ub.tolist() == [row]
        assert prog.b_ub.tolist() == [-0.5]
        sol = solve(prog)
        assert abs(sol.objective - 0.5) < TOL
        # both fixed pairs put sigma's last element last, exactly
        assert sol.u[last].tolist() == [0.0, 0.0, 0.0]
        assert sorted(sol.u[:, last].tolist()) == [0.0, 1.0, 1.0]

    def test_class_rows_read_each_column_as_u_of_the_later_element(self, rng):
        # dyadic weights and class sizes keep the float wins exact, so they
        # tie exactly where the Fraction wins do
        ties = fixed = 0
        for _ in range(20):
            inst = random_instance(rng, m_choices=(1, 2, 4), allow_ties=True)
            n, w = inst.n, class_weights(inst)
            wins = [sum(wk[x][y] - wk[y][x] for wk in w for y in range(n)) for x in range(n)]
            sigma = sorted(range(n), key=lambda x: (-wins[x], x))
            ties += len(set(wins)) < n
            prog = build_kendall_lp(inst)
            assert [sigma.index(x) for x in range(n)] == prog.rank.tolist()
            u = solve(prog).u
            later = [(a, b) if sigma.index(a) > sigma.index(b) else (b, a)
                     for a, b in combinations(range(n), 2)]
            # a pair has no column exactly when every member ranks its
            # earlier element strictly above its later one, and u reads it on
            # sigma's side; the other pairs keep combinations order
            unanimous = [all(inst.above_counts[k, t, s] == cls.m
                             for k, cls in enumerate(inst.classes)) for s, t in later]
            cols = [prog.pair_col[s, t] for s, t in later]
            assert [c == 0 for c in cols] == unanimous
            assert [c for c in cols if c] == list(range(1, len(prog.bounds)))
            assert all(u[s, t] == 0.0 and u[t, s] == 1.0
                       for (s, t), f in zip(later, unanimous) if f)
            fixed += sum(unanimous)
            v = np.array([u[s, t] for (s, t), f in zip(later, unanimous) if not f])
            costs = prog.A_ub[:, 1:] @ v - prog.b_ub
            shifts = [float(cls.weight * t / 2) for t, cls in zip(tie_mass(inst), inst.classes)]
            want = [shift + sum(float(wk[x][y]) * u[y, x] for x, y in permutations(range(n), 2))
                    for shift, wk in zip(shifts, w)]
            assert np.allclose(costs, want, rtol=0, atol=1e-9)
        assert ties > 0 and fixed > 0

    @pytest.mark.parametrize("i", range(3))
    def test_gene_relabellings_keep_certificate_and_ranking(self, i):
        # relabelled as the lp-gene benchmark relabels the sample: a seeded
        # bijection of the block ids and random signs per genome
        rows = [line.split("\t") for line in GENE_SAMPLE.read_text().splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
        rng = np.random.default_rng([0, i])
        n = len(rows[0][1].split())
        relabel = rng.permutation(n) + 1
        lines = []
        for name, rest in rows:
            order = [int(relabel[abs(int(v)) - 1]) for v in rest.split()]
            signs = rng.choice((-1, 1), size=n)
            lines.append(name + "\t" + " ".join(str(int(s) * x) for s, x in zip(signs, order)))
        res = mmkt_conv(parse_gene_order_file("\n".join(lines) + "\n").instance)
        assert abs(res.certificate - 253.867533284846) <= 1e-9 * 253.867533284846
        assert res.objective == 274

    def test_large_integer_weights(self, rng):
        # 0.1 is 3602879701896397 / 2**55, so weight denominator times m
        # passes int64 at m = 512, and count times numerator passes 2**53
        weight, m = Fraction(0.1), 512
        members = tuple(random_permutation(rng, 4) for _ in range(m))
        inst = Instance(4, (RankingClass(members, weight),))
        want = [
            [float(Fraction(c * weight, m)) for c in row]
            for row in inst.above_counts[0].tolist()
        ]
        assert lp.pairwise_weights(inst, np.arange(16).reshape(4, 4))[0].tolist() == want
        res = mmkt_conv(inst)
        assert float(res.objective) <= 2 * res.certificate + TOL

    def test_relaxation_lower_bounds_optimum(self, rng):
        for _ in range(15):
            inst = random_instance(rng)
            sol = solve(build_kendall_lp(inst))
            w = brute_force(inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN)
            assert sol.objective <= float(w.value) + TOL


def two_column_kendall_lp(inst: Instance, fix_unanimous: bool = False) -> dict:
    """Reference Kendall program: a column per ordered pair and pairing rows.

    u[x][y] sits at column 1 + x(n - 1) + y - [y > x].  Class k's row is
    sum_{x != y} w[x][y] u[y][x] - q <= -weight * T_k / 2, each pair has
    u[x][y] + u[y][x] = 1, and each triple x < y < z has both of its cycles
    u[x][y] + u[y][z] + u[z][x] >= 1 and u[y][x] + u[z][y] + u[x][z] >= 1.
    The weights are exact Fractions rounded once.  With ``fix_unanimous``,
    u[x][y] is fixed at 1 wherever every member ranks x strictly above y.
    Returns the arguments of scipy's ``linprog``.
    """
    n, num_classes = inst.n, inst.num_classes
    x = np.arange(n)[:, None]
    y = np.arange(n)[None, :]
    col = 1 + x * (n - 1) + y - (y > x)
    ncols = 1 + n * (n - 1)
    wf = float_weights(inst)
    classes = np.zeros((num_classes, ncols))
    classes[:, 0] = -1.0
    off = ~np.eye(n, dtype=bool)
    classes[:, col[off]] = wf.transpose(0, 2, 1)[:, off]  # coefficient of u[a][b] is w[b][a]
    shifts = [float(cls.weight * t / 2) for t, cls in zip(tie_mass(inst), inst.classes)]

    lo, hi = np.triu_indices(n, 1)
    pairing = csr_matrix(
        (np.ones(2 * len(lo)),
         (np.repeat(np.arange(len(lo)), 2), np.stack([col[lo, hi], col[hi, lo]], axis=1).ravel())),
        shape=(len(lo), ncols),
    )
    tri_cols = []
    for a, b, c in combinations(range(n), 3):
        tri_cols.append([col[a, b], col[b, c], col[c, a]])
        tri_cols.append([col[b, a], col[c, b], col[a, c]])
    tri_cols = np.array(tri_cols, dtype=np.intp).reshape(-1, 3)
    triangles = csr_matrix(
        (np.full(tri_cols.size, -1.0),
         (np.repeat(np.arange(len(tri_cols)), 3), tri_cols.ravel())),
        shape=(len(tri_cols), ncols),
    )
    c_vec = np.zeros(ncols)
    c_vec[0] = 1.0
    bounds = np.zeros((ncols, 2))
    bounds[0, 1] = np.inf
    bounds[1:, 1] = 1.0
    if fix_unanimous:
        m = np.array([cls.m for cls in inst.classes])[:, None, None]
        bounds[col[(inst.above_counts == m).all(axis=0)], 0] = 1.0
    return dict(
        c=c_vec,
        A_ub=vstack([csr_matrix(classes), triangles]),
        b_ub=np.concatenate([-np.array(shifts), np.full(len(tri_cols), -1.0)]),
        A_eq=pairing,
        b_eq=np.ones(len(lo)),
        bounds=bounds,
    )


def full_triangle_optimum(inst: Instance, fix_unanimous: bool = False) -> float:
    """HiGHS's optimum of the two-column reference program with every triangle."""
    res = linprog(**two_column_kendall_lp(inst, fix_unanimous), method="highs")
    assert res.status == 0
    return res.fun


def pair_columns(n: int) -> np.ndarray:
    """(n, n) array: the column of pair {x, y}, in ``combinations`` order."""
    col = np.zeros((n, n), dtype=np.intp)
    lo, hi = np.triu_indices(n, 1)
    col[lo, hi] = col[hi, lo] = np.arange(1, len(lo) + 1)
    return col


def full_kendall_lp(inst: Instance) -> LinearProgram:
    """Reference: ``build_kendall_lp``'s program with a column for every pair.

    Strictly unanimous pairs keep their columns too, in ``combinations``
    order and oriented by the same sigma, so that ``solve`` runs the same
    cut loop on the program without the reduction.
    """
    prog = build_kendall_lp(inst)
    A_ub, b_ub = coo_kendall_rows(inst, prog, reduced=False)
    bounds = np.zeros((A_ub.shape[1], 2))
    bounds[0, 1] = np.inf
    bounds[1:, 1] = 1.0
    return dataclasses.replace(prog, A_ub=A_ub.toarray(), b_ub=b_ub, bounds=bounds,
                               pair_col=pair_columns(inst.n))


def assert_separation_exact(inst):
    # the cut loop ends at the optimum of the same program with every
    # triangle, strictly unanimous pairs fixed in both, and that is no lower
    # than the optimum of the program with every pair's column
    sol = solve(build_kendall_lp(inst))
    full = full_triangle_optimum(inst, fix_unanimous=True)
    assert abs(sol.objective - full) <= 1e-7 * max(1.0, abs(full))
    unfixed = solve(full_kendall_lp(inst)).objective
    assert sol.objective >= unfixed - 1e-9 * max(1.0, abs(unfixed))
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


def blocked_violated_triangles(u: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Reference separation: every triangle checked, triples x in blocks.

    Orientation o of triple x < y < z has id 2 * ((x * n + y) * n + z) + o,
    the flat index of (x - x0, y, z, o) in the mask of a block starting at
    x0, plus 2 n^2 x0.  The ids come out ascending.
    """
    n = len(u)
    ut = u.T
    below = 1.0 - lp._VIOLATION
    idx = np.arange(n)
    upper = idx[:, None] < idx  # y < z
    step = max(1, BLOCK_ELEMENTS // max(1, n * n))
    ids = [np.empty(0, dtype=np.int64)]
    for x0 in range(0, n - 2, step):
        xs = slice(x0, min(x0 + step, n - 2))
        triples = upper & (idx[xs, None, None] < idx[:, None])
        fwd = u[xs][:, :, None] + u + ut[xs][:, None, :]  # u[x][y] + u[y][z] + u[z][x]
        rev = ut[xs][:, :, None] + ut + u[xs][:, None, :]  # u[y][x] + u[z][y] + u[x][z]
        low = np.stack([triples & (fwd < below), triples & (rev < below)], axis=-1)
        ids.append(np.flatnonzero(low) + 2 * n * n * x0)
    return np.setdiff1d(np.concatenate(ids), present, assume_unique=True)


def assert_same_separation(u, present=np.empty(0, dtype=np.int64), separate=None):
    """Separate with triple ids ``present`` and compare with the oriented reference."""
    got = (separate or lp._violated_triangles)(u, present)
    oriented = np.sort(np.concatenate([2 * present, 2 * present + 1]))
    want = np.unique(blocked_violated_triangles(u, oriented) // 2)
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()
    return got


@pytest.fixture
def separation_calls(monkeypatch):
    """Check every separation call ``solve`` makes against the blocked reference."""
    calls = []
    separate = lp._violated_triangles

    def checked(u, present):
        calls.append(len(u))
        return assert_same_separation(u, present, separate)

    monkeypatch.setattr(lp, "_violated_triangles", checked)
    yield calls
    assert calls


@pytest.mark.usefixtures("separation_calls")
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
        assert abs(sol.objective - full_triangle_optimum(inst)) < 1e-9
        assert abs(sol.objective - 4 / 3) < TOL

    def test_n_100_stays_far_below_full_program(self):
        cfg = TwoLevelConfig.create(100, 3, 10, 0.7, 0.7)
        inst = sample_instance(cfg, 5)
        start = time.perf_counter()
        res = mmkt_conv(inst)
        elapsed = time.perf_counter() - start
        assert float(res.objective) <= 2 * res.certificate + TOL
        # the full program has a ranged row for each of the C(100, 3) =
        # 161,700 triples; the model's other rows are 3 class rows
        sol = solve(build_kendall_lp(inst))
        assert sol.rows - 3 < 161_700 // 10
        assert elapsed < 120


def near_order_instance(seed: int) -> Instance:
    """A tied instance of 1-3 classes over n <= 7 whose members are one
    random order, each moved by up to two adjacent swaps and cut into
    buckets at random, so that strictly unanimous pairs occur."""
    rng = generator(seed)
    n = int(rng.integers(2, 8))
    base = [int(x) + 1 for x in rng.permutation(n)]
    classes = []
    for _ in range(int(rng.integers(1, 4))):
        members = []
        for _ in range(int(rng.integers(1, 4))):
            order = list(base)
            for i in rng.integers(0, n - 1, size=int(rng.integers(0, 3))):
                order[i], order[i + 1] = order[i + 1], order[i]
            buckets = [[order[0]]]
            for x in order[1:]:
                if rng.random() < 0.3:
                    buckets[-1].append(x)
                else:
                    buckets.append([x])
            members.append(PartialRanking.from_buckets(buckets))
        weight = REFERENCE_WEIGHTS[int(rng.integers(len(REFERENCE_WEIGHTS)))]
        classes.append(RankingClass(tuple(members), weight))
    return Instance(n, tuple(classes))


@pytest.fixture(scope="module")
def mallows1000():
    """The n = 1,000 Mallows instance (C=3, m=10, phi=(0.7, 0.7)), sampled once."""
    return sample_instance(TwoLevelConfig.create(1000, 3, 10, 0.7, 0.7), (0, 0))


class TestUnanimousPairs:
    @pytest.mark.parametrize("classes", [
        # {1, 2} split by the two members; {1, 3} and {2, 3} unanimous
        [(Permutation.identity(3), Permutation((2, 1, 3)))],
        # {2, 3} tied in one class, which keeps its column
        [(Permutation.identity(3),), (PartialRanking.from_buckets([{1}, {2, 3}]),)],
    ], ids=["split", "tied"])
    def test_hand_made_pair_keeps_its_column(self, classes):
        inst = Instance(3, tuple(RankingClass(members, 1) for members in classes))
        prog = build_kendall_lp(inst)
        assert len(prog.bounds) == 1 + 1
        assert (prog.pair_col > 0).sum() == 2  # one pair, both ways
        sol = solve(prog)
        assert abs(sol.objective - 0.5) < 1e-12
        assert abs(sol.objective - solve(full_kendall_lp(inst)).objective) < 1e-12
        assert abs(sol.objective - full_triangle_optimum(inst)) < 1e-9
        # u reads the two fixed pairs exactly as the members order them
        fixed = [(x, y) for x, y in permutations(range(3), 2) if prog.pair_col[x, y] == 0]
        assert len(fixed) == 4
        assert all(sol.u[x, y] == float(x < y) for x, y in fixed)

    def test_every_pair_unanimous_leaves_only_q(self):
        # one permutation member: every pair is fixed, and the model is q
        # and the class row, solved once at cost 0
        p = Permutation((3, 1, 4, 2))
        prog = build_kendall_lp(Instance(4, (RankingClass((p,), Fraction(2, 3)),)))
        assert len(prog.bounds) == 1 and prog.A_ub.shape == (1, 1)
        assert (prog.pair_col == 0).all()
        sol = solve(prog)
        assert (sol.runs, sol.rows, sol.objective) == (1, 1, 0.0)
        want = [[float(p.ranks[x] < p.ranks[y]) if x != y else 0.0
                 for y in range(4)] for x in range(4)]
        assert sol.u.tolist() == want

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_certificate_lies_between_the_full_program_and_the_optimum(self, seed):
        # tied instances near a common order, where unanimous pairs occur
        inst = near_order_instance(seed)
        sol = solve(build_kendall_lp(inst))
        full = solve(full_kendall_lp(inst)).objective
        assert sol.objective >= full - 1e-9 * max(1.0, abs(full))
        opt = brute_force(inst, DistanceKind.KENDALL_TAU, SetDistanceKind.MEDIAN).value
        assert sol.objective <= float(opt) * (1 + 1e-9) + 1e-12

    def test_mmkt_at_n1000(self, mallows1000):
        # 96.6% of the 499,500 pairs are strictly unanimous; one mmkt_conv
        # call took 2.9 s and 442 MB peak RSS with every pair's column, and
        # 0.56 s and 230 MB without the unanimous ones, on a shared 2-core
        # machine
        inst = mallows1000
        start = time.perf_counter()
        res = mmkt_conv(inst)
        elapsed = time.perf_counter() - start
        assert float(res.objective) <= 2 * res.certificate + TOL
        assert len(build_kendall_lp(inst).bounds) == 1 + 17_005
        assert elapsed < 60

    def test_build_memory_at_n1000(self, mallows1000):
        # class weights are read at the 17,005 free pairs only and strict
        # unanimity on one (n, n) mask; a (C, n, n) float table of the
        # weights and gathers over all 499,500 pairs peaked at 59.1 MiB
        inst = mallows1000
        inst.above_counts  # built first: the instance's view, not the build's
        tracemalloc.start()
        try:
            prog = build_kendall_lp(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(prog.bounds) == 1 + 17_005
        assert peak <= 16 * 2**20  # 10.9 MiB measured


def near_order_u(rng, n, offsets, cycles=0):
    """u of a random order, each entry moved by a random one of ``offsets``.

    Each entry moves up or down at random, so it may leave [0, 1] as a
    solver's value may within its tolerance, and u[x][y] and u[y][x] move
    apart, so the pairing sums need not be 1; ``cycles`` random triples are
    then set to a 3-cycle, or to 1/3 each way.
    """
    rank = rng.permutation(n)
    u = (rank[:, None] < rank).astype(float)
    u += rng.choice([-1.0, 1.0], size=(n, n)) * rng.choice(offsets, size=(n, n))
    for _ in range(cycles):
        x, y, z = rng.choice(n, size=3, replace=False)
        value = 1.0 if rng.random() < 0.5 else 1 / 3
        u[x, y] = u[y, z] = u[z, x] = value
        u[y, x] = u[z, y] = u[x, z] = 1.0 - value
    np.fill_diagonal(u, 0.0)
    return u


class TestViolatedTriangles:
    def test_hand_made_three_cycles(self):
        # identity on 6 elements, with the cycle 1 > 2 > 3 > 1 and a
        # fractional cycle u[4][5] + u[5][6] + u[6][4] = 0.9 (0-based below)
        u = np.triu(np.ones((6, 6)), 1)
        u[2, 0], u[0, 2] = 1.0, 0.0
        u[3, 4], u[4, 3] = 0.2, 0.8
        u[4, 5], u[5, 4] = 0.3, 0.7
        u[5, 3], u[3, 5] = 0.4, 0.6
        # the integral cycle's reverse sums to 0, the fractional one's forward to 0.9
        assert assert_same_separation(u).tolist() == [0 * 36 + 1 * 6 + 2, 3 * 36 + 4 * 6 + 5]

    @pytest.mark.parametrize("n", [4, 7, 12, 30])
    def test_random_fractional_u(self, n):
        rng = generator(n)
        for _ in range(20):
            u = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
            u = np.where(np.triu(np.ones((n, n), dtype=bool), 1), u, 0.0)
            snapped = near_order_u(rng, n, [0.0])
            u = np.where(rng.random((n, n)) < 0.7, snapped, u + np.tril(1.0 - u.T, -1))
            np.fill_diagonal(u, 0.0)
            assert_same_separation(u)

    @pytest.mark.parametrize("n", [5, 9, 40])
    def test_tolerance_edge(self, n):
        # entries 1e-10 and eps/4 +- 1e-12 from 0/1 sit on both sides of the
        # settled line, and three terms 3.4e-10 off sum to just below 1 - eps
        eps = lp._VIOLATION
        offsets = [0.0, 1e-10, eps / 4 - 1e-12, eps / 4 + 1e-12, 3.4e-10, 1.1e-9]
        rng = generator(100 + n)
        violated = 0
        for trial in range(30):
            u = near_order_u(rng, n, offsets, cycles=trial % 3)
            violated += len(assert_same_separation(u))
            assert_same_separation(near_order_u(rng, n, offsets[:4]))
        assert violated > 0

    def test_three_terms_just_past_the_settled_line(self):
        # each term of the reverse cycle of (0, 1, 2) is 0.34 eps below its
        # order's value: no pair is settled and the sum is 1 - 1.02 eps
        d = 0.34 * lp._VIOLATION
        u = np.triu(np.ones((3, 3)), 1)
        u[1, 0] = u[2, 1] = -d
        u[0, 2] = 1.0 - d
        assert assert_same_separation(u).tolist() == [(0 * 3 + 1) * 3 + 2]

    def test_settled_triples_are_never_violated(self):
        # every entry eps/4 off its order's value: each cycle sum is 1 - 3eps/4
        eps = lp._VIOLATION
        u = near_order_u(generator(3), 20, [eps / 4])
        assert assert_same_separation(u).size == 0

    def test_dense_half(self):
        u = np.full((30, 30), 0.5)
        np.fill_diagonal(u, 0.0)
        assert assert_same_separation(u).size == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_sizes(self, n):
        rng = generator(n)
        for _ in range(10):
            assert_same_separation(near_order_u(rng, n, [0.0, 0.3], cycles=n // 3))

    def test_no_elements(self):
        out = lp._violated_triangles(np.zeros((0, 0)), np.empty(0, dtype=np.int64))
        assert out.dtype == np.int64 and out.size == 0

    def test_present_ids_are_left_out(self):
        rng = generator(5)
        u = near_order_u(rng, 15, [0.0, 0.2], cycles=6)
        ids = assert_same_separation(u)
        assert len(ids) > 4
        violated = set(ids.tolist())
        unviolated = next(t for t in ((x * 15 + y) * 15 + z
                                      for x, y, z in combinations(range(15), 3))
                          if t not in violated)
        for present in (set(ids[::2].tolist()), violated,
                        set(ids[1::3].tolist()) | {unviolated}):
            left = assert_same_separation(u, np.array(sorted(present), dtype=np.int64))
            assert set(left.tolist()) == violated - present

    def test_memory_stays_within_budget_on_dense_fractional_u(self):
        # every pair unsettled, so every one of the C(200, 3) triples is checked
        n = 200
        rng = generator(8)
        u = np.triu(rng.uniform(0.4, 0.6, (n, n)), 1)
        u += np.tril(1.0 - u.T, -1)
        present = np.empty(0, dtype=np.int64)
        tracemalloc.start()
        try:
            out = lp._violated_triangles(u, present)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.size == 0
        # the blocked reference peaks near 1.5 MB; all candidates of one
        # pass would take about 50 MB per int64 array
        assert peak <= 4 * 2**20

    def test_triangle_rows_are_the_documented_cycles(self):
        # sigma puts element 3 first, then 0, 4, 1, 2; u[s][t] is v, the
        # column of {s, t}, when s comes later in sigma, and 1 - v otherwise
        n = 5
        rank = np.array([1, 3, 4, 0, 2])
        later = rank[:, None] > rank
        col = pair_columns(n)
        triples = np.array([(0 * n + 1) * n + 2, (0 * n + 3) * n + 4, (1 * n + 3) * n + 4])
        lower, upper, indptr, indices, data = lp._triangle_rows(triples, col, later)
        rows = csr_matrix((data, indices, indptr), shape=(3, 1 + 10)).toarray()
        want = np.zeros_like(rows)
        # u[0][1] + u[1][2] + u[2][0] = (1 - v01) + (1 - v12) + v02
        want[0, [col[0, 1], col[1, 2], col[2, 0]]] = [-1.0, -1.0, 1.0]
        # u[0][3] + u[3][4] + u[4][0] = v03 + (1 - v34) + v04
        want[1, [col[0, 3], col[3, 4], col[4, 0]]] = [1.0, -1.0, 1.0]
        # u[1][3] + u[3][4] + u[4][1] = v13 + (1 - v34) + (1 - v14)
        want[2, [col[1, 3], col[3, 4], col[4, 1]]] = [1.0, -1.0, -1.0]
        assert (rows == want).all()
        assert indptr.tolist() == [0, 3, 6, 9]
        # 1 <= (forward cycle) <= 2, less the j constant terms of each row
        assert lower.tolist() == [-1.0, 0.0, -1.0] and upper.tolist() == [0.0, 1.0, 0.0]

        # fix {0, 1} (u[0][1] = 1 - 0) and {0, 4} (u[4][0] = 0): their terms
        # leave the rows, and the bounds are those of the full rows
        fixed = col.copy()
        fixed[[0, 1, 0, 4], [1, 0, 4, 0]] = 0
        lower, upper, indptr, indices, data = lp._triangle_rows(triples, fixed, later)
        rows = csr_matrix((data, indices, indptr), shape=(3, 1 + 10)).toarray()
        want[0, col[0, 1]] = want[1, col[4, 0]] = 0.0
        assert (rows == want).all()
        assert indptr.tolist() == [0, 2, 4, 7]
        assert lower.tolist() == [-1.0, 0.0, -1.0] and upper.tolist() == [0.0, 1.0, 0.0]

    def test_pair_columns_follow_combinations_order(self):
        # identity and reversal split every pair, so none is fixed
        members = (Permutation.identity(5), Permutation((5, 4, 3, 2, 1)))
        col = build_kendall_lp(Instance(5, (RankingClass(members, 1),))).pair_col
        assert (col == pair_columns(5)).all()
        assert [col[x, y] for x, y in combinations(range(5), 2)] == list(range(1, 11))
        assert (col == col.T).all()


class TestHighsBinding:
    def test_rows_added_to_a_solved_model_are_solved_warm(self):
        # lp.solve loads both programs into one model through scipy's
        # private HiGHS binding, lp.highspy, which lp loads from its file; a
        # scipy release that moves the file or changes the calls lp makes
        # fails here by name
        h = lp.highspy
        HighsModelStatus, HighsStatus, _Highs, kHighsInf = (
            h.HighsModelStatus, h.HighsStatus, h._Highs, h.kHighsInf)

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

    def test_presolve_switches_off(self):
        # lp.solve turns presolve off on every model through the same
        # binding; a release that renames the option or its value fails here
        h = lp.highspy
        HighsModelStatus, HighsStatus, _Highs, kHighsInf = (
            h.HighsModelStatus, h.HighsStatus, h._Highs, h.kHighsInf)

        highs = _Highs()
        highs.setOptionValue("output_flag", False)
        assert highs.setOptionValue("presolve", "off") == HighsStatus.kOk
        # min x + y with -x - 2y <= -1, -x <= -4/5 and x, y in [0, 1]
        assert highs.addCols(2, np.ones(2), np.zeros(2), np.ones(2), 0, [], [], []) \
            == HighsStatus.kOk
        rows = csr_matrix([[-1.0, -2.0], [-1.0, 0.0]])
        assert highs.addRows(2, np.full(2, -kHighsInf), np.array([-1.0, -0.8]), rows.nnz,
                             rows.indptr, rows.indices, rows.data) == HighsStatus.kOk
        highs.run()
        assert highs.getModelStatus() == HighsModelStatus.kOptimal
        assert np.allclose(highs.getSolution().col_value, [0.8, 0.1], atol=1e-9)

    def test_devex_pricing_switches_on_a_solved_model(self):
        # lp.solve switches a solved Kendall model to Devex pricing before a
        # round of few rows; a release that renames the option or its value
        # fails here
        h = lp.highspy
        HighsModelStatus, HighsStatus, _Highs, kHighsInf = (
            h.HighsModelStatus, h.HighsStatus, h._Highs, h.kHighsInf)

        # min x + y with -x - 2y <= -1 and x, y in [0, 1]: x = 0, y = 1/2
        highs = _Highs()
        highs.setOptionValue("output_flag", False)
        assert highs.addCols(2, np.ones(2), np.zeros(2), np.ones(2), 0, [], [], []) \
            == HighsStatus.kOk
        row = csr_matrix([[-1.0, -2.0]])
        assert highs.addRows(1, np.array([-kHighsInf]), np.array([-1.0]), row.nnz,
                             row.indptr, row.indices, row.data) == HighsStatus.kOk
        highs.run()
        assert highs.getModelStatus() == HighsModelStatus.kOptimal
        assert highs.setOptionValue("simplex_dual_edge_weight_strategy", 1) == HighsStatus.kOk

        # add -x <= -4/5 and solve again from that basis: x = 4/5, y = 1/10
        row = csr_matrix([[-1.0, 0.0]])
        assert highs.addRows(1, np.array([-kHighsInf]), np.array([-0.8]), row.nnz,
                             row.indptr, row.indices, row.data) == HighsStatus.kOk
        highs.run()
        assert highs.getModelStatus() == HighsModelStatus.kOptimal
        assert np.allclose(highs.getSolution().col_value, [0.8, 0.1], atol=1e-9)


def default_pricing_cut_loop(prog: LinearProgram) -> tuple:
    """Reference Kendall cut loop under HiGHS's default pricing throughout.

    It loads and separates as ``solve`` does, but never switches the model's
    dual edge weights.  Returns the optimum, u and each round's (rows held,
    rows added).
    """
    highspy = lp.highspy
    highs = highspy._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    col = prog.pair_col
    later = prog.rank[:, None] > prog.rank
    cost = np.zeros(len(prog.bounds))
    cost[0] = 1.0
    highs.addCols(len(cost), cost, prog.bounds[:, 0], prog.bounds[:, 1], 0, [], [], [])
    rows = csr_matrix(prog.A_ub)
    highs.addRows(len(prog.b_ub), np.full(len(prog.b_ub), -highspy.kHighsInf), prog.b_ub,
                  rows.nnz, rows.indptr, rows.indices, rows.data)
    present = np.empty(0, dtype=np.int64)
    rounds = []
    while True:
        highs.run()
        assert highs.getModelStatus() == highspy.HighsModelStatus.kOptimal
        x = np.array(highs.getSolution().col_value)
        v = np.where(col > 0, x[col], 0.0)
        u = np.where(later, v, 1.0 - v)
        np.fill_diagonal(u, 0.0)
        new = lp._violated_triangles(u, present)
        if not len(new):
            break
        rounds.append((highs.getNumRow(), len(new)))
        lower, upper, indptr, indices, data = lp._triangle_rows(new, col, later)
        highs.addRows(len(lower), lower, upper, len(data), indptr, indices, data)
        present = np.sort(np.concatenate([present, new]))
    return float((rows @ x + x[0] - prog.b_ub).max()), u, rounds


class TestPricingSwitch:
    def test_little_consensus_matches_default_pricing(self):
        # no consensus to speak of: late rounds add a few dozen rows to a
        # model of thousands, where solve switches to Devex pricing
        inst = sample_instance(TwoLevelConfig.create(60, 3, 10, 1.0, 1.0), (0, 0))
        prog = build_kendall_lp(inst)
        want, want_u, rounds = default_pricing_cut_loop(prog)
        assert any(held >= 1000 and added * lp._DEVEX_SHARE <= held for held, added in rounds)
        sol = solve(prog)
        assert abs(sol.objective - want) <= 1e-9 * abs(want)
        assert _kendall_order(sol.u, inst) == _kendall_order(want_u, inst)


def free_position_program(inst: Instance, A_ub, b_ub) -> LinearProgram:
    """q >= 0, free u(h) at column 1 + h and non-negative columns after them."""
    n, ncols = inst.n, A_ub.shape[1]
    bounds = np.zeros((ncols, 2))
    bounds[:, 1] = np.inf
    bounds[1:1 + n, 0] = -np.inf
    positions = np.zeros(ncols, dtype=np.intp)
    positions[1:1 + n] = np.arange(1, n + 1)
    return LinearProgram(A_ub.toarray(), b_ub, bounds, positions=positions)


def dense_positions(prog: LinearProgram) -> np.ndarray:
    """The (n, columns) matrix D with u = D @ x, rebuilt from ``positions``:
    D[h, j] = sign(p_j) where |p_j| = h + 1, and 0 elsewhere."""
    p = prog.positions
    moving = np.flatnonzero(p)
    dense = np.zeros((np.abs(p).max(), len(p)), dtype=np.intp)
    dense[np.abs(p[moving]) - 1, moving] = np.sign(p[moving])
    return dense


def slack_footrule_program(inst: Instance) -> LinearProgram:
    """Reference footrule LP: one slack e_gh >= |u(h) - p_gh| per member and element."""
    n = inst.n
    rows, cols, data, b_ub = [], [], [], []
    row0, col0 = 0, 1 + n
    for cls in inst.classes:
        lam = float(cls.weight) / cls.m
        pos = twice_positions(cls.members) / 2
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
    A_ub = csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row0, col0),
    )
    return free_position_program(inst, A_ub, np.concatenate(b_ub))


REFERENCE_WEIGHTS = (Fraction(1, 3), Fraction(7, 5), Fraction(0.1))


def reference_instance(seed: int) -> Instance:
    return tied_instance(generator(seed), n_choices=(3, 5, 7), m_choices=(1, 2, 5),
                         weight_choices=REFERENCE_WEIGHTS)


def coo_kendall_rows(inst: Instance, prog: LinearProgram, reduced: bool = True) -> tuple:
    """``build_kendall_lp``'s class rows and ``b_ub``, assembled from COO parts.

    The reference for its dense class rows: it reads sigma off ``prog``,
    takes the weights from ``float_weights`` and derives the rest as the
    builder's COO assembly once did, with a column for each pair in
    ``combinations`` order, less the strictly unanimous ones if ``reduced``.
    Its ``b_ub`` sums each class's terms over every pair, the order the
    builder must keep for a bit-identical bound.
    """
    num_classes, wf, rank = inst.num_classes, float_weights(inst), prog.rank
    lo, hi = np.triu_indices(inst.n, 1)
    swap = rank[lo] > rank[hi]
    a, b = np.where(swap, hi, lo), np.where(swap, lo, hi)
    counts = inst.above_counts.tolist()
    kept = [not reduced or any(counts[k][x][y] < cls.m for k, cls in enumerate(inst.classes))
            for x, y in zip(a.tolist(), b.tolist())]
    coef = (wf[:, a, b] - wf[:, b, a])[:, kept]
    k_idx, j_idx = np.nonzero(coef)
    rows = np.r_[np.arange(num_classes), k_idx]
    cols = np.r_[np.zeros(num_classes, dtype=int), 1 + j_idx]
    A_ub = csr_matrix((np.r_[np.full(num_classes, -1.0), coef[k_idx, j_idx]], (rows, cols)),
                      shape=(num_classes, 1 + sum(kept)))
    shifts = np.array([float(cls.weight * t / 2) for t, cls in zip(tie_mass(inst), inst.classes)])
    return A_ub, -shifts - wf[:, b, a].sum(axis=1)


def coo_footrule_rows(inst: Instance) -> tuple:
    """The piece-row footrule program's rows and ``b_ub``, from COO parts.

    Column t_kh is the epigraph of class k's sum_g |u(h) - p_gh|, the max
    over r = 0..m of the pieces (m - 2r) u(h) + 2 S_r - S_m, where S_r sums
    the r largest member positions of h.  It gets a row for r = 0, r = m and
    each r whose r-th and (r+1)-th largest positions differ, by element,
    then r, and each class a cost row after its pieces.
    """
    n = inst.n
    rows, cols, data, b_ub = [], [], [], []
    row0, col0 = 0, 1 + n
    for cls in inst.classes:
        lam = float(cls.weight) / cls.m
        s = np.sort(twice_positions(cls.members) / 2, axis=0)[::-1]
        top = np.cumsum(np.vstack([np.zeros(n), s]), axis=0)
        keep = np.ones((cls.m + 1, n), dtype=bool)
        keep[1:-1] = s[:-1] > s[1:]
        h, r = np.nonzero(keep.T)
        t_cols = col0 + np.arange(n)
        rows += [row0 + np.repeat(np.arange(len(h)), 2), np.full(n + 1, row0 + len(h))]
        cols += [np.stack([1 + h, t_cols[h]], axis=1).ravel(), np.r_[0, t_cols]]
        data += [np.stack([cls.m - 2.0 * r, -np.ones(len(h))], axis=1).ravel(),
                 np.r_[-1.0, np.full(n, lam)]]
        b_ub += [top[-1, h] - 2 * top[r, h], [0.0]]
        row0 += len(h) + 1
        col0 += n
    A_ub = csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row0, col0),
    )
    return A_ub, np.concatenate(b_ub)


def piece_footrule_program(inst: Instance) -> LinearProgram:
    """Reference footrule LP: one row per affine piece of each class's summed
    distance and one epigraph column per class and element."""
    return free_position_program(inst, *coo_footrule_rows(inst))


def worst_class_cost(inst: Instance, u: np.ndarray) -> float:
    """max_k lambda_k / m_k sum_g sum_h |u(h) - p_gh| over class k's members g."""
    return max(
        float(cls.weight) / cls.m * np.abs(u - tw / 2).sum()
        for cls, tw in zip(inst.classes, np.split(inst.member_tw, inst.class_starts[1:])))


def assembly_instances(case) -> list[Instance]:
    if case == "gene":
        return [parse_gene_order_file(GENE_SAMPLE.read_text()).instance]
    if case == "tied":
        rng = generator(47)
        return [tied_instance(rng, m_choices=(1, 2, 4, 6)) for _ in range(20)]
    if case == "mallows-300":
        return [sample_instance(TwoLevelConfig.create(300, 3, 10, 0.7, 0.7), (0, 0))]
    return [reference_instance(case)]


class TestDirectAssembly:
    # the Kendall builder fills its dense class rows directly; the COO
    # assembly it replaced, less the strictly unanimous pairs' columns, must
    # give the same rows and bounds, bit for bit
    @pytest.mark.parametrize("case", [*range(40), "tied", "gene"])
    def test_matches_coo_assembly(self, case):
        for inst in assembly_instances(case):
            prog = build_kendall_lp(inst)
            A_ub, b_ub = coo_kendall_rows(inst, prog)
            assert prog.A_ub.dtype == np.float64 and prog.A_ub.shape == A_ub.shape
            assert prog.A_ub.tobytes() == A_ub.toarray().tobytes()
            assert prog.b_ub.tobytes() == b_ub.tobytes()
            assert prog.bounds.shape == (A_ub.shape[1], 2)


def pooled_median_midpoints(inst: Instance) -> list[Fraction]:
    """Per element, the midpoint of the minimizers of its pooled cost
    sum_k lambda_k / m_k sum_g |v - p_gh|, in exact arithmetic.

    The cost is convex and piecewise linear with breakpoints at the member
    positions, so its minimizers run between two of them.
    """
    weights = [cls.weight / cls.m for cls in inst.classes for _ in range(cls.m)]
    midpoints = []
    for col in inst.member_tw.T.tolist():
        pos = [Fraction(t, 2) for t in col]
        cost = {v: sum(w * abs(v - p) for w, p in zip(weights, pos)) for v in set(pos)}
        best = [v for v, c in cost.items() if c == min(cost.values())]
        midpoints.append((min(best) + max(best)) / 2)
    return midpoints


class TestFootruleProgram:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_slack_reference(self, seed):
        inst = reference_instance(seed)
        ours = solve(build_footrule_program(inst)).objective
        ref = solve(slack_footrule_program(inst)).objective
        assert abs(ours - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("case", [*range(40), "tied", "gene", "mallows-300"])
    def test_matches_piece_program(self, case):
        # the segment program's optimum is the piece-row program's, and the
        # positions it reads back attain it
        for inst in assembly_instances(case):
            sol = solve(build_footrule_program(inst))
            ref = solve(piece_footrule_program(inst)).objective
            assert ref > 0
            assert abs(sol.objective - ref) <= 1e-9 * ref
            assert abs(worst_class_cost(inst, sol.u) - sol.objective) <= 1e-9 * ref

    def test_reference_sweep_covers_ties_sizes_and_weights(self):
        sizes, weights, tied = set(), set(), 0
        for seed in range(40):
            inst = reference_instance(seed)
            sizes |= {cls.m for cls in inst.classes}
            weights |= {cls.weight for cls in inst.classes}
            tied += has_ties(inst)
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
        q_only = np.eye(1, len(prog.bounds))[0]  # solve's cost: q alone
        res = linprog(q_only, A_ub=prog.A_ub, b_ub=prog.b_ub, bounds=prog.bounds,
                      method="highs", options={"presolve": False})
        assert res.status == 0
        assert np.allclose(sol.u, dense_positions(prog) @ res.x, rtol=0, atol=1e-9)
        assert (sol.iterations, sol.rows) == (res.nit, inst.num_classes)
        # the optimum read from the rows is the worst class cost at u
        for ref in (res.fun, worst_class_cost(inst, sol.u)):
            assert abs(sol.objective - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("name", ["gene", "gap"])
    def test_one_member_classes_match_the_slack_program(self, name):
        # with one member per class, every gap column of an element moves it
        # off one class's position, at slope +-lambda in each class row
        inst = (parse_gene_order_file(GENE_SAMPLE.read_text()).instance
                if name == "gene" else gap_instance())
        assert all(cls.m == 1 for cls in inst.classes)
        prog = build_footrule_program(inst)
        lam = np.array([float(cls.weight) for cls in inst.classes])
        gaps = prog.A_ub[:, 1 + inst.n:]
        assert np.isin(np.abs(gaps), [0.0, *lam]).all()
        sol = solve(prog)
        ref = solve(slack_footrule_program(inst)).objective
        assert abs(sol.objective - ref) <= 1e-9 * ref

    def test_size_counts_distinct_member_positions(self, rng):
        # C class rows; q, a base column per element and a gap column per
        # gap between the element's distinct member positions and anchor
        for _ in range(10):
            inst = tied_instance(rng, m_choices=(1, 2, 5))
            prog = build_footrule_program(inst)
            n = inst.n
            anchors = prog.bounds[1:1 + n]
            assert (anchors[:, 0] == anchors[:, 1]).all()
            gaps = sum(len(set(col) | {a}) - 1 for col, a in
                       zip((inst.member_tw / 2).T.tolist(), anchors[:, 0].tolist()))
            assert prog.A_ub.shape == (inst.num_classes, 1 + n + gaps)
            assert prog.positions.dtype.kind == "i" and prog.positions.shape == (1 + n + gaps,)
            assert dense_positions(prog).shape == (n, 1 + n + gaps)
            assert (prog.bounds[1 + n:, 1] > 0).all()

    def test_anchors_are_pooled_median_midpoints(self, rng):
        instances = [tied_instance(rng, m_choices=(1, 2, 5), weight_choices=REFERENCE_WEIGHTS)
                     for _ in range(20)] + [reference_instance(seed) for seed in range(40)]
        midpoints = 0
        for inst in instances:
            anchors = build_footrule_program(inst).bounds[1:1 + inst.n, 0]
            expected = pooled_median_midpoints(inst)
            assert anchors.tolist() == [float(a) for a in expected]
            midpoints += sum(2 * a not in set(col) for a, col in
                             zip(expected, inst.member_tw.T.tolist()))
        assert midpoints > 0  # some anchors fall between two member positions

    def test_agreeing_members_leave_an_element_no_gap_columns(self):
        identity = Permutation.identity(4)
        inst = Instance(4, (
            RankingClass((identity,) * 3, Fraction(1)),
            RankingClass((identity, Permutation((2, 1, 3, 4))), Fraction(1)),
        ))
        prog = build_footrule_program(inst)
        # 1 and 2 are anchored at their identity places, with one gap column
        # each towards the other place; 3 and 4 have none
        assert prog.bounds[1:5, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert prog.A_ub.shape == (2, 1 + 4 + 2)
        assert prog.positions.tolist() == [0, 1, 2, 3, 4, 1, -2]
        assert dense_positions(prog)[:, 5:].tolist() == [[1, 0], [0, -1], [0, 0], [0, 0]]

    def test_gap_instance_size(self):
        inst = gap_instance()
        prog = build_footrule_program(inst)
        n = inst.n
        # 1 and 2 are anchored halfway between their places, with a gap
        # column to each side
        assert len(prog.bounds) == 1 + n + 4
        assert prog.A_ub.shape[0] == 2
        sol = solve(prog)
        assert (sol.runs, sol.rows) == (1, 2)
        assert abs(sol.objective - 1.0) < TOL

    def test_tiny_weights_keep_the_optimum(self):
        # class=a lambda=1e-10 : 1 2 3 4 / class=b lambda=1e-10 : 2 1 3 4:
        # u(1) = u(2) = 3/2 costs each class 1e-10; the piece-row program
        # read 1e-9 here, its rows' slack within HiGHS's tolerance
        inst = Instance(4, tuple(
            RankingClass((p,), Fraction("1e-10"))
            for p in (Permutation.identity(4), Permutation((2, 1, 3, 4)))))
        sol = solve(build_footrule_program(inst))
        assert abs(sol.objective - 1e-10) <= 1e-9 * 1e-10
        res = mmsp_conv(inst, rng_seed=0)
        assert res.objective == Fraction("2e-10")
        assert res.certificate <= res.objective

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


def test_program_fields():
    # q's unit cost and n follow from the columns and sigma, so no field holds them
    assert [f.name for f in dataclasses.fields(LinearProgram)] == [
        "A_ub", "b_ub", "bounds", "rank", "pair_col", "positions"]


def test_src_does_not_import_scipy_sparse():
    # the footrule readback is one signed vector, so the package needs no
    # sparse matrices; tests may still build their reference programs with them
    imported = []
    for path in sorted((Path(__file__).parents[1] / "src" / "minmaxrank").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            imported += [(path.name, name) for name in names
                         if name == "scipy.sparse" or name.startswith("scipy.sparse.")]
    assert imported == []


def test_src_leaves_no_unused_import_or_private_function():
    # what a deletion leaves behind: an import nothing reads, or a private
    # helper whose last caller went
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in (Path(__file__).parents[1] / "src" / "minmaxrank").glob("*.py")}

    def referenced(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    unused = []
    for name, tree in sorted(trees.items()):
        if name == "__init__.py":
            continue
        used = referenced(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [(name, alias.name) for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    for name, tree in sorted(trees.items()):
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")):
                continue
            # references from everywhere but the function's own body
            outside = set()
            for other in trees.values():
                for stmt in other.body:
                    if stmt is not fn:
                        outside |= referenced(stmt)
            if fn.name not in outside:
                unused.append((name, fn.name))
    assert unused == []


class TestSolveErrors:
    # a positional and a pairwise program share the one status mapping
    @pytest.mark.parametrize("rank", [None, np.zeros(1)], ids=["positional", "pairwise"])
    @pytest.mark.parametrize("A_ub, b_ub, bounds, status", [
        ([[-1.0]], [-2.0], [0.0, 1.0], "Infeasible"),  # x in [0, 1] with -x <= -2
        ([[0.0]], [0.0], [-np.inf, np.inf], "Unbounded"),  # min x over free x
    ], ids=["infeasible", "unbounded"])
    def test_model_status(self, rank, A_ub, b_ub, bounds, status):
        prog = LinearProgram(A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                             bounds=np.array([bounds]), rank=rank)
        with pytest.raises(SolverError, match=f"^{status}$"):
            solve(prog)

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
