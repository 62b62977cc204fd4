"""Acceptance suite: one test per criterion, each at its stated tolerance.

Criteria 1-3 share one seeded 500-instance sweep (n in 4..6, C in {2,3},
class sizes 1..3, weights in {1/2, 1, 2}).  Criterion 8 needs the external
11-genome dataset and is skipped when it is not supplied; its n = 36
runtime gate runs unconditionally on the bundled synthetic sample.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.
"""

import os
import statistics
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import minmaxrank as mr
from minmaxrank import DistanceKind, SetDistanceKind
from minmaxrank._rng import generator
from minmaxrank.cli import _BENCH_ALGOS, parse_gene_order_file, run_benchmark

from conftest import (
    random_instance,
    random_partial_ranking,
    random_permutation,
    singleton_buckets,
)

KT = DistanceKind.KENDALL_TAU
SF = DistanceKind.SPEARMAN_FOOTRULE
MED = SetDistanceKind.MEDIAN
MIN = SetDistanceKind.MINIMUM

TOL = 1e-6
FTOL = Fraction(1, 10**6)

SWEEP_SIZE = 500
SWEEP_SEED = 987

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_GENE_ORDERS = REPO_ROOT / "data" / "sample_gene_orders.tsv"
MTDNA_ENV = "MINMAXRANK_MTDNA"


def _passed(line):
    print(f"PASS {line}")


@pytest.fixture(scope="module")
def sweep():
    """Per-instance records shared by criteria 1-3, plus total elapsed time."""
    rng = generator(SWEEP_SEED)
    records = []
    start = time.perf_counter()
    for i in range(SWEEP_SIZE):
        inst = random_instance(rng)
        rec = {"inst": inst}
        rec["lp_kt"] = mr.solve(mr.build_kendall_lp(inst)).objective
        rec["mmkt"] = mr.mmkt_conv(inst).objective
        rec["w_med_kt"] = mr.brute_force(inst, KT, MED).value

        sol_sf = mr.solve(mr.build_footrule_program(inst))
        rec["lp_sf"] = sol_sf.objective
        rec["u_sf"] = sol_sf.u
        res_sf = mr.mmsp_conv(inst, rng_seed=i)
        rec["mmsp"] = res_sf.objective
        rec["mmsp_ranking"] = res_sf.ranking

        candidates = mr.max_weight_members(inst)
        rec["pick_rnd_expectation"] = Fraction(
            sum(mr.minmax_objective(m, inst, KT, MED) for _, _, m in candidates),
            len(candidates),
        )
        rec["w_min_kt"] = mr.brute_force(inst, KT, MIN).value
        rec["min_pick"] = mr.min_pick_perm(inst, KT).objective
        rec["min_mmkt"] = mr.min_mmkt_conv(inst).objective
        rec["w_min_sf"] = mr.brute_force(inst, SF, MIN).value
        rec["min_mmsp"] = mr.min_mmsp_conv(inst, rng_seed=i).objective
        records.append(rec)
    return records, time.perf_counter() - start


def test_criterion_1_rounding_bound(sweep):
    records, elapsed = sweep
    assert len(records) >= 500
    for rec in records:
        assert float(rec["mmkt"]) <= 2 * rec["lp_kt"] + TOL
        assert rec["mmkt"] <= 2 * rec["w_med_kt"] + FTOL
    assert elapsed < 300
    _passed(
        f"criterion 1 (Theorem 2 rounding bound, {len(records)} instances, "
        f"sweep {elapsed:.0f}s < 300s)"
    )


def test_criterion_2_footrule_bound(sweep):
    records, _ = sweep
    for rec in records:
        assert float(rec["mmsp"]) <= 2 * rec["lp_sf"] + TOL
        u = rec["u_sf"]
        n = len(u)
        cost = np.abs(u[:, None] - np.arange(1, n + 1)[None, :])
        rows, cols = linear_sum_assignment(cost)
        closest = cost[rows, cols].sum()
        mine = np.abs(u - np.array(rec["mmsp_ranking"].ranks)).sum()
        assert mine <= closest + TOL
    _passed("criterion 2 (Theorem 3 footrule bound and closest-permutation check)")


def test_criterion_3_selection_bounds(sweep):
    records, _ = sweep
    for rec in records:
        assert rec["pick_rnd_expectation"] <= 2 * rec["w_med_kt"]
        assert rec["min_pick"] <= 2 * rec["w_min_kt"]
        assert rec["min_mmkt"] <= 4 * rec["w_min_kt"] + FTOL
        assert rec["min_mmsp"] <= 4 * rec["w_min_sf"] + FTOL
    _passed("criterion 3 (Theorems 1 and 4 selection bounds, factor-4 reduction)")


def test_criterion_4_integrality_gap():
    inst = mr.Instance(
        4,
        (
            mr.RankingClass((mr.Permutation.identity(4),), 1),
            mr.RankingClass((mr.Permutation((2, 1, 3, 4)),), 1),
        ),
    )
    lp_opt = mr.solve(mr.build_kendall_lp(inst)).objective
    w = mr.brute_force(inst, KT, MED).value
    gap = mr.lp_gap(inst, KT)
    assert abs(lp_opt - 0.5) < TOL
    assert w == 1
    assert abs(gap - 2.0) < TOL
    _passed("criterion 4 (integrality-gap instance: LP 0.5, W 1, gap 2.0)")


def test_criterion_5_distance_properties():
    rng = generator(55)
    # symmetry, nonnegativity, identity, Diaconis-Graham: 10^4 pairs, n <= 20
    for _ in range(10000):
        n = int(rng.integers(2, 21))
        p, q = random_permutation(rng, n), random_permutation(rng, n)
        dt, ds = mr.distance(p, q, KT), mr.distance(p, q, SF)
        assert 0 <= dt == mr.distance(q, p, KT)
        assert 0 <= ds == mr.distance(q, p, SF)
        assert mr.distance(p, p, KT) == 0 and mr.distance(p, p, SF) == 0
        assert dt <= ds <= 2 * dt
    # triangle inequality over both distances, on permutations and on
    # partial rankings: random triples, n <= 12
    for _ in range(2500):
        n = int(rng.integers(2, 13))
        for kind in (KT, SF):
            a, b, c = (random_permutation(rng, n) for _ in range(3))
            assert mr.distance(a, b, kind) <= (
                mr.distance(a, c, kind) + mr.distance(c, b, kind)
            )
        for kind in (KT, SF):
            a, b, c = (random_partial_ranking(rng, n) for _ in range(3))
            dab, dba = mr.distance(a, b, kind), mr.distance(b, a, kind)
            assert dab >= 0 and dab == dba
            assert dab <= mr.distance(a, c, kind) + mr.distance(c, b, kind)
    # exact agreement on total orders, as permutations or as partial rankings
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        p, q = random_permutation(rng, n), random_permutation(rng, n)
        for kind in (KT, SF):
            assert (mr.distance(singleton_buckets(p), singleton_buckets(q), kind)
                    == mr.distance(p, q, kind))
    _passed("criterion 5 (pseudometric axioms, Diaconis-Graham, total-order agreement)")


def test_criterion_6_mallows_sampler():
    n, phi, samples = 4, 0.7, 100000
    start = time.perf_counter()
    rng = generator(66)
    ident = mr.Permutation.identity(n)
    counts = Counter(mr.sample_mallows(phi, ident, rng).ranks for _ in range(samples))
    elapsed = time.perf_counter() - start

    z = 1.0
    for i in range(1, n + 1):
        z *= (1.0 - phi**i) / (1.0 - phi)
    tv = 0.0
    for ranks in permutations(range(1, n + 1)):
        d = int(mr.distance(mr.Permutation(ranks), mr.Permutation.identity(n), KT))
        tv += abs(counts.get(ranks, 0) / samples - phi**d / z)
    tv /= 2
    assert tv < 0.01
    assert elapsed < 10
    _passed(f"criterion 6 (Mallows sampler TV {tv:.4f} < 0.01 in {elapsed:.1f}s < 10s)")


def test_criterion_7_synthetic_trends():
    start = time.perf_counter()
    phi1s = [0.5, 0.7, 0.9, 1.0]

    def means(rows, algo):
        return [
            statistics.fmean(
                r.objective for r in rows if r.algo == algo and r.phi1 == p
            )
            for p in phi1s
        ]

    results = {}
    for set_flag, dist_flag in (("med", "kt"), ("med", "sf"), ("min", "kt"),
                                ("min", "sf")):
        rows = run_benchmark(
            n=10, num_classes=3, per_class=10, phi1_list=phi1s, phi2=0.7,
            trials=100, seed=0, dist_flag=dist_flag, set_flag=set_flag,
        )
        for algo in _BENCH_ALGOS[(set_flag, dist_flag)]:
            m = means(rows, algo)
            results[(set_flag, dist_flag, algo)] = m
            # every Table-style row is nondecreasing in phi1
            assert all(m[i] <= m[i + 1] + 1e-12 for i in range(len(m) - 1)), (
                set_flag, dist_flag, algo, m)

    for i in range(4):
        assert results[("med", "kt", "mmkt")][i] < results[("med", "kt", "pick-opt")][i]
        assert results[("med", "kt", "pick-opt")][i] < results[("med", "kt", "pick-rnd")][i]
        assert results[("med", "sf", "mmsp")][i] < results[("med", "sf", "pick-opt")][i]
        assert results[("min", "kt", "min-mmkt")][i] < results[("min", "kt", "min-pick")][i]
        assert results[("min", "sf", "min-mmsp")][i] < results[("min", "sf", "min-pick")][i]

    elapsed = time.perf_counter() - start
    assert elapsed < 900
    _passed(f"criterion 7 (two-level Mallows trends, 4 sweeps in {elapsed:.0f}s < 900s)")


def test_criterion_8_lp_scale_runtime():
    # unconditional half: LP build+solve at n = 36 on the bundled sample
    parsed = parse_gene_order_file(SAMPLE_GENE_ORDERS.read_text())
    assert parsed.instance.n == 36
    assert parsed.instance.num_classes == 11
    start = time.perf_counter()
    sol = mr.solve(mr.build_kendall_lp(parsed.instance))
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    assert sol.objective > 0
    _passed(f"criterion 8a (n=36 LP build+solve {elapsed:.1f}s < 300s)")


def test_criterion_8_mtdna_dataset():
    # conditional half: needs the externally supplied 11-genome dataset
    path = os.environ.get(MTDNA_ENV, "")
    if not path:
        fallback = REPO_ROOT / "data" / "mtdna_bourque2002.tsv"
        if fallback.exists():
            path = str(fallback)
    if not path or not os.path.exists(path):
        pytest.skip(
            f"external mtDNA gene-order file not supplied; set {MTDNA_ENV} "
            "to the 11-genome, 36-block dataset to enable this criterion"
        )
    parsed = parse_gene_order_file(Path(path).read_text())
    inst = parsed.instance
    assert inst.n == 36 and inst.num_classes == 11
    start = time.perf_counter()
    conv = mr.mmkt_conv(inst)
    elapsed = time.perf_counter() - start
    opt = mr.pick_opt_perm(inst, KT, MED)
    assert elapsed < 300
    assert conv.objective <= 267
    assert conv.objective < opt.objective
    assert abs(float(conv.objective) - 210) / 210 <= 0.05
    _passed(
        f"criterion 8b (mtDNA: mmkt {conv.objective} < pick-opt {opt.objective}, "
        f"within 5% of 210)"
    )
