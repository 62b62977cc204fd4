"""Tests of the benchmark itself: determinism, checks, tracing, contract.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import tracing
from checks import CheckFailed, Oracle, check_relaxation, check_result
from minmaxrank import aggregators, cli, exact
from minmaxrank.aggregators import AggregationResult
from minmaxrank.mallows import TwoLevelConfig, sample_instance
from minmaxrank.rankings import (
    Instance,
    PartialRanking,
    Permutation,
    RankingClass,
)
from workloads import GENE_FILE, SWEEP_ALGOS, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("lp.rows", "lp.cols", "lp.nnz", "lp.highs_nit", "distances.pair_calls",
          "rankings.convert_calls", "exact.perms", "aggregators.pivot_levels",
          "mallows.sample_calls", "cli.parse_calls")
SETUP_ONLY = {"mallows.sample_s"}


def _traced(name, seed=3):
    metrics, tracer, outcome = run.traced_run(WORKLOADS[name](), seed, 0, trace_ops=2)
    assert outcome.failed == 0, outcome.messages
    return metrics, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_objectives_and_counts(name):
    workload = WORKLOADS[name]()
    first = [workload.check(workload.make_input(5, i), workload.op(workload.make_input(5, i)))
             for i in range(2)]
    second = [workload.check(workload.make_input(5, i), workload.op(workload.make_input(5, i)))
              for i in range(2)]
    assert first == second
    a, _ = _traced(name, seed=5)
    b, _ = _traced(name, seed=5)
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_has_no_errors_and_every_metric(name):
    metrics, notes, outcome = run.timed_run(
        WORKLOADS[name](), 1, 0, import_s=0.0, min_ops=2, objective_ops=3
    )
    assert outcome.attempted == 3 + run.SETUP_REPEATS  # three ops and the warm-ups
    assert outcome.failed == 0, outcome.messages
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_account_for_traced_wall_time(name):
    metrics, tracer = _traced(name)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert not tracer.absent
    layers = sum(v for k, v in metrics.items()
                 if k.endswith("_s") and not k.startswith("trace.") and k not in SETUP_ONLY)
    assert layers + metrics["trace.untraced_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)
    assert 0 <= metrics["trace.untraced_s"] < 0.1 * metrics["trace.wall_s"]
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_tracer_restores_the_program():
    before = (aggregators.solve, exact.brute_force, Permutation.__dict__["from_order"],
              Permutation.inverse)
    tracer = tracing.Tracer()
    tracer.install()
    assert aggregators.solve is not before[0]
    tracer.uninstall()
    after = (aggregators.solve, exact.brute_force, Permutation.__dict__["from_order"],
             Permutation.inverse)
    assert after == before


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "lp.gone", [("minmaxrank.lp", "no_such_function")])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["minmaxrank.lp.no_such_function"]


def _traced_call(fn):
    """Result of ``fn()`` and the counters of one traced op around it."""
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return fn(), tracer.counts
    finally:
        tracer.uninstall()


def test_roadmap_baseline_rows_reproduce():
    text = GENE_FILE.read_text(encoding="utf-8")
    result, counts = _traced_call(
        lambda: aggregators.mmkt_conv(cli.parse_gene_order_file(text).instance))
    assert (counts["lp.cols"], counts["lp.rows"]) == (1261, 14921)
    assert result.objective == 274
    assert abs(result.certificate - 253.87) <= 0.01

    inst = sample_instance(TwoLevelConfig.create(50, 3, 10, 0.7, 0.7), 0)
    _, counts = _traced_call(lambda: aggregators.mmkt_conv(inst))
    assert (counts["lp.cols"], counts["lp.rows"]) == (2451, 40428)


def test_oracle_matches_hand_values():
    p = Permutation((1, 2, 3, 4))
    q = Permutation((2, 1, 3, 4))
    tied = PartialRanking.from_buckets([[1, 2], [3], [4]])
    inst = Instance(4, (RankingClass((q,), Fraction(1)),
                        RankingClass((tied,), Fraction(3, 2))))
    oracle = Oracle(inst)
    # Kendall 1 to q; Kemeny 1/2 to the tie, weighted 3/2
    assert oracle.objective(p, positional=False, minimum=False) == Fraction(1)
    # footrule 2 to q; partial footrule |1-1.5| + |2-1.5| = 1, weighted 3/2
    assert oracle.objective(p, positional=True, minimum=True) == Fraction(2)


def test_checks_catch_wrong_outputs():
    inst = Instance(3, (RankingClass((Permutation((1, 2, 3)),)),
                        RankingClass((Permutation((3, 2, 1)),))))
    oracle = Oracle(inst)
    good = AggregationResult(Permutation((2, 1, 3)), Fraction(2))
    assert check_result(oracle, good, "good", False, False) == 2
    with pytest.raises(CheckFailed):
        check_result(oracle, AggregationResult(good.ranking, Fraction(1)), "obj", False, False)
    with pytest.raises(CheckFailed):
        check_result(oracle, AggregationResult(PartialRanking.from_buckets([[1, 2], [3]]),
                                               Fraction(2)), "perm", False, False)
    with pytest.raises(CheckFailed):
        check_relaxation(Fraction(3), 1.4, "2x")
    with pytest.raises(CheckFailed):
        check_relaxation(Fraction(1), 1.5, "lower bound")


def test_sweep_matches_the_cli_benchmark_table():
    table = getattr(cli, "_BENCH_ALGOS", None)
    if table is None:
        pytest.skip("the CLI no longer keeps its sweep table")
    assert SWEEP_ALGOS == {
        (cli._SET_DISTANCES[s], cli._DISTANCES[d]): tuple(algos)
        for (s, d), algos in table.items()
    }


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 10) < 3420


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(x) for x in range(1, 101)]
    value, pct = run.tail(latencies)
    assert value == 90.0 and sum(x > value for x in latencies) == 10
    assert math.isclose(pct, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
