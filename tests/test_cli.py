import argparse
import hashlib
import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minmaxrank
from minmaxrank import cli, mallows
from minmaxrank import (
    Instance,
    PartialRanking,
    Permutation,
    RankingClass,
    brute_force,
    minmax_objective,
    set_distance,
)
from minmaxrank.cli import (
    ParseError,
    format_benchmark_csv,
    main,
    parse_gene_order_file,
    parse_instance_file,
    run_benchmark,
    write_instance_file,
)
from minmaxrank.distances import scaled_class_costs
from minmaxrank._rng import generator

from conftest import random_instance, tied_instance

GAP_FILE = """\
# the two-class integrality-gap instance
class=a lambda=1 : 1 2 3 4
class=b lambda=1 : 2 1 3 4
"""

GENE_ARGS = [
    str(Path(__file__).resolve().parents[1] / "data" / "sample_gene_orders.tsv"),
    "--gene-orders",
]

# identity against reversal: every ranking is 28 pairs from the two, so the
# Kendall optimum is 14; n=8 enumerates in many blocks
EIGHT_FILE = """\
class=a lambda=1 : 1 2 3 4 5 6 7 8
class=b lambda=1 : 8 7 6 5 4 3 2 1
"""

EXTREME_FILE = "class=a lambda={} : 1 2 3\nclass=b lambda=1 : 3 2 1\n"

# the example of the README's "Instance files" section
README_FILE = (
    (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    .split("### Instance files\n", 1)[1].split("```\n", 2)[1]
)

TIED_FILE = """\
elements: w x y z
class=1 lambda=0.5 : { w x } y z
class=1 lambda=0.5 : w { x y z }
class=2 lambda=2 : z y x w
"""


class TestParseInstanceFile:
    def test_basic(self):
        parsed = parse_instance_file(GAP_FILE)
        inst = parsed.instance
        assert inst.n == 4
        assert inst.num_classes == 2
        assert parsed.class_ids == ("a", "b")
        assert inst.classes[0].members[0] == Permutation.identity(4)
        assert inst.classes[1].members[0].ranks == (2, 1, 3, 4)

    def test_first_seen_name_mapping(self):
        parsed = parse_instance_file(
            "class=1 lambda=1 : c b a\nclass=1 lambda=1 : a b c\n"
        )
        assert parsed.element_names == ("c", "b", "a")
        # first line is identity under the induced mapping
        assert parsed.instance.classes[0].members[0] == Permutation.identity(3)

    def test_ties_and_weights(self):
        parsed = parse_instance_file(TIED_FILE)
        inst = parsed.instance
        assert inst.classes[0].weight == Fraction(1, 2)
        assert inst.classes[1].weight == 2
        assert inst.classes[0].members[0] == PartialRanking.from_buckets([{1, 2}, {3}, {4}])
        # class 2 has no braces: stays a permutation
        assert inst.classes[1].members[0].ranks == (4, 3, 2, 1)

    def test_braces_decide_each_line(self):
        parsed = parse_instance_file(README_FILE)
        assert parsed.element_names == ("a", "b", "c", "d")
        first, second = parsed.instance.classes
        assert [type(m) for m in first.members] == [PartialRanking, Permutation]
        assert first.members[1].ranks == (2, 1, 3, 4)
        assert [type(m) for m in second.members] == [Permutation]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("class=1 lambda=1 1 2 3\n", "missing ':'"),
            ("class=1 lambda=x : 1 2\n", "bad lambda"),
            ("class=1 lambda=-1 : 1 2\n", "positive"),
            ("class=1 lambda=1 : { 1 { 2 } }\n", "nested"),
            ("class=1 lambda=1 : 1 } 2\n", "unmatched"),
            ("class=1 lambda=1 : { 1 2\n", "unclosed"),
            ("class=1 lambda=1 : 1 1 2\n", "repeated"),
            ("class=1 lambda=1 : 1 2\nclass=1 lambda=2 : 2 1\n", "inconsistent"),
            ("class=1 lambda=1 : 1 2\nclass=2 lambda=1 : 1 2 3\n", "covers"),
            ("# nothing\n", "no rankings"),
            ("class=1 lambda=1 : 1 { } 2\n", "empty tie group"),
            ("class=1 lambda=1 :\n", "empty ranking"),
            ("class=1 weight=1 : 1 2\n", "expected 'class=<id> lambda=<weight> :'"),
            ("class= lambda=1 : 1 2\n", "empty class id"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_instance_file(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_instance_file("# comment\nclass=1 lambda=bad : 1 2\n")
        assert err.value.line_no == 2


class TestRoundTrip:
    def test_permutation_instance(self):
        inst = Instance(
            3,
            (
                RankingClass((Permutation.identity(3), Permutation((2, 1, 3))), 1),
                RankingClass((Permutation((3, 1, 2)),), Fraction(1, 2)),
            ),
        )
        again = parse_instance_file(write_instance_file(inst))
        assert again.instance == inst

    def test_tied_instance_with_exotic_weight(self):
        inst = Instance(
            4,
            (
                RankingClass(
                    (
                        PartialRanking.from_buckets([{1, 3}, {2}, {4}]),
                        PartialRanking.from_buckets([{4}, {1, 2, 3}]),
                    ),
                    Fraction(1, 3),
                ),
            ),
        )
        again = parse_instance_file(write_instance_file(inst))
        assert again.instance == inst


@st.composite
def instances(draw):
    """An instance whose members are each a permutation or a partial ranking."""
    n = draw(st.integers(1, 6))
    classes = []
    for _ in range(draw(st.integers(1, 3))):
        weight = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
        members = []
        for _ in range(draw(st.integers(1, 3))):
            order = draw(st.permutations(range(1, n + 1)))
            if n < 2 or not draw(st.booleans()):
                members.append(Permutation.from_order(order))
                continue
            # bucket boundaries
            cuts = draw(st.sets(st.integers(1, n - 1)))
            ends = [0, *sorted(cuts), n]
            members.append(
                PartialRanking.from_buckets([order[a:b] for a, b in zip(ends, ends[1:])])
            )
        classes.append(RankingClass(tuple(members), weight))
    return Instance(n, tuple(classes))


@given(instances())
def test_write_parse_round_trip(inst):
    parsed = parse_instance_file(write_instance_file(inst))
    assert parsed.instance == inst
    assert parsed.element_names == tuple(str(x) for x in range(1, inst.n + 1))
    assert parsed.class_ids == tuple(str(k) for k in range(1, inst.num_classes + 1))


class TestGeneOrders:
    def test_signs_stripped_and_singleton_classes(self):
        text = "# comments and blank lines are skipped\n\nmouse\t-3 1 -2\n  \nfrog\t2 -1 3\n"
        parsed = parse_gene_order_file(text)
        inst = parsed.instance
        assert inst.num_classes == 2
        assert all(c.m == 1 and c.weight == 1 for c in inst.classes)
        assert parsed.class_ids == ("mouse", "frog")
        assert inst.classes[0].members[0] == Permutation.from_order([3, 1, 2])

    def test_rejects_non_permutation(self):
        with pytest.raises(ParseError):
            parse_gene_order_file("bad\t1 1 2\n")

    def test_rejects_missing_tab(self):
        with pytest.raises(ParseError):
            parse_gene_order_file("bad 1 2 3\n")

    @pytest.mark.parametrize("text, message", [
        ("mouse\t1 two 3\n", "line 1: gene order must be signed integers"),
        ("# only a comment\n\n", "line 0: no genomes in file"),
    ], ids=["not-integers", "no-genomes"])
    def test_parse_errors(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_gene_order_file(text)


@pytest.mark.parametrize("call, error, message", [
    (lambda: cli.run_algorithm("kemeny", None, None, None), ValueError,
     "unknown algorithm 'kemeny'"),
    (lambda: cli._positive_int("x"), argparse.ArgumentTypeError, "not an integer: 'x'"),
], ids=["unknown-algorithm", "not-an-integer"])
def test_rejection_names_its_fault(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.fixture
def gap_file(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text(GAP_FILE)
    return str(path)


class TestCommands:
    def test_aggregate_mmkt(self, gap_file, capsys):
        code = main(["aggregate", gap_file, "--distance", "kt", "--setdist", "med",
                     "--algo", "mmkt"])
        out = capsys.readouterr().out
        assert code == 0
        assert "objective: 1 (1)" in out
        assert "certificate: 0.500000" in out
        assert "ranking:" in out

    def test_aggregate_mmkt_at_n120(self, tmp_path, capsys):
        # triangle separation checks only the triples through unsettled
        # pairs, which keeps this solve far inside the bound
        cfg = mallows.TwoLevelConfig.create(120, 3, 10, 0.7, 0.7)
        path = tmp_path / "mallows120.txt"
        path.write_text(write_instance_file(mallows.sample_instance(cfg, 0)))
        start = time.perf_counter()
        assert main(["aggregate", "--algo", "mmkt", str(path)]) == 0
        assert time.perf_counter() - start < 120
        assert "\nranking: " in capsys.readouterr().out

    def test_aggregate_singleton_any_algo(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("class=1 lambda=1 : 2 3 1\n")
        for algo in ("mmkt", "pick-rnd", "pick-opt", "pivot-baseline",
                     "matching-baseline"):
            code = main(["aggregate", str(path), "--algo", algo])
            assert code == 0
            assert "objective: 0 (0)" in capsys.readouterr().out

    def test_aggregate_seed_reproducible(self, gap_file, capsys):
        main(["aggregate", gap_file, "--algo", "pick-rnd", "--seed", "4"])
        first = capsys.readouterr().out
        main(["aggregate", gap_file, "--algo", "pick-rnd", "--seed", "4"])
        assert capsys.readouterr().out == first

    def test_incompatible_flags_exit_3(self, gap_file, tmp_path, capsys):
        assert main(["aggregate", gap_file, "--algo", "mmkt", "--setdist", "min"]) == 3
        assert main(["aggregate", gap_file, "--algo", "mmsp"]) == 3
        assert main(["aggregate", gap_file, "--algo", "min-mmkt"]) == 3
        # the flags are checked before the file is read
        absent = str(tmp_path / "absent.txt")
        assert main(["aggregate", absent, "--algo", "mmsp"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: algorithm mmkt requires --setdist med\n"
            "error: algorithm mmsp requires --distance sf\n"
            "error: algorithm min-mmkt requires --setdist min\n"
            "error: algorithm mmsp requires --distance sf\n"
        )

    def test_parse_error_exit_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("class=1 lambda=1 : 1 2\nclass=1 lambda=oops : 2 1\n")
        assert main(["aggregate", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_exact_too_large_exit_4(self, tmp_path, capsys):
        nine = tmp_path / "nine.txt"
        nine.write_text("class=1 lambda=1 : 1 2 3 4 5 6 7 8 9\n")
        eight = tmp_path / "eight.txt"
        eight.write_text(EIGHT_FILE)
        assert main(["exact", str(nine)]) == 4
        assert main(["exact", str(eight), "--n-limit", "7"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: n=9 exceeds enumeration limit 8\n"
            "error: n=8 exceeds enumeration limit 7\n"
        )


@pytest.fixture
def tied_file(tmp_path):
    path = tmp_path / "tied.txt"
    path.write_text(TIED_FILE)
    return str(path)


_TIED_KENDALL_REPORT = """\
distance: kendall-tau  setdist: median
ranking: z y x w
objective: 5/2 (2.5)
class 1: weight=0.5 cost=5 (5) weighted=5/2 (2.5)
class 2: weight=2.0 cost=0 (0) weighted=0 (0)
"""


@pytest.mark.parametrize(
    "flags, expected",
    [
        pytest.param(["--algo", "mmkt"],
                     "algorithm: mmkt\n" + _TIED_KENDALL_REPORT + "certificate: 2.068966\n",
                     id="tied-mmkt"),
        pytest.param(
            ["--algo", "min-mmsp", "--distance", "sf", "--setdist", "min"],
            "algorithm: min-mmsp\n"
            "distance: spearman-footrule  setdist: minimum\n"
            # z x y w, with the same class costs, before the footrule program
            # took its segment form and HiGHS ended on another optimal vertex
            "ranking: z y w x\n"
            "objective: 4 (4)\n"
            "class 1: weight=0.5 cost=6 (6) weighted=3 (3)\n"
            "class 2: weight=2.0 cost=2 (2) weighted=4 (4)\n",
            id="tied-min-mmsp"),
        pytest.param(["--algo", "pick-opt"], "algorithm: pick-opt\n" + _TIED_KENDALL_REPORT,
                     id="tied-pick-opt"),
        # the gene-order sample names its own file, and each listed line
        # must be a whole line of the report
        pytest.param([*GENE_ARGS, "--algo", "mmkt"],
                     ["objective: 274 (274)", "certificate: 253.867533"],
                     id="gene-mmkt"),
        # the default --seed 0 shuffle of tied positions gives this
        # ranking's objective
        pytest.param([*GENE_ARGS, "--algo", "mmsp", "--distance", "sf"],
                     ["certificate: 303.608696", "objective: 402 (402)"],
                     id="gene-mmsp"),
    ],
)
def test_aggregate_golden_output(flags, expected, tied_file, capsys):
    argv = flags if "--gene-orders" in flags else [tied_file, *flags]
    assert main(["aggregate", *argv]) == 0
    captured = capsys.readouterr()
    if isinstance(expected, str):
        assert captured.out == expected
    else:
        lines = captured.out.splitlines()
        assert [line for line in expected if line not in lines] == []
    assert captured.err == ""


def _class_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("class ")]


def test_aggregate_class_lines_match_set_distance(tmp_path, capsys):
    rng = generator(11)
    weights = (Fraction(0.1), Fraction(1, 3), Fraction(1), Fraction(7, 5))
    instances = [
        random_instance(rng, m_choices=(1, 2, 3, 4, 5), weight_choices=weights,
                        allow_ties=True)
        for _ in range(10)
    ]
    classes = [cls for inst in instances for cls in inst.classes]
    assert {cls.m for cls in classes} == {1, 2, 3, 4, 5}
    assert {cls.weight for cls in classes} == set(weights)
    tied = [any(isinstance(m, PartialRanking) and len(m.buckets) < m.n for m in cls.members)
            for cls in classes]
    assert set(tied) == {True, False}
    flag_pairs = list(itertools.product(cli._DISTANCES, cli._SET_DISTANCES))
    for j, inst in enumerate(instances):
        path = tmp_path / f"inst{j}.txt"
        path.write_text(write_instance_file(inst))
        for algo, (dist, setdist) in itertools.product(cli._ALGORITHMS, flag_pairs):
            need = cli._ALGORITHMS[algo]
            if need.distance not in (None, dist) or need.setdist not in (None, setdist):
                continue
            argv = ["aggregate", str(path), "--algo", algo, "--distance", dist,
                    "--setdist", setdist]
            assert main(argv) == 0
            out = capsys.readouterr().out
            # the printed ranking is in the file syntax, over the names 1..n
            ranking_text = out.split("ranking: ", 1)[1].split("\n", 1)[0]
            header = "elements: " + " ".join(map(str, range(1, inst.n + 1)))
            ranking = parse_instance_file(
                f"{header}\nclass=r lambda=1 : {ranking_text}\n"
            ).instance.classes[0].members[0]
            kind = cli._DISTANCES[dist]
            set_kind = cli._SET_DISTANCES[setdist]
            expected = []
            for k, cls in enumerate(inst.classes, start=1):
                cost = set_distance(ranking, cls, kind, set_kind)
                expected.append(
                    f"class {k}: weight={cli._format_weight(cls.weight)} "
                    f"cost={cli._fmt_rational(cost)} "
                    f"weighted={cli._fmt_rational(cls.weight * cost)}"
                )
            assert _class_lines(out) == expected, argv


def test_aggregate_makes_one_class_cost_call(tied_file, monkeypatch, capsys):
    calls = []

    def counted(*args):
        calls.append(args)
        return scaled_class_costs(*args)

    monkeypatch.setattr(cli, "scaled_class_costs", counted)
    assert main(["aggregate", tied_file, "--algo", "pick-opt"]) == 0
    assert len(calls) == 1
    assert len(_class_lines(capsys.readouterr().out)) == 2


@pytest.mark.parametrize(
    "text, flags, expected",
    [
        (GAP_FILE, [], "n: 4\nW: 1 (1)\noptimal: 1 2 3 4\nlp-gap: 2.000000\n"),
        (GAP_FILE, ["--distance", "sf"],
         "n: 4\nW: 2 (2)\noptimal: 1 2 3 4\nlp-gap: 2.000000\n"),
        # the minimum-Kemeny optimum of one tied class; the 2x and 4x bounds
        # of the min-* algorithms do not hold on it
        ("class=a lambda=3/2 : { 1 2 3 4 5 }\nclass=a lambda=3/2 : 3 5 { 1 2 } 4\n",
         ["--setdist", "min"], "n: 5\nW: 3/4 (0.75)\noptimal: 3 5 1 2 4\n"),
        (EIGHT_FILE, ["--setdist", "med"],
         "n: 8\nW: 14 (14)\noptimal: 1 2 8 7 6 5 3 4\nlp-gap: 1.000000\n"),
        # under the footrule both are 32 apart, so the optimum is 16; the
        # footrule program's optimum is 16 as well, so its gap reads 1
        (EIGHT_FILE, ["--distance", "sf"],
         "n: 8\nW: 16 (16)\noptimal: 1 7 6 4 5 3 2 8\nlp-gap: 1.000000\n"),
        # the minimum problem needs no LP, and its scaled class costs pass
        # int64 at this weight, so the oracle compares them as Python ints
        (EXTREME_FILE.format("1e20"), ["--setdist", "min"],
         "n: 3\nW: 3 (3)\noptimal: 1 2 3\n"),
        (EXTREME_FILE.format("1e20"), ["--setdist", "min", "--distance", "sf"],
         "n: 3\nW: 4 (4)\noptimal: 1 2 3\n"),
        # the gap instance at weight 1e-10: the footrule optimum is 2e-10
        # and its relaxation's 1e-10, so the gap is 2 at any weight
        (GAP_FILE.replace("lambda=1", "lambda=1e-10"), ["--distance", "sf"],
         "n: 4\nW: 1/5000000000 (2e-10)\noptimal: 1 2 3 4\nlp-gap: 2.000000\n"),
    ],
    ids=["gap", "gap-sf", "tied5-min", "eight", "eight-sf", "extreme-min",
         "extreme-min-sf", "tiny-sf"],
)
def test_exact_golden_output(text, flags, expected, tmp_path, capsys):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    assert main(["exact", str(path), *flags]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_exact_enumerates_once(gap_file, monkeypatch, capsys):
    calls = []
    brute_force = minmaxrank.exact.brute_force

    def counted(*args, **kwargs):
        calls.append(args)
        return brute_force(*args, **kwargs)

    monkeypatch.setattr(minmaxrank.exact, "brute_force", counted)
    assert main(["exact", gap_file]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.endswith("lp-gap: 2.000000\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["benchmark", "--trials", "0"],
        ["benchmark", "--phi1-list", "0.5,x"],
        ["benchmark", "--phi1-list", "1.5"],
        ["benchmark", "--phi1-list", ","],
        ["benchmark", "--n", "0"],
        ["benchmark", "--classes", "0"],
        ["benchmark", "--per-class", "0"],
        ["benchmark", "--phi2", "0"],
        ["benchmark", "--seed", "-1"],
        ["aggregate", "--seed", "-1", "--algo", "pick-rnd", *GENE_ARGS],
        ["aggregate", "--seed", "-1", "--algo", "mmsp", "--distance", "sf", *GENE_ARGS],
        ["aggregate", "--seed", "-1", "--algo", "min-mmsp", "--distance", "sf",
         "--setdist", "min", *GENE_ARGS],
        ["aggregate", "--seed", "-1", "--algo", "pivot-baseline", *GENE_ARGS],
        ["exact", "--n-limit", "-1", *GENE_ARGS],
        ["exact", "--n-limit", "0", *GENE_ARGS],
        ["benchmark", "--trials", "x"],
        ["benchmark", "--phi1-list", "0.5,0.5"],
    ],
)
def test_bad_benchmark_flag_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, weight, code",
    [
        (["aggregate"], "1e400", 2),
        (["aggregate"], "1e-400", 2),
        (["aggregate", "--algo", "mmsp", "--distance", "sf"], "1e20", 5),
        (["exact"], "1e20", 5),
        (["aggregate", "--algo", "pick-opt"], "1e308", 2),
        (["exact"], "1e308", 2),
        (["aggregate", "--algo", "mmkt"], "1e20", 5),
        (["exact", "--distance", "sf"], "1e20", 5),
    ],
)
def test_extreme_lambda_exits_with_message(argv, weight, code, tmp_path, capsys):
    # 1e400 overflows float64 and 1e-400 rounds to 0; at 1e20 HiGHS
    # rejects either relaxation's coefficients on loading; 1e308 is in
    # range, but a class cost of up to 1e308 * n²/2 is not
    path = tmp_path / "extreme.txt"
    path.write_text(EXTREME_FILE.format(weight))
    assert main([argv[0], str(path), *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if code == 5:
        # HiGHS's own model-status text
        assert captured.err == "error: Model error\n"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_every_algorithm_returns_a_permutation_on_tied_input(seed):
    # a selection that returned a tied member could score below every
    # permutation, so each result must be a permutation that the exact
    # optimum lower-bounds
    inst = tied_instance(generator(seed), n_choices=range(2, 8), c_choices=(1, 2, 3))
    optima = {}
    for algo, need in cli._ALGORITHMS.items():
        for dist, setdist in itertools.product(cli._DISTANCES, cli._SET_DISTANCES):
            if need.distance not in (None, dist) or need.setdist not in (None, setdist):
                continue
            kind, set_kind = cli._DISTANCES[dist], cli._SET_DISTANCES[setdist]
            if (kind, set_kind) not in optima:
                optima[kind, set_kind] = brute_force(inst, kind, set_kind).value
            result = cli.run_algorithm(algo, inst, kind, set_kind, seed)
            assert isinstance(result.ranking, Permutation), (algo, dist, setdist)
            assert result.objective == minmax_objective(result.ranking, inst, kind, set_kind)
            assert result.objective >= optima[kind, set_kind], (algo, dist, setdist)


@pytest.mark.parametrize("weights, dtype", [
    ((Fraction(1), Fraction(3, 2), Fraction(2, 3)), np.int64),
    # pairwise coprime denominators near 10**12, one per class, put the
    # common scale near 10**36, so the scaled class costs leave int64
    (tuple(Fraction(d + 1, d) for d in range(10**12 + 1, 10**12 + 4)), object),
])
def test_fractions_take_python_int_numerators(weights, dtype):
    # Fraction keeps an np.int64 numerator, and its arithmetic then wraps
    rng = generator(15)
    for ties in (False, True):
        drawn = random_instance(rng, n_choices=(5,), c_choices=(3,), allow_ties=ties)
        # each class takes the next weight, so the dtype does not hang on the draw
        inst = Instance(drawn.n, tuple(
            RankingClass(cls.members, w) for cls, w in zip(drawn.classes, weights)
        ))
        for algo, need in cli._ALGORITHMS.items():
            for dist, setdist in itertools.product(cli._DISTANCES, cli._SET_DISTANCES):
                if need.distance not in (None, dist) or need.setdist not in (None, setdist):
                    continue
                kind = cli._DISTANCES[dist]
                set_kind = cli._SET_DISTANCES[setdist]
                costs, _ = scaled_class_costs(inst.member_tw, inst, kind, set_kind)
                assert costs.dtype == dtype
                result = cli.run_algorithm(algo, inst, kind, set_kind, 0)
                assert type(result.objective.numerator) is int, (algo, dist, setdist)
                opt = minmaxrank.brute_force(inst, kind, set_kind)
                assert type(opt.value.numerator) is int, (dist, setdist)
                assert opt.value <= result.objective


@pytest.mark.parametrize("command", ["aggregate", "exact"])
def test_missing_file_exit_2(command, tmp_path, capsys):
    assert main([command, str(tmp_path / "absent.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text, flags", [
    (GAP_FILE, []),
    ("mouse\t-3 1 -2\nfrog\t2 -1 3\n", ["--gene-orders"]),
])
def test_byte_order_mark_reads_as_plain_file(text, flags, tmp_path, capsys):
    # Windows Notepad starts UTF-8 files with a byte-order mark
    outs = []
    for name, encoding in (("plain.txt", "utf-8"), ("bom.txt", "utf-8-sig")):
        path = tmp_path / name
        path.write_text(text, encoding=encoding)
        assert main(["aggregate", str(path), *flags]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0]
    assert (tmp_path / "bom.txt").read_bytes().startswith(b"\xef\xbb\xbf")


def test_module_entry_prints_usage():
    src = str(Path(minmaxrank.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "minmaxrank.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: minmaxrank")


class TestBenchmark:
    def test_csv_shape_and_determinism(self, tmp_path, capsys):
        argv = ["benchmark", "--n", "5", "--classes", "2", "--per-class", "2",
                "--trials", "2", "--phi1-list", "0.5,0.9", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        out = tmp_path / "bench.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        second = out.read_text(encoding="utf-8")

        def strip_seconds(text):
            rows = []
            for line in text.splitlines():
                if line.startswith("#") or line.startswith("trial"):
                    rows.append(line)
                else:
                    rows.append(",".join(line.split(",")[:4]))
            return rows

        assert strip_seconds(first) == strip_seconds(second)
        lines = first.splitlines()
        assert lines[0] == "trial,phi1,algo,objective,seconds"
        data = [l for l in lines if not l.startswith(("#", "trial"))]
        # one row per (trial, phi1, algo); med-kt mode runs 4 algorithms
        assert len(data) == 2 * 2 * 4
        keys = [tuple(l.split(",")[:3]) for l in data]
        assert keys == sorted(keys)
        assert any(l.startswith("# summary") for l in lines)

    def test_unwritable_out_fails_before_any_trial(self, tmp_path, monkeypatch,
                                                   capsys):
        def no_trials(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_benchmark", no_trials)
        out = tmp_path / "missing" / "x.csv"
        assert main(["benchmark", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "set_flag, dist_flag, digest",
        [
            ("med", "kt",
             "4e645d8797fb9953e834daf855fac7d97d22cda8f452d43546f7779601b38cb0"),
            # 6 of 48 mmsp rows moved (5 lower, 1 higher) when the footrule
            # program became one epigraph column per class and element: it has
            # several optimal vertices, and HiGHS ends on another one; then
            # 6 of 48 mmsp rows moved again (4 higher, 2 lower, +1.0 in
            # all) when it took its segment form, one row per class and one
            # bounded column per gap, started from the pooled median: the
            # optimum is the same, the vertex HiGHS ends on is another
            # (digest was b1b338cc...)
            ("med", "sf",
             "c840bb416dae1f02318dfe40470e375a48f1c96cc0812c7041e88e66f2030588"),
            # 2 of 36 min-mmkt rows moved (4 -> 5 and 5 -> 4) when the Kendall
            # model stopped starting from the disputed-pair triangles; then 1
            # (trial 1, phi1 1.0: 5 -> 4) when it took one column per pair,
            # oriented by pooled wins, and HiGHS ended on another optimal
            # vertex of the witness-restricted program (digest was 26d628bd...);
            # then 3 fell (trial 1, phi1 0.5/0.7/0.9: 6 -> 5, 5 -> 4, 5 -> 4)
            # when HiGHS stopped presolving the Kendall model and so started
            # from sigma's side of every pair (digest was 2bb58fb9...); then 1
            # rose (trial 1, phi1 0.5: 5 -> 6) when strictly unanimous pairs
            # left the model and HiGHS ended on another optimal vertex of the
            # smaller witness-restricted program (digest was 2d12b844...)
            ("min", "kt",
             "5c4d187aec3f0719f7ef982a9807adc1e19d4e6118fb22acbe8164408e86abcd"),
            # 6 of 36 min-mmsp rows moved (5 lower, 1 higher, -10 in all) when
            # the footrule program took its segment form and HiGHS ended on
            # another optimal vertex (digest was 8bc06e89...)
            ("min", "sf",
             "c28da22cb9deac4dc3efaba8f4a5326a93b1f9e6362e039d1d66286859607262"),
        ],
    )
    def test_golden_sweep(self, set_flag, dist_flag, digest):
        # a change that moves any row must update the digest and say why
        rows = run_benchmark(n=8, num_classes=3, per_class=10,
                             phi1_list=[0.5, 0.7, 0.9, 1.0], phi2=0.7, trials=3,
                             seed=0, dist_flag=dist_flag, set_flag=set_flag)
        text = "".join(f"{r.trial},{r.phi1!r},{r.algo},{r.objective!r}\n"
                       for r in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_summary_footer_layout(self):
        rows = run_benchmark(n=4, num_classes=2, per_class=1, phi1_list=[0.5, 0.9],
                             phi2=0.7, trials=2, seed=1)
        text = format_benchmark_csv(rows, [0.5, 0.9], ["mmkt", "pick-rnd",
                                                       "pick-opt", "pivot-baseline"])
        footer = [l for l in text.splitlines() if l.startswith("#")]
        assert footer[1] == "# algo,0.5,0.9"
        assert len(footer) == 2 + 4
