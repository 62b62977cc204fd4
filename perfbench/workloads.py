"""The benchmark's workloads: seeded inputs, one op each, and its output check.

An op's inputs depend only on (seed, op index), so a seed fixes every input.
Ops call the program through module attributes (``aggregators.mmkt_conv``,
not a name imported here), so the tracing wrappers are seen.

Sizes were chosen so that each workload completes a few dozen ops in a
20-second run on a 2-core machine, enough to place the tail latency.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

from minmaxrank import aggregators, cli, exact, mallows
from minmaxrank.distances import DistanceKind, SetDistanceKind
from minmaxrank.rankings import Instance, PartialRanking, RankingClass

from checks import (
    FTOL,
    Oracle,
    check_permutation,
    check_relaxation,
    check_result,
    require,
)

KT = DistanceKind.KENDALL_TAU
SF = DistanceKind.SPEARMAN_FOOTRULE
MED = SetDistanceKind.MEDIAN
MIN = SetDistanceKind.MINIMUM

#: (setdist, distance) -> algorithms: the CLI's default ``benchmark`` sweep
SWEEP_ALGOS = {
    (MED, KT): ("mmkt", "pick-rnd", "pick-opt", "pivot-baseline"),
    (MED, SF): ("mmsp", "pick-rnd", "pick-opt", "matching-baseline"),
    (MIN, KT): ("min-mmkt", "min-pick", "pivot-baseline"),
    (MIN, SF): ("min-mmsp", "min-pick", "matching-baseline"),
}
SWEEP_PHI1 = (0.5, 0.7, 0.9, 1.0)

GENE_FILE = Path(__file__).resolve().parent.parent / "data" / "sample_gene_orders.tsv"
#: relaxation optimum of the mmkt LP on the gene sample (any labelling)
GENE_CERTIFICATE = 253.8675


#: op index of the small warm-up input, outside every op list
WARM_INDEX = 10**6


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


class Workload:
    """One op per input; ``check`` returns the op's objective/bound ratios."""

    name = ""
    pool_size = 48  # inputs made in set-up: about one run's worth
    objective_ops = 16  # fixed op list behind objective_over_bound
    min_ops = 20  # the timed loop runs past --seconds until this many ops
    trace_ops = 4  # fixed op list replayed by the traced run

    def make_input(self, seed: int, i: int):
        raise NotImplementedError

    def warm_input(self, seed: int):
        """A small input that loads every code path the op uses."""
        return self.make_input(seed, 0)

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[float]:
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"
    pool_size = 256
    objective_ops = 64
    trace_ops = 16

    def make_input(self, seed, i):
        # sampled as the CLI's benchmark trial (seed, trial) at one phi1
        trial, phi1 = i // len(SWEEP_PHI1), SWEEP_PHI1[i % len(SWEEP_PHI1)]
        cfg = mallows.TwoLevelConfig.create(10, 3, 10, phi1, 0.7)
        return seed, trial, mallows.sample_instance(cfg, (seed, trial))

    def op(self, inp):
        seed, trial, inst = inp
        out = {}
        for (set_kind, kind), algos in SWEEP_ALGOS.items():
            for idx, algo in enumerate(algos):
                out[set_kind, kind, algo] = cli.run_algorithm(
                    algo, inst, kind, set_kind, seed=(seed, trial, 1000 + idx)
                )
        return out

    def check(self, inp, out):
        oracle = Oracle(inp[2])
        ratios = []
        objectives = {}
        for (set_kind, kind, algo), result in out.items():
            label = f"{algo} {set_kind.value}/{kind.value}"
            obj = check_result(oracle, result, label, kind.positional,
                               set_kind is MIN)
            objectives[set_kind, kind, algo] = obj
            if algo in ("mmkt", "mmsp"):
                ratios.append(check_relaxation(obj, result.certificate, label))
        for set_kind, kind in SWEEP_ALGOS:
            if set_kind is MED:
                best = objectives[set_kind, kind, "pick-opt"]
                drawn = objectives[set_kind, kind, "pick-rnd"]
                require(best <= drawn, f"pick-opt {best} worse than pick-rnd {drawn}")
        return ratios


class LpMallows(Workload):
    name = "lp-mallows"
    n = 40

    def make_input(self, seed, i):
        cfg = mallows.TwoLevelConfig.create(self.n, 3, 10, 0.7, 0.7)
        return seed, i, mallows.sample_instance(cfg, (seed, i))

    def warm_input(self, seed):
        cfg = mallows.TwoLevelConfig.create(8, 3, 10, 0.7, 0.7)
        return seed, WARM_INDEX, mallows.sample_instance(cfg, (seed, WARM_INDEX))

    def op(self, inp):
        seed, i, inst = inp
        return (
            aggregators.mmkt_conv(inst),
            aggregators.mmsp_conv(inst, None, (seed, i)),
            aggregators.min_mmkt_conv(inst),
        )

    def check(self, inp, out):
        oracle = Oracle(inp[2])
        kt, sf, min_kt = out
        ratios = [
            check_relaxation(check_result(oracle, kt, "mmkt", False, False),
                             kt.certificate, "mmkt"),
            check_relaxation(check_result(oracle, sf, "mmsp", True, False),
                             sf.certificate, "mmsp"),
        ]
        check_result(oracle, min_kt, "min-mmkt", False, True)
        return ratios


class LpGene(Workload):
    name = "lp-gene"

    def __init__(self):
        self._rows = []
        for line in GENE_FILE.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.lstrip().startswith("#"):
                name, _, rest = line.partition("\t")
                self._rows.append((name, [int(tok) for tok in rest.split()]))

    def _text(self, rows, seed, i):
        """Gene-order text with block ids relabelled by a seeded bijection.

        Returns the text and each genome's expected order of element ids.
        """
        rng = _rng(seed, i)
        n = len(rows[0][1])
        relabel = rng.permutation(n) + 1
        lines, orders = [], []
        for name, values in rows:
            order = [int(relabel[abs(v) - 1]) for v in values]
            signs = rng.choice((-1, 1), size=n)
            lines.append(name + "\t" + " ".join(str(int(s) * x) for s, x in zip(signs, order)))
            orders.append(order)
        return "\n".join(lines) + "\n", orders

    def make_input(self, seed, i):
        text, orders = self._text(self._rows, seed, i)
        return seed, i, text, orders

    def warm_input(self, seed):
        rows = [(name, [v for v in values if abs(v) <= 6]) for name, values in self._rows[:4]]
        text, orders = self._text(rows, seed, WARM_INDEX)
        return seed, WARM_INDEX, text, orders

    def op(self, inp):
        seed, i, text, _ = inp
        inst = cli.parse_gene_order_file(text).instance
        return (
            inst,
            aggregators.mmkt_conv(inst),
            aggregators.mmsp_conv(inst, None, (seed, i)),
        )

    def check(self, inp, out):
        _, i, _, orders = inp
        inst, kt, sf = out
        for cls, order in zip(inst.classes, orders):
            ranks = [0] * len(order)
            for pos, x in enumerate(order, start=1):
                ranks[x - 1] = pos
            require(list(cls.members[0].ranks) == ranks,
                    "parsed genome differs from the written gene order")
        require(len(inst.classes) == len(orders), "parsed genome count differs")
        oracle = Oracle(inst)
        ratios = [
            check_relaxation(check_result(oracle, kt, "mmkt", False, False),
                             kt.certificate, "mmkt"),
            check_relaxation(check_result(oracle, sf, "mmsp", True, False),
                             sf.certificate, "mmsp"),
        ]
        if i != WARM_INDEX:
            require(abs(kt.certificate - GENE_CERTIFICATE) <= 0.01,
                    f"mmkt certificate {kt.certificate} != {GENE_CERTIFICATE}")
        return ratios


class OracleTies(Workload):
    name = "oracle-ties"
    pool_size = 160
    objective_ops = 96
    trace_ops = 8
    n = 7
    num_classes = 3
    per_class = 4
    weights = (Fraction(1), Fraction(3, 2), Fraction(2, 3), Fraction(5, 4),
               Fraction(1, 2), Fraction(7, 4))

    def _instance(self, rng, n):
        picks = rng.choice(len(self.weights), size=self.num_classes, replace=False)
        classes = []
        for k in picks:
            members = []
            for _ in range(self.per_class):
                order = [int(x) + 1 for x in rng.permutation(n)]
                while True:
                    sizes = []
                    while sum(sizes) < n:
                        sizes.append(int(rng.integers(1, 4)))
                    sizes[-1] -= sum(sizes) - n
                    if max(sizes) > 1:  # at least one tie per member
                        break
                cuts = np.cumsum([0] + sizes)
                members.append(PartialRanking.from_buckets(
                    order[a:b] for a, b in zip(cuts[:-1], cuts[1:])
                ))
            classes.append(RankingClass(tuple(members), self.weights[k]))
        return Instance(n, tuple(classes))

    def make_input(self, seed, i):
        return seed, i, self._instance(_rng(seed, i), self.n)

    def warm_input(self, seed):
        return seed, WARM_INDEX, self._instance(_rng(seed, WARM_INDEX), 4)

    def op(self, inp):
        seed, i, inst = inp
        text = cli.write_instance_file(inst)
        parsed = cli.parse_instance_file(text).instance
        return (
            parsed,
            aggregators.mmkt_conv(parsed),
            aggregators.min_mmsp_conv(parsed, None, (seed, i)),
            exact.brute_force(parsed, DistanceKind.KEMENY, MED),
            exact.brute_force(parsed, DistanceKind.PARTIAL_FOOTRULE, MIN),
            exact.lp_gap(parsed, DistanceKind.KEMENY),
        )

    def check(self, inp, out):
        parsed, kt, min_sf, opt_kt, opt_sf, gap = out
        require(parsed == inp[2], "instance changed in the write/parse round trip")
        oracle = Oracle(parsed)
        kt_obj = check_result(oracle, kt, "mmkt", False, False)
        check_relaxation(kt_obj, kt.certificate, "mmkt")
        sf_obj = check_result(oracle, min_sf, "min-mmsp", True, True)
        ratios = []
        for label, obj, opt, positional, minimum, factor in (
            ("mmkt", kt_obj, opt_kt, False, False, 2),
            ("min-mmsp", sf_obj, opt_sf, True, True, 4),
        ):
            check_permutation(opt.ranking, parsed.n, f"brute_force/{label}")
            recomputed = oracle.objective(opt.ranking, positional, minimum)
            require(opt.value == recomputed,
                    f"brute_force/{label}: value {opt.value} != recomputed {recomputed}")
            require(opt.value <= obj,
                    f"{label}: objective {obj} below the optimum {opt.value}")
            require(obj <= factor * opt.value,
                    f"{label}: objective {obj} above {factor} x optimum {opt.value}")
            ratios.append(float(obj / opt.value) if opt.value else 1.0)
        require(kt.certificate <= float(opt_kt.value) + FTOL,
                f"certificate {kt.certificate} above the optimum {opt_kt.value}")
        if kt.certificate > FTOL:
            expected = float(opt_kt.value) / kt.certificate
            require(abs(gap - expected) <= FTOL * max(1.0, expected),
                    f"lp_gap {gap} != optimum / certificate {expected}")
        return ratios


WORKLOADS = {w.name: w for w in (Sweep, LpMallows, LpGene, OracleTies)}
