"""Command-line front end: ingestion, aggregation runs, benchmarks, oracle.

Instance files are line-oriented UTF-8 text.  ``#`` starts a comment line,
an optional ``elements:`` line pre-registers element names (written by the
serializer so files round-trip), and each data line reads

    class=<id> lambda=<weight> : token token { tied tokens } token ...

listing one ranking best-to-worst, with tie groups in braces.  Element
names are mapped to 1..n in first-seen order; every line must cover the
same ground set, and all lines of a class must carry the same weight.

Gene-order files have one genome per line: a name, a tab, and a signed
permutation of 1..n.  Signs are stripped and each genome becomes its own
singleton class with weight 1.

Exit codes: 0 success, 2 usage error, parse error, unreadable file or
unwritable ``benchmark --out`` path, 3 incompatible flags, 4 instance too
large for exact enumeration, 5 the LP solver rejected or failed on the
program.  Apart from argparse's usage errors, ``main`` is the one place
where an error becomes an exit code: the ``_EXIT_CODES`` table maps each
exception type to its code.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import itertools
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import aggregators, exact, lp
from .distances import DistanceKind, SetDistanceKind, scaled_class_costs
from .mallows import TwoLevelConfig, sample_instance
from .rankings import (
    Instance,
    PartialRanking,
    Permutation,
    Ranking,
    RankingClass,
    as_partial,
    twice_positions,
)


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


@dataclass(frozen=True)
class ParsedFile:
    instance: Instance
    element_names: tuple[str, ...]
    class_ids: tuple[str, ...]


def _tokenize_ranking(text: str, line_no: int) -> list[list[str]]:
    """Split a ranking clause into bucket token groups."""
    tokens = text.replace("{", " { ").replace("}", " } ").split()
    buckets: list[list[str]] = []
    group: list[str] | None = None
    for tok in tokens:
        if tok == "{":
            if group is not None:
                raise ParseError(line_no, "nested '{'")
            group = []
        elif tok == "}":
            if group is None:
                raise ParseError(line_no, "unmatched '}'")
            if not group:
                raise ParseError(line_no, "empty tie group")
            buckets.append(group)
            group = None
        elif group is not None:
            group.append(tok)
        else:
            buckets.append([tok])
    if group is not None:
        raise ParseError(line_no, "unclosed '{'")
    if not buckets:
        raise ParseError(line_no, "empty ranking")
    return buckets


def parse_instance_file(text: str) -> ParsedFile:
    names: dict[str, int] = {}

    def element_id(name: str) -> int:
        if name not in names:
            names[name] = len(names) + 1
        return names[name]

    entries: list[tuple[int, str, Fraction, list[list[int]]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("elements:"):
            for name in line[len("elements:"):].split():
                element_id(name)
            continue
        head, sep, ranking_part = line.partition(":")
        if not sep:
            raise ParseError(line_no, "missing ':' before ranking")
        fields = head.split()
        if len(fields) != 2 or not fields[0].startswith("class=") or not fields[
            1
        ].startswith("lambda="):
            raise ParseError(line_no, "expected 'class=<id> lambda=<weight> :'")
        class_id = fields[0][len("class="):]
        if not class_id:
            raise ParseError(line_no, "empty class id")
        try:
            weight = Fraction(fields[1][len("lambda="):])
        except (ValueError, ZeroDivisionError):
            raise ParseError(line_no, f"bad lambda {fields[1]!r}")
        if weight <= 0:
            raise ParseError(line_no, "lambda must be positive")
        try:
            in_range = float(weight) > 0
        except OverflowError:
            in_range = False
        if not in_range:
            raise ParseError(line_no, f"{fields[1]!r} is outside float64 range")
        buckets = [
            [element_id(tok) for tok in group]
            for group in _tokenize_ranking(ranking_part, line_no)
        ]
        flat = [x for b in buckets for x in b]
        if len(set(flat)) != len(flat):
            raise ParseError(line_no, "element repeated within a ranking")
        entries.append((line_no, class_id, weight, buckets))

    if not entries:
        raise ParseError(0, "no rankings in file")
    n = len(names)
    for line_no, _, _, buckets in entries:
        covered = {x for b in buckets for x in b}
        if len(covered) != n:
            raise ParseError(
                line_no, f"ranking covers {len(covered)} of {n} elements"
            )
    # no distance of any kind exceeds n^2/2, so this bounds every class cost
    for line_no, _, weight, _ in entries:
        try:
            float(weight * n * n / 2)
        except OverflowError:
            raise ParseError(
                line_no,
                f"lambda={_format_weight(weight)} times n^2/2 (n={n}) "
                "is outside float64 range",
            )

    by_class: dict[str, list[tuple[int, Fraction, list[list[int]]]]] = {}
    for line_no, class_id, weight, buckets in entries:
        by_class.setdefault(class_id, []).append((line_no, weight, buckets))

    classes = []
    for class_id, rows in by_class.items():
        weight = rows[0][1]
        for line_no, w, _ in rows[1:]:
            if w != weight:
                raise ParseError(
                    line_no, f"class {class_id} has inconsistent lambda"
                )
        tied = any(any(len(b) > 1 for b in buckets) for _, _, buckets in rows)
        members: list[Ranking] = []
        for _, _, buckets in rows:
            if tied:
                members.append(PartialRanking.from_buckets(buckets))
            else:
                members.append(Permutation.from_order([b[0] for b in buckets]))
        classes.append(RankingClass(tuple(members), weight))

    # ids were given in first-seen order, so the keys are already sorted by id
    return ParsedFile(Instance(n, tuple(classes)), tuple(names), tuple(by_class))


def _format_weight(w: Fraction) -> str:
    decimal = repr(float(w))
    return decimal if Fraction(decimal) == w else str(w)


def _format_ranking(ranking: Ranking, names: Sequence[str]) -> str:
    """Names best to worst, with each tie group in braces."""
    parts = []
    for bucket in as_partial(ranking).buckets:
        toks = [names[x - 1] for x in sorted(bucket)]
        parts.append(toks[0] if len(toks) == 1 else "{ %s }" % " ".join(toks))
    return " ".join(parts)


def _check_labels(what: str, labels: Sequence[str], count: int, banned: str) -> None:
    if len(labels) != count:
        raise ValueError(f"{len(labels)} {what}s given for {count}")
    seen = set()
    for label in labels:
        if label in seen:
            raise ValueError(f"duplicate {what} {label!r}")
        if not label or any(ch.isspace() or ch in banned for ch in label):
            raise ValueError(f"{what} {label!r} is empty or holds whitespace or "
                             f"one of {' '.join(banned)}")
        seen.add(label)


def write_instance_file(
    inst: Instance,
    element_names: tuple[str, ...] | None = None,
    class_ids: tuple[str, ...] | None = None,
) -> str:
    """Serialize so parsing gives the instance back; bad labels raise ValueError."""
    if element_names is None:
        element_names = tuple(str(x) for x in range(1, inst.n + 1))
    if class_ids is None:
        class_ids = tuple(str(k) for k in range(1, inst.num_classes + 1))
    _check_labels("element name", element_names, inst.n, "{}")
    _check_labels("class id", class_ids, inst.num_classes, "{}:")
    lines = ["elements: " + " ".join(element_names)]
    for k, cls in enumerate(inst.classes):
        for member in cls.members:
            lines.append(
                f"class={class_ids[k]} lambda={_format_weight(cls.weight)} : "
                + _format_ranking(member, element_names)
            )
    return "\n".join(lines) + "\n"


def parse_gene_order_file(text: str) -> ParsedFile:
    """Signed gene arrangements, one genome per line, as singleton classes."""
    rows: list[tuple[int, str, list[int]]] = []
    n = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, sep, rest = line.partition("\t")
        if not sep:
            raise ParseError(line_no, "expected '<name><TAB><signed integers>'")
        try:
            values = [abs(int(tok)) for tok in rest.split()]
        except ValueError:
            raise ParseError(line_no, "gene order must be signed integers")
        if n is None:
            n = len(values)
        if len(values) != n or sorted(values) != list(range(1, n + 1)):
            raise ParseError(
                line_no, f"gene order is not a signed permutation of 1..{n}"
            )
        rows.append((line_no, name.strip(), values))
    if not rows:
        raise ParseError(0, "no genomes in file")
    classes = tuple(
        RankingClass((Permutation.from_order(values),), Fraction(1))
        for _, _, values in rows
    )
    names = tuple(str(x) for x in range(1, n + 1))
    return ParsedFile(Instance(n, classes), names, tuple(r[1] for r in rows))


# ---------------------------------------------------------------------------
# commands

_DISTANCES = {"kt": DistanceKind.KENDALL_TAU, "sf": DistanceKind.SPEARMAN_FOOTRULE}
_SET_DISTANCES = {"med": SetDistanceKind.MEDIAN, "min": SetDistanceKind.MINIMUM}

class _Algorithm(NamedTuple):
    distance: str | None  # required --distance flag, or None for any
    setdist: str | None  # required --setdist flag, or None for any
    # run(inst, kind, set_kind, seed); it looks the function up on the
    # aggregators module at call time, so a replaced module attribute is the
    # one called
    run: Callable[..., aggregators.AggregationResult]


_ALGORITHMS = {
    "mmkt": _Algorithm("kt", "med", lambda i, k, s, r: aggregators.mmkt_conv(i, k)),
    "mmsp": _Algorithm("sf", "med", lambda i, k, s, r: aggregators.mmsp_conv(i, k, r)),
    "pick-rnd": _Algorithm(
        None, None, lambda i, k, s, r: aggregators.pick_rnd_perm(i, k, s, r)
    ),
    "pick-opt": _Algorithm(
        None, None, lambda i, k, s, r: aggregators.pick_opt_perm(i, k, s)
    ),
    "min-pick": _Algorithm(
        None, "min", lambda i, k, s, r: aggregators.min_pick_perm(i, k)
    ),
    "min-mmkt": _Algorithm(
        "kt", "min", lambda i, k, s, r: aggregators.min_mmkt_conv(i, k)
    ),
    "min-mmsp": _Algorithm(
        "sf", "min", lambda i, k, s, r: aggregators.min_mmsp_conv(i, k, r)
    ),
    "pivot-baseline": _Algorithm(
        None, None, lambda i, k, s, r: aggregators.median_pivot_baseline(i, r, k, s)
    ),
    "matching-baseline": _Algorithm(
        None, None,
        lambda i, k, s, r: aggregators.median_footrule_matching_baseline(i, k, s),
    ),
}


def run_algorithm(
    algo: str, inst: Instance, kind: DistanceKind, set_kind: SetDistanceKind, seed=None
) -> aggregators.AggregationResult:
    if algo not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    return _ALGORITHMS[algo].run(inst, kind, set_kind, seed)


class IncompatibleFlags(ValueError):
    """The algorithm needs another --distance or --setdist."""


def _check_compatible(algo: str, dist_flag: str, set_flag: str) -> None:
    need = _ALGORITHMS[algo]
    for flag, given, needed in (("distance", dist_flag, need.distance),
                                ("setdist", set_flag, need.setdist)):
        if needed is not None and given != needed:
            raise IncompatibleFlags(f"algorithm {algo} requires --{flag} {needed}")


def _read_parsed(path: str, gene_orders: bool) -> ParsedFile:
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    return parse_gene_order_file(text) if gene_orders else parse_instance_file(text)


def _fmt_rational(value: Fraction) -> str:
    return f"{value} ({float(value):g})"


def cmd_aggregate(args) -> int:
    _check_compatible(args.algo, args.distance, args.setdist)
    parsed = _read_parsed(args.file, args.gene_orders)
    inst = parsed.instance
    kind = _DISTANCES[args.distance]
    set_kind = _SET_DISTANCES[args.setdist]
    result = run_algorithm(args.algo, inst, kind, set_kind, args.seed)
    print(f"algorithm: {args.algo}")
    print(f"distance: {kind.value}  setdist: {set_kind.value}")
    print("ranking: " + _format_ranking(result.ranking, parsed.element_names))
    print(f"objective: {_fmt_rational(result.objective)}")
    rows = twice_positions([result.ranking])
    costs, scale = scaled_class_costs(rows, inst, kind, set_kind)
    for class_id, cls, cost in zip(parsed.class_ids, inst.classes, costs[0].tolist()):
        weighted = Fraction(cost, scale)
        print(
            f"class {class_id}: weight={_format_weight(cls.weight)} "
            f"cost={_fmt_rational(weighted / cls.weight)} "
            f"weighted={_fmt_rational(weighted)}"
        )
    if result.certificate is not None:
        print(f"certificate: {result.certificate:.6f}")
    return 0


def cmd_exact(args) -> int:
    parsed = _read_parsed(args.file, args.gene_orders)
    inst = parsed.instance
    kind = _DISTANCES[args.distance]
    set_kind = _SET_DISTANCES[args.setdist]
    opt = exact.brute_force(inst, kind, set_kind, n_limit=args.n_limit)
    # the gap comes first, so a solver failure leaves stdout empty
    median = set_kind is SetDistanceKind.MEDIAN
    gap = exact.relaxation_gap(inst, kind, opt.value) if median else None
    print(f"n: {inst.n}")
    print(f"W: {_fmt_rational(opt.value)}")
    print("optimal: " + _format_ranking(opt.ranking, parsed.element_names))
    if median:
        print(f"lp-gap: {gap:.6f}")
    return 0


_BENCH_ALGOS = {
    ("med", "kt"): ["mmkt", "pick-rnd", "pick-opt", "pivot-baseline"],
    ("med", "sf"): ["mmsp", "pick-rnd", "pick-opt", "matching-baseline"],
    ("min", "kt"): ["min-mmkt", "min-pick", "pivot-baseline"],
    ("min", "sf"): ["min-mmsp", "min-pick", "matching-baseline"],
}


@dataclass(frozen=True)
class BenchmarkRow:
    trial: int
    phi1: float
    algo: str
    objective: float
    seconds: float


def _run_trial(
    n, num_classes, per_class, phi2, seed, algos, dist_flag, set_flag, point
) -> list[BenchmarkRow]:
    trial, phi1 = point
    cfg = TwoLevelConfig.create(n, num_classes, per_class, phi1, phi2)
    # keyed by (seed, trial) only: the same uniform stream serves every phi1,
    # coupling the sweeps and letting workers reproduce the serial run
    inst = sample_instance(cfg, (seed, trial))
    kind = _DISTANCES[dist_flag]
    set_kind = _SET_DISTANCES[set_flag]
    rows = []
    for algo_idx, algo in enumerate(algos):
        start = time.perf_counter()
        result = run_algorithm(
            algo, inst, kind, set_kind, seed=(seed, trial, 1000 + algo_idx)
        )
        rows.append(
            BenchmarkRow(
                trial,
                phi1,
                algo,
                float(result.objective),
                time.perf_counter() - start,
            )
        )
    return rows


def run_benchmark(
    n: int,
    num_classes: int,
    per_class: int,
    phi1_list: list[float],
    phi2: float,
    trials: int,
    seed: int,
    dist_flag: str = "kt",
    set_flag: str = "med",
    workers: int = 1,
) -> list[BenchmarkRow]:
    """Run the two-level Mallows sweep; rows sorted by (trial, phi1, algo)."""
    algos = _BENCH_ALGOS[(set_flag, dist_flag)]
    run = functools.partial(
        _run_trial, n, num_classes, per_class, phi2, seed, algos, dist_flag, set_flag
    )
    points = itertools.product(range(trials), phi1_list)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run, points))
    else:
        chunks = list(map(run, points))
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.trial, r.phi1, r.algo))
    return rows


def format_benchmark_csv(rows: list[BenchmarkRow], phi1_list, algos) -> str:
    out = ["trial,phi1,algo,objective,seconds"]
    for r in rows:
        out.append(f"{r.trial},{r.phi1:g},{r.algo},{r.objective:.6f},{r.seconds:.4f}")
    out.append("# summary: objective mean (std)")
    out.append("# algo," + ",".join(f"{p:g}" for p in phi1_list))
    for algo in algos:
        cells = []
        for phi1 in phi1_list:
            vals = [r.objective for r in rows if r.algo == algo and r.phi1 == phi1]
            mean = statistics.fmean(vals)
            std = statistics.stdev(vals) if len(vals) > 1 else 0.0
            cells.append(f"{mean:.4f} ({std:.4f})")
        out.append(f"# {algo}," + ",".join(cells))
    return "\n".join(out) + "\n"


def cmd_benchmark(args) -> int:
    algos = _BENCH_ALGOS[(args.setdist, args.distance)]
    # opened first, so an unwritable path fails before any trial runs
    with (
        open(args.out, "w", encoding="utf-8")
        if args.out
        else contextlib.nullcontext(sys.stdout)
    ) as out:
        rows = run_benchmark(
            args.n, args.classes, args.per_class, args.phi1_list, args.phi2,
            args.trials, args.seed, args.distance, args.setdist, args.workers,
        )
        out.write(format_benchmark_csv(rows, args.phi1_list, algos))
    return 0


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)


def _dispersion(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return value


def _dispersion_list(text: str) -> list[float]:
    values = [_dispersion(tok) for tok in text.split(",") if tok]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmaxrank",
        description="Multiclass minmax rank aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags shared by the two commands that read an instance file
    file_flags = argparse.ArgumentParser(add_help=False)
    file_flags.add_argument("file")
    file_flags.add_argument("--distance", choices=sorted(_DISTANCES), default="kt")
    file_flags.add_argument("--setdist", choices=sorted(_SET_DISTANCES), default="med")
    file_flags.add_argument("--gene-orders", action="store_true",
                            help="parse the file as signed gene orders")

    agg = sub.add_parser("aggregate", parents=[file_flags],
                         help="aggregate a ranking instance file")
    agg.add_argument("--algo", choices=sorted(_ALGORITHMS), default="mmkt")
    agg.add_argument("--seed", type=_seed, default=0)
    agg.set_defaults(func=cmd_aggregate)

    ben = sub.add_parser("benchmark", help="two-level Mallows benchmark sweep")
    ben.add_argument("--n", type=_positive_int, default=10)
    ben.add_argument("--classes", type=_positive_int, default=3)
    ben.add_argument("--per-class", type=_positive_int, default=10)
    ben.add_argument("--phi1-list", type=_dispersion_list, default="0.5,0.7,0.9,1.0")
    ben.add_argument("--phi2", type=_dispersion, default=0.7)
    ben.add_argument("--trials", type=_positive_int, default=100)
    ben.add_argument("--seed", type=_seed, default=0)
    ben.add_argument("--distance", choices=sorted(_DISTANCES), default="kt")
    ben.add_argument("--setdist", choices=sorted(_SET_DISTANCES), default="med")
    ben.add_argument("--workers", type=_positive_int, default=1)
    ben.add_argument("--out", default=None)
    ben.set_defaults(func=cmd_benchmark)

    exa = sub.add_parser("exact", parents=[file_flags],
                         help="brute-force optimum (small instances)")
    exa.add_argument("--n-limit", type=_positive_int, default=8)
    exa.set_defaults(func=cmd_exact)

    return parser


# the exit code of each error a command may end in
_EXIT_CODES = {
    ParseError: 2,
    OSError: 2,
    UnicodeDecodeError: 2,
    IncompatibleFlags: 3,
    exact.TooLarge: 4,
    lp.SolverError: 5,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
