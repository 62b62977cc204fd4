"""Spans around the program's public functions, recorded from outside.

Each layer is a set of functions, wrapped under the names their callers look
up (``minmaxrank.aggregators.solve`` is the name ``mmkt_conv`` calls), so
nothing under ``src/`` changes.  A wrapped name that the program no longer
has is reported as absent.  Spans are kept in memory; a layer's self time is
its spans' durations minus the parts their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

#: layer -> functions as (module[:class], attribute)
LAYERS = {
    "cli.parse": [("minmaxrank.cli", "parse_instance_file"),
                  ("minmaxrank.cli", "parse_gene_order_file")],
    "cli.write": [("minmaxrank.cli", "write_instance_file")],
    "mallows.sample": [("minmaxrank.mallows", "sample_instance")],
    "rankings.convert": [("minmaxrank.rankings:Permutation", "from_order"),
                         ("minmaxrank.rankings:Permutation", "inverse"),
                         ("minmaxrank.rankings:Permutation", "to_partial")],
    "distances.pair": [("minmaxrank.distances", "kendall_tau"),
                       ("minmaxrank.distances", "spearman_footrule"),
                       ("minmaxrank.distances", "kemeny"),
                       ("minmaxrank.distances", "partial_footrule")],
    "distances.objective": [("minmaxrank.aggregators", "minmax_objective"),
                            ("minmaxrank.distances", "set_distance")],
    "lp.weights": [("minmaxrank.lp", "pairwise_weights"),
                   ("minmaxrank.lp", "tie_mass")],
    "lp.build": [("minmaxrank.aggregators", "build_kendall_lp"),
                 ("minmaxrank.aggregators", "build_footrule_program"),
                 ("minmaxrank.exact", "build_kendall_lp"),
                 ("minmaxrank.exact", "build_footrule_program")],
    "lp.solve": [("minmaxrank.aggregators", "solve"),
                 ("minmaxrank.exact", "solve")],
    "lp.highs": [("minmaxrank.lp", "linprog")],
    "aggregators.pivot": [("minmaxrank.aggregators", "pivot_rounding")],
    "aggregators.sort_round": [("minmaxrank.aggregators", "positions_to_order")],
    "aggregators.restrict": [("minmaxrank.aggregators", "restrict_to_min_witnesses")],
    "aggregators.select": [("minmaxrank.aggregators", "pick_rnd_perm"),
                           ("minmaxrank.aggregators", "pick_opt_perm"),
                           ("minmaxrank.aggregators", "min_pick_perm")],
    "aggregators.baseline": [("minmaxrank.aggregators", "median_pivot_baseline"),
                             ("minmaxrank.aggregators",
                              "median_footrule_matching_baseline")],
    "exact.brute_force": [("minmaxrank.exact", "brute_force")],
    "exact.lp_gap": [("minmaxrank.exact", "lp_gap")],
}

#: layers whose spans run while inputs are made, outside every op
SETUP_LAYERS = ("mallows.sample",)

#: counter -> (module, attribute) of an iterator whose items are counted
ITEM_COUNTERS = {"exact.perms": ("minmaxrank.exact", "permutations")}


def _highs_counts(tracer, args, kwargs, result):
    """LP size and iterations, read from the linprog call as lp.py makes it."""
    bound = tracer.linprog_signature.bind(*args, **kwargs).arguments
    rows = nnz = 0
    for name in ("A_ub", "A_eq"):
        a = bound.get(name)
        if a is not None:
            rows += a.shape[0]
            nnz += a.nnz if hasattr(a, "nnz") else int((a != 0).sum())
    tracer.counts["lp.rows"] += rows
    tracer.counts["lp.cols"] += len(bound["c"])
    tracer.counts["lp.nnz"] += nnz
    tracer.counts["lp.highs_nit"] += int(getattr(result, "nit", 0))


def _pivot_counts(tracer, args, kwargs, result):
    tracer.counts["aggregators.pivot_levels"] += len(result[1])


HOOKS = {
    ("minmaxrank.lp", "linprog"): _highs_counts,
    ("minmaxrank.aggregators", "pivot_rounding"): _pivot_counts,
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs the wrappers, records spans, and restores the program."""

    def __init__(self):
        self.spans: list = []  # (layer, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.op = None  # id of the running op; None while inputs are made
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []
        from scipy.optimize import linprog

        self.linprog_signature = inspect.signature(linprog)

    def _span_wrapper(self, layer, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None and tracer.op is not None:
                    hook(tracer, args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, tracer.op)

        wrapper.__wrapped__ = fn
        return wrapper

    def _item_wrapper(self, counter, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.op is not None:
                    tracer.counts[counter] += 1
                yield item

        return wrapper

    def _replace(self, path, attr, make):
        try:
            owner = _owner(path)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{path}.{attr}")
            return
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for path, attr in targets:
                hook = HOOKS.get((path, attr))
                self._replace(path, attr,
                              lambda fn: self._span_wrapper(layer, fn, hook))
        for counter, (path, attr) in ITEM_COUNTERS.items():
            self._replace(path, attr, lambda fn: self._item_wrapper(counter, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def layer_totals(spans, factors: dict) -> tuple[dict, float]:
    """Per layer [calls, self time] over op spans, plus their root time.

    Each op's times are scaled by ``factors[op]``.  Spans made while inputs
    were made (op id None) count only for the set-up layers, which run
    nowhere else; they are scaled by the mean factor.
    """
    child = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    setup_factor = sum(factors.values()) / len(factors) if factors else 1.0
    totals = {layer: [0, 0.0] for layer in LAYERS}
    root = 0.0
    for i, (layer, start, end, parent, op) in enumerate(spans):
        if (op is None) != (layer in SETUP_LAYERS):
            continue
        factor = setup_factor if op is None else factors[op]
        totals[layer][0] += 1
        totals[layer][1] += ((end - start) - child[i]) * factor
        if parent < 0 and op is not None:
            root += (end - start) * factor
    return totals, root


def layer_metrics(totals: dict, counts: Counter, untraced_s: float,
                  wall_s: float, overhead: float, ops: int) -> dict:
    """The per-layer metrics, each per op of the traced run."""
    def calls(layer):
        return totals[layer][0] / ops

    def self_s(layer):
        return totals[layer][1] / ops

    return {
        "cli.parse_calls": calls("cli.parse"),
        "cli.parse_s": self_s("cli.parse"),
        "cli.write_s": self_s("cli.write"),
        "mallows.sample_calls": calls("mallows.sample"),
        "mallows.sample_s": self_s("mallows.sample"),
        "rankings.convert_calls": calls("rankings.convert"),
        "rankings.convert_s": self_s("rankings.convert"),
        "distances.pair_calls": calls("distances.pair"),
        "distances.pair_s": self_s("distances.pair"),
        "distances.objective_calls": calls("distances.objective"),
        "distances.objective_s": self_s("distances.objective"),
        "lp.build_calls": calls("lp.build"),
        "lp.build_s": self_s("lp.build"),
        "lp.weights_s": self_s("lp.weights"),
        "lp.solve_self_s": self_s("lp.solve"),
        "lp.highs_calls": calls("lp.highs"),
        "lp.highs_s": self_s("lp.highs"),
        "lp.highs_nit": counts["lp.highs_nit"] / ops,
        "lp.rows": counts["lp.rows"] / ops,
        "lp.cols": counts["lp.cols"] / ops,
        "lp.nnz": counts["lp.nnz"] / ops,
        "aggregators.pivot_s": self_s("aggregators.pivot"),
        "aggregators.pivot_levels": counts["aggregators.pivot_levels"] / ops,
        "aggregators.sort_round_s": self_s("aggregators.sort_round"),
        "aggregators.restrict_s": self_s("aggregators.restrict"),
        "aggregators.select_s": self_s("aggregators.select"),
        "aggregators.baseline_s": self_s("aggregators.baseline"),
        "exact.brute_force_calls": calls("exact.brute_force"),
        "exact.brute_force_s": self_s("exact.brute_force"),
        "exact.perms": counts["exact.perms"] / ops,
        "exact.lp_gap_s": self_s("exact.lp_gap"),
        "trace.untraced_s": untraced_s / ops,
        "trace.wall_s": wall_s / ops,
        "trace.overhead": overhead,
    }
