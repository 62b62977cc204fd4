"""minmaxrank benchmark: one client, closed loop, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

With ``--trace 0`` the run times ops for ``--seconds`` seconds and reports the
end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it replays a
fixed seeded op list untraced and then traced, and reports the per-layer
metrics.  The last line of standard output is one JSON object.  ``all`` runs
each workload in its own process, in turn, and prints every end-to-end
metric.  See perfbench/README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_program() -> float:
    """Import minmaxrank from this checkout's ``src``; returns seconds taken."""
    src = ROOT / "src"
    if not (src / "minmaxrank" / "__init__.py").is_file():
        raise SystemExit(f"error: no minmaxrank sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import minmaxrank
    import minmaxrank.cli  # noqa: F401  (the CLI layer loads with the package)

    elapsed = time.perf_counter() - start
    if Path(minmaxrank.__file__).resolve().parent != (src / "minmaxrank").resolve():
        raise SystemExit(f"error: imported minmaxrank from {minmaxrank.__file__}")
    return elapsed


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


class Outcome:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, workload, inp, tracer=None, op_id=None):
        """Run and check one op; returns (seconds, ratios), or None on failure.

        With a tracer, spans made during the op carry ``op_id``.
        """
        from checks import CheckFailed

        self.attempted += 1
        try:
            if tracer is not None:
                tracer.op = op_id
            try:
                start = time.perf_counter()
                out = workload.op(inp)
                elapsed = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.op = None
            ratios = workload.check(inp, out)
        except CheckFailed as err:
            self._fail(f"check failed: {err}")
            return None
        except Exception:  # an op must not stop the run; it counts as failed
            self._fail("op raised:\n" + traceback.format_exc())
            return None
        return elapsed, ratios

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)
            print(message, file=sys.stderr)


def set_up(workload, seed: int, count: int, outcome: Outcome) -> list:
    """Make inputs ``0..count-1`` and warm every code path the op uses.

    The warm-up op is checked like any other and counts in ``outcome``.
    """
    inputs = [workload.make_input(seed, i) for i in range(count)]
    outcome.run(workload, workload.warm_input(seed))
    return inputs


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency with ten samples beyond it, and its percentile.

    With ten samples or fewer there is no such latency; the maximum is given.
    """
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timed_run(workload, seed: int, seconds: float, import_s: float,
              min_ops: int | None = None, objective_ops: int | None = None):
    """End-to-end metrics of a closed loop, times in reference seconds.

    Op ``i`` runs on input ``i``: the first ``pool_size`` are made in
    set-up, later ones (untimed) as the loop reaches them, so no input
    repeats.  The loop runs for ``seconds`` and at least ``min_ops`` ops.
    ``objective_over_bound`` covers the fixed ops ``0..objective_ops-1``,
    finished untimed if the loop stops before them.
    """
    import resource

    from speed import REF_KERNEL_S, Meter

    min_ops = workload.min_ops if min_ops is None else min_ops
    objective_ops = workload.objective_ops if objective_ops is None else objective_ops
    meter = Meter()
    import_ref = import_s * REF_KERNEL_S / meter.last  # kernel right after import
    outcome = Outcome()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool = set_up(workload, seed, workload.pool_size, outcome)
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * meter.factor())

    latencies: list[float] = []
    raw: list[float] = []
    ratios: list[float] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        inp = pool[i] if i < len(pool) else workload.make_input(seed, i)
        done = outcome.run(workload, inp)
        factor = meter.factor()
        if done is not None:
            raw.append(done[0])
            latencies.append(done[0] * factor)
            if i < objective_ops:
                ratios.extend(done[1])
        i += 1
    for j in range(i, objective_ops):
        done = outcome.run(workload, workload.make_input(seed, j))
        if done is not None:
            ratios.extend(done[1])

    metrics = {"setup_s": import_ref + statistics.median(setups)}
    notes = {"setup_s": f"import {import_ref:.3f} + median of set-ups "
                        + ", ".join(f"{x:.3f}" for x in setups)
                        + f"; wall {import_s + statistics.median(raw_setups):.3f} s"}
    if latencies:
        tail_s, pct = tail(latencies)
        metrics["ops_per_s"] = len(latencies) / sum(latencies)
        metrics["op_ms_p50"] = 1000 * statistics.median(latencies)
        metrics["op_ms_tail"] = 1000 * tail_s
        notes["ops_per_s"] = f"{len(latencies)} ops; wall {len(raw) / sum(raw):.4g} 1/s"
        notes["op_ms_p50"] = f"wall {1000 * statistics.median(raw):.4g} ms"
        notes["op_ms_tail"] = f"p{pct:.1f} of {len(latencies)} ops; wall {1000 * tail(raw)[0]:.4g} ms"
    if ratios:
        metrics["objective_over_bound"] = statistics.fmean(ratios)
        notes["objective_over_bound"] = (
            f"mean of {len(ratios)} ratios over ops 0..{objective_ops - 1}")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, notes, outcome


def traced_run(workload, seed: int, seconds: float, trace_ops: int | None = None):
    """Per-layer metrics from replays of the fixed op list ``0..trace_ops-1``.

    Untraced passes run until a third of ``seconds`` has passed, then as many
    traced passes; their time ratio is the tracing overhead.  Every metric
    is per op, and times are in reference seconds, each op's spans scaled by
    the kernels timed around that op.  Returns the metrics, the tracer
    (holding the last pass's spans) and the outcome.
    """
    from collections import Counter

    from speed import Meter
    from tracing import LAYERS, Tracer, layer_metrics, layer_totals

    ops = workload.trace_ops if trace_ops is None else trace_ops
    outcome = Outcome()
    set_up(workload, seed, 0, outcome)
    tracer = Tracer()
    meter = Meter()

    def one_pass() -> tuple[float, dict]:
        """Reference seconds of the pass's ops, and each op's factor."""
        total, factors = 0.0, {}
        for i in range(ops):
            done = outcome.run(workload, workload.make_input(seed, i), tracer, i)
            factors[i] = meter.factor()
            if done is not None:
                total += done[0] * factors[i]
        return total, factors

    untraced = [one_pass()[0]]
    deadline = time.perf_counter() + seconds / 3
    while time.perf_counter() < deadline:
        untraced.append(one_pass()[0])

    totals = {layer: [0, 0.0] for layer in LAYERS}
    counts: Counter = Counter()
    traced_s = untraced_s = 0.0
    tracer.install()
    try:
        for _ in untraced:
            tracer.reset()
            wall, factors = one_pass()
            pass_totals, root = layer_totals(tracer.spans, factors)
            for layer, (calls, self_s) in pass_totals.items():
                totals[layer][0] += calls
                totals[layer][1] += self_s
            counts.update(tracer.counts)
            traced_s += wall
            untraced_s += wall - root
    finally:
        tracer.uninstall()

    overhead = traced_s / sum(untraced) if sum(untraced) else 0.0
    metrics = layer_metrics(totals, counts, untraced_s, traced_s, overhead,
                            ops * len(untraced))
    return metrics, tracer, outcome


def write_trace(tracer, workload: str, seed: int, env: dict) -> Path:
    """The last traced pass's spans, in nanoseconds from its first span."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    layers = sorted({span[0] for span in tracer.spans})
    index = {layer: k for k, layer in enumerate(layers)}
    origin = min((span[1] for span in tracer.spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "env": env,
            "workload": workload,
            "absent": tracer.absent,
            "layers": layers,
            "fields": ["layer", "start_ns", "end_ns", "parent", "op"],
            "spans": [[index[layer], round((start - origin) * 1e9),
                       round((end - origin) * 1e9), parent, op]
                      for layer, start, end, parent, op in tracer.spans],
        }, fh, separators=(",", ":"))
    return path


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    import_s = import_program()
    from workloads import WORKLOADS

    env = environment(seed)
    workload = WORKLOADS[name]()
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    notes: dict = {}
    if trace:
        metrics, tracer, outcome = traced_run(workload, seed, seconds)
        for absent in tracer.absent:
            print(f"absent: {absent} (its layer reads 0)")
        print(f"spans: {write_trace(tracer, name, seed, env)}")
        wanted = spec["per_layer"]
    else:
        metrics, notes, outcome = timed_run(workload, seed, seconds, import_s)
        wanted = spec["end_to_end"]

    report = {}
    for m in wanted:
        if m["name"] not in metrics:
            print(f"missing metric {m['name']}: every op failed", file=sys.stderr)
            continue
        value = metrics[m["name"]]
        report[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']} = {value:.6g} {m['unit']}{note}")
    error_rate = outcome.failed / outcome.attempted
    print(f"error_rate = {error_rate:.6g}  ({outcome.failed} failed of "
          f"{outcome.attempted} attempted)")
    correct = outcome.failed == 0 and len(report) == len(wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": report,
    }))
    return 0


def run_all(spec: dict, seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    results = {}
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds, bool(args.trace))
    return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads; this process and its children
    sys.exit(main())
