"""Every function that perfbench's tracer wraps still exists in the package.

perfbench's own tests check this too, but they fail on names that the
package deleted long ago, so a new deletion would go unnoticed there.
``perfbench/tracing.py`` is loaded by path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: wrapped names that the package no longer has; the tracer reports them
#: absent, and the benchmark's next change drops them from its lists
KNOWN_ABSENT = {
    "minmaxrank.rankings:Permutation.to_partial",
    "minmaxrank.distances.kendall_tau",
    "minmaxrank.distances.spearman_footrule",
    "minmaxrank.distances.kemeny",
    "minmaxrank.distances.partial_footrule",
    "minmaxrank.lp.linprog",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    targets = [target for targets in tracing.LAYERS.values() for target in targets]
    targets += [*tracing.HOOKS, *tracing.ITEM_COUNTERS.values()]
    absent = set()
    for path, attr in targets:
        # as the tracer resolves them: the attribute of the module or class itself
        module, _, cls = path.partition(":")
        owner = importlib.import_module(module)
        if attr not in vars(getattr(owner, cls) if cls else owner):
            absent.add(f"{path}.{attr}")
    assert absent <= KNOWN_ABSENT
