"""The package loads scipy's HiGHS binding and assignment solver from their
files.  Each check runs in a fresh interpreter, since the test process has
already imported ``scipy.optimize``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import minmaxrank
from minmaxrank import build_kendall_lp, median_footrule_matching_baseline, mmkt_conv, solve

from conftest import gap_instance

# the four-element two-class instance of conftest.gap_instance
GAP = """
from minmaxrank import Instance, Permutation, RankingClass
inst = Instance(4, (RankingClass((Permutation.identity(4),), 1),
                    RankingClass((Permutation((2, 1, 3, 4)),), 1)))
"""


def run(script: str, *args: str) -> str:
    src = str(Path(minmaxrank.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_and_solves_leave_scipy_optimize_unloaded():
    # scipy.optimize's package init imports scipy.linalg, scipy.sparse and
    # more, and used to be most of the package's import time
    out = run("import sys\nimport minmaxrank.cli\n" + GAP + """
from minmaxrank import median_footrule_matching_baseline, mmkt_conv
print(mmkt_conv(inst).objective, median_footrule_matching_baseline(inst).objective)
print(sorted(m for m in ("scipy.optimize", "scipy.sparse", "scipy.linalg") if m in sys.modules))
""")
    inst = gap_instance()
    assert out.splitlines() == [
        f"{mmkt_conv(inst).objective} {median_footrule_matching_baseline(inst).objective}", "[]"]


def test_missing_extension_files_fall_back_to_the_plain_import(tmp_path):
    # scipy's directory read as an empty one: no extension file is found,
    # importing the package does not raise, and the plain import serves
    out = run("import sys\nimport scipy\nscipy.__file__ = sys.argv[1]\n" + GAP + """
from minmaxrank import aggregators, lp
assert "scipy.optimize" in sys.modules
assert lp.highspy is sys.modules["scipy.optimize._highspy._core"]
print(repr(lp.solve(lp.build_kendall_lp(inst)).objective))
print(aggregators.median_footrule_matching_baseline(inst).ranking)
""", str(tmp_path / "__init__.py"))
    inst = gap_instance()
    assert out.splitlines() == [repr(solve(build_kendall_lp(inst)).objective),
                                str(median_footrule_matching_baseline(inst).ranking)]


@pytest.mark.parametrize("first, second", [("minmaxrank", "scipy.optimize"),
                                           ("scipy.optimize", "minmaxrank")])
def test_scipy_and_the_package_import_in_either_order(first, second):
    # one module object per extension: a second copy of the pybind11
    # binding would register _Highs twice
    out = run("import importlib, sys\nimportlib.import_module(sys.argv[1])\n"
              "importlib.import_module(sys.argv[2])\n" + GAP + """
import scipy.optimize
from minmaxrank import aggregators, lp
res = scipy.optimize.linprog([1, 1], A_ub=[[-1, -2]], b_ub=[-1], bounds=[(0, 1)] * 2,
                             method="highs")
assert res.status == 0 and abs(res.fun - 0.5) < 1e-9, res
assert scipy.optimize.linear_sum_assignment([[4, 1], [2, 3]])[1].tolist() == [1, 0]
assert sys.modules["scipy.optimize._highspy._core"] is lp.highspy
assert sys.modules["scipy.optimize._highspy._highs_wrapper"]._h is lp.highspy
assert scipy.optimize.linear_sum_assignment is aggregators.linear_sum_assignment
print(repr(lp.solve(lp.build_kendall_lp(inst)).objective))
""", first, second)
    assert out == repr(solve(build_kendall_lp(gap_instance())).objective) + "\n"
