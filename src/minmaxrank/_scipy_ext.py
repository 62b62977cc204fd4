"""scipy's HiGHS binding and assignment solver, loaded from their extension files.

The package needs only two compiled modules of ``scipy.optimize``: the
private HiGHS binding ``_highspy._core`` (scipy >= 1.15) and ``_lsap``.
Importing them by name would first run ``scipy.optimize``'s package init,
which imports ``scipy.linalg``, ``scipy.sparse`` and more and takes most of
the package's import time, so each is loaded from its file under scipy's
directory instead.  It is registered in ``sys.modules`` under its full name,
so a later ``import scipy.optimize`` reuses the same module object; one that
is already there is taken as it is.  Where scipy's file layout differs and
no file is found, the plain import runs, slower but with the same result.
"""

from __future__ import annotations

import importlib
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from types import ModuleType

import scipy


def _load(name: str) -> ModuleType:
    """The scipy extension module of dotted ``name``, from its file if found."""
    if name in sys.modules:
        return sys.modules[name]
    stem = Path(scipy.__file__).parent.joinpath(*name.split(".")[1:])
    for suffix in EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            spec = spec_from_file_location(name, path, loader=ExtensionFileLoader(name, str(path)))
            module = module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(name)


highspy = _load("scipy.optimize._highspy._core")
linear_sum_assignment = _load("scipy.optimize._lsap").linear_sum_assignment
