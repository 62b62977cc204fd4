"""Seeded random generator construction shared across modules.

Philox is counter-based and splittable, so seed tuples derived from
(seed, trial, ...) give independent streams.
"""

from __future__ import annotations

import numpy as np


def generator(seed=None) -> np.random.Generator:
    """Generator from an int seed, seed tuple, SeedSequence, or Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))
