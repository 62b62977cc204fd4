"""Mallows sampling and the two-level generative model for benchmarks.

A Mallows law with dispersion phi in (0, 1] and a reference permutation
puts probability proportional to phi ** (Kendall tau distance to the
reference) on every permutation.  Sampling is by sequential insertion: the
i-th element of the reference order is inserted k places up from the end
with probability proportional to phi ** k (a truncated geometric offset),
which realizes the law exactly.

The two-level model draws class centers around the identity with
dispersion phi1, then class members around each center with dispersion
phi2.  Exactly one uniform variate is consumed per insertion, so runs with
different dispersions but the same seed are coupled, and the Philox-based
generator makes seeded draws reproducible across platforms and processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rankings import Instance, Permutation, RankingClass
from ._rng import generator


@dataclass(frozen=True)
class TwoLevelConfig:
    """num_classes classes of per_class members each, all of weight 1."""

    n: int
    num_classes: int
    per_class: int
    phi1: float
    phi2: float

    @classmethod
    def create(cls, n, num_classes, per_class, phi1, phi2):
        """Build a config, validated as the constructor validates it."""
        return cls(n, num_classes, per_class, phi1, phi2)

    def __post_init__(self):
        if self.n < 1 or self.num_classes < 1:
            raise ValueError("n and num_classes must be positive")
        if self.per_class < 1:
            raise ValueError("per-class counts must be positive")
        for phi in (self.phi1, self.phi2):
            if not 0.0 < phi <= 1.0:
                raise ValueError(f"dispersion must be in (0, 1], got {phi}")


def _insertion_offset(rng, size: int, phi: float) -> int:
    """Offset k in 0..size-1 with probability proportional to phi ** k."""
    if phi == 1.0:
        total = float(size)
    else:
        total = (1.0 - phi**size) / (1.0 - phi)
    u = rng.random() * total
    acc = 0.0
    w = 1.0
    for k in range(size - 1):
        acc += w
        if u < acc:
            return k
        w *= phi
    return size - 1


def sample_mallows(phi: float, reference: Permutation, rng_seed=None) -> Permutation:
    """Draw one permutation from the Mallows law around ``reference``."""
    if not 0.0 < phi <= 1.0:
        raise ValueError(f"dispersion must be in (0, 1], got {phi}")
    rng = generator(rng_seed)
    out: list[int] = []
    for i, elem in enumerate(reference.order(), start=1):
        k = _insertion_offset(rng, i, phi)
        out.insert(len(out) - k, elem)
    return Permutation.from_order(out)


def sample_instance(cfg: TwoLevelConfig, rng_seed=None) -> Instance:
    """Draw a two-level instance: centers first, then members class by class."""
    rng = generator(rng_seed)
    identity = Permutation.identity(cfg.n)
    centers = [sample_mallows(cfg.phi1, identity, rng) for _ in range(cfg.num_classes)]
    classes = []
    for center in centers:
        members = tuple(sample_mallows(cfg.phi2, center, rng) for _ in range(cfg.per_class))
        classes.append(RankingClass(members))
    return Instance(cfg.n, tuple(classes))
