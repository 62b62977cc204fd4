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
from fractions import Fraction

from .rankings import Instance, Permutation, RankingClass
from ._rng import generator


@dataclass(frozen=True)
class TwoLevelConfig:
    n: int
    num_classes: int
    per_class: tuple[int, ...]
    phi1: float
    phi2: float
    weights: tuple[Fraction, ...]

    @classmethod
    def create(cls, n, num_classes, per_class, phi1, phi2, weights=None):
        """Build a config; scalar per_class/weights are replicated per class."""
        if isinstance(per_class, int):
            per_class = (per_class,) * num_classes
        if weights is None:
            weights = (Fraction(1),) * num_classes
        else:
            weights = tuple(Fraction(w) for w in weights)
        return cls(n, num_classes, tuple(per_class), phi1, phi2, weights)

    def __post_init__(self):
        if self.n < 1 or self.num_classes < 1:
            raise ValueError("n and num_classes must be positive")
        if len(self.per_class) != self.num_classes:
            raise ValueError("per_class length must match num_classes")
        if any(m < 1 for m in self.per_class):
            raise ValueError("per-class counts must be positive")
        if len(self.weights) != self.num_classes:
            raise ValueError("weights length must match num_classes")
        for phi in (self.phi1, self.phi2):
            if not 0.0 < phi <= 1.0:
                raise ValueError(f"dispersion must be in (0, 1], got {phi}")


def _insertion_offset(rng, size: int, phi: float) -> int:
    """Offset k in 0..size-1 with probability proportional to phi ** k."""
    if size == 1:
        rng.random()  # keep the stream aligned across sizes and phis
        return 0
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
    for center, m, weight in zip(centers, cfg.per_class, cfg.weights):
        members = tuple(sample_mallows(cfg.phi2, center, rng) for _ in range(m))
        classes.append(RankingClass(members, weight))
    return Instance(cfg.n, tuple(classes))
