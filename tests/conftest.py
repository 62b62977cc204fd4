"""Shared generators for randomized sweeps, and the README's instance file."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from minmaxrank import Instance, PartialRanking, Permutation, RankingClass
from minmaxrank._rng import generator
from minmaxrank.rankings import twice_positions

WEIGHT_CHOICES = (Fraction(1, 2), Fraction(1), Fraction(2))

# the example of the README's "Instance files" section
README_FILE = (
    (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    .split("### Instance files\n", 1)[1].split("```\n", 2)[1]
)


def random_permutation(rng, n: int) -> Permutation:
    return Permutation.from_order([int(x) + 1 for x in rng.permutation(n)])


def singleton_buckets(p: Permutation) -> PartialRanking:
    """``p`` as a partial ranking with one element per bucket."""
    return PartialRanking.from_buckets([x] for x in p.order())


def positions(r) -> list[Fraction]:
    """The position of each element of ``r``, indexed by element - 1."""
    return [Fraction(int(t), 2) for t in twice_positions([r])[0]]


def float_weights(inst: Instance) -> np.ndarray:
    """(C, n, n) float w[k][x][y] = count * weight / m, each rounded once from
    its exact Fraction: the reference for the Kendall class weights."""
    return np.stack([
        np.array([float(c * cls.weight / cls.m) for c in range(cls.m + 1)])[counts]
        for cls, counts in zip(inst.classes, inst.above_counts)
    ])


def random_partial_ranking(rng, n: int, tie_prob: float = 0.4) -> PartialRanking:
    order = [int(x) + 1 for x in rng.permutation(n)]
    buckets = [[order[0]]]
    for elem in order[1:]:
        if rng.random() < tie_prob:
            buckets[-1].append(elem)
        else:
            buckets.append([elem])
    return PartialRanking.from_buckets(buckets)


def random_instance(
    rng,
    n_choices=(4, 5, 6),
    c_choices=(2, 3),
    m_choices=(1, 2, 3),
    weight_choices=WEIGHT_CHOICES,
    allow_ties: bool = False,
) -> Instance:
    n = int(rng.choice(n_choices))
    num_classes = int(rng.choice(c_choices))
    classes = []
    for _ in range(num_classes):
        m = int(rng.choice(m_choices))
        if allow_ties and rng.random() < 0.5:
            members = tuple(random_partial_ranking(rng, n) for _ in range(m))
        else:
            members = tuple(random_permutation(rng, n) for _ in range(m))
        weight = weight_choices[int(rng.integers(len(weight_choices)))]
        classes.append(RankingClass(members, weight))
    return Instance(n, tuple(classes))


def tied_instance(rng, **kwargs) -> Instance:
    return random_instance(rng, allow_ties=True, **kwargs)


def has_ties(inst: Instance) -> bool:
    """Whether any class of ``inst`` holds partial rankings."""
    return any(isinstance(member, PartialRanking) for _, _, member in inst.iter_members())


def gap_instance() -> Instance:
    """Two one-member classes over n = 4 that disagree on one pair."""
    return Instance(
        4,
        (
            RankingClass((Permutation.identity(4),), 1),
            RankingClass((Permutation((2, 1, 3, 4)),), 1),
        ),
    )


@pytest.fixture
def rng():
    return generator(20240811)
