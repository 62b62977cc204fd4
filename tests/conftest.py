"""Shared generators for randomized sweeps."""

from fractions import Fraction

import pytest

from minmaxrank import Instance, PartialRanking, Permutation, RankingClass, as_partial
from minmaxrank._rng import generator

WEIGHT_CHOICES = (Fraction(1, 2), Fraction(1), Fraction(2))


def random_permutation(rng, n: int) -> Permutation:
    return Permutation.from_order([int(x) + 1 for x in rng.permutation(n)])


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
