from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from minmaxrank import (
    DistanceKind,
    Permutation,
    TwoLevelConfig,
    distance,
    sample_instance,
    sample_mallows,
)
from minmaxrank._rng import generator

KT = DistanceKind.KENDALL_TAU


def exact_mallows_law(n, phi):
    """Enumerate the law: P(sigma) = phi^d / Z with Z = prod (1-phi^i)/(1-phi)."""
    z = 1.0
    for i in range(1, n + 1):
        z *= float(i) if phi == 1.0 else (1.0 - phi**i) / (1.0 - phi)
    ident = Permutation.identity(n)
    return {
        ranks: phi ** int(distance(Permutation(ranks), ident, KT)) / z
        for ranks in permutations(range(1, n + 1))
    }


def empirical_tv(n, phi, samples, seed):
    rng = generator(seed)
    ident = Permutation.identity(n)
    counts = Counter(sample_mallows(phi, ident, rng).ranks for _ in range(samples))
    law = exact_mallows_law(n, phi)
    return 0.5 * sum(
        abs(counts.get(r, 0) / samples - p) for r, p in law.items()
    )


class TestParams:
    def test_rejects_bad_phi(self):
        for phi in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match=r"dispersion must be in \(0, 1\]"):
                sample_mallows(phi, Permutation.identity(3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TwoLevelConfig.create(5, 2, (3,), 0.5, 0.7)
        with pytest.raises(ValueError):
            TwoLevelConfig.create(5, 2, 3, 0.5, 1.7)
        cfg = TwoLevelConfig.create(5, 2, 3, 0.5, 0.7)
        assert cfg.per_class == (3, 3)
        assert cfg.weights == (1, 1)

    @pytest.mark.parametrize("args, message", [
        ((0, 2, 3, 0.5, 0.7), "n and num_classes must be positive"),
        ((5, 0, (), 0.5, 0.7), "n and num_classes must be positive"),
        ((5, 2, (3, 0), 0.5, 0.7), "per-class counts must be positive"),
        ((5, 2, 3, 0.5, 0.7, (Fraction(1),)), "weights length must match num_classes"),
    ], ids=["n", "classes", "per-class", "weights"])
    def test_config_rejection_names_its_fault(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TwoLevelConfig.create(*args)


class TestSampleMallows:
    def test_deterministic_given_seed(self):
        ident = Permutation.identity(6)
        assert sample_mallows(0.6, ident, 42) == sample_mallows(0.6, ident, 42)

    def test_uniform_at_phi_one(self):
        tv = empirical_tv(3, 1.0, 30000, seed=8)
        assert tv < 0.02

    def test_concentrates_as_phi_vanishes(self):
        ref = Permutation((3, 1, 4, 2, 5))
        rng = generator(9)
        assert all(sample_mallows(1e-9, ref, rng) == ref for _ in range(200))

    def test_matches_exact_law(self):
        # quick version of the full acceptance check
        assert empirical_tv(4, 0.7, 20000, seed=10) < 0.03

    def test_mean_distance_monotone_in_phi(self):
        ident = Permutation.identity(6)
        means = []
        for phi in (0.3, 0.6, 0.9):
            rng = generator(11)
            total = sum(
                int(distance(sample_mallows(phi, ident, rng), ident, KT))
                for _ in range(10000)
            )
            means.append(total / 10000)
        assert means[0] < means[1] < means[2]


class TestSampleInstance:
    def test_shape_and_weights(self):
        cfg = TwoLevelConfig.create(7, 3, (1, 2, 3), 0.5, 0.7, weights=(1, 2, 1))
        inst = sample_instance(cfg, 12)
        assert inst.n == 7
        assert inst.num_classes == 3
        assert [c.m for c in inst.classes] == [1, 2, 3]
        assert [c.weight for c in inst.classes] == [1, 2, 1]

    def test_deterministic_given_seed(self):
        cfg = TwoLevelConfig.create(6, 3, 4, 0.7, 0.7)
        assert sample_instance(cfg, 99) == sample_instance(cfg, 99)

    def test_concentrated_config_gives_identity_everywhere(self):
        cfg = TwoLevelConfig.create(6, 2, 3, 1e-9, 1e-9)
        inst = sample_instance(cfg, 5)
        ident = Permutation.identity(6)
        assert all(m == ident for _, _, m in inst.iter_members())

    def test_tuple_seed_streams_differ(self):
        cfg = TwoLevelConfig.create(6, 2, 3, 0.7, 0.7)
        assert sample_instance(cfg, (0, 1)) != sample_instance(cfg, (0, 2))


def test_tuple_seed_draws_from_its_seed_sequence():
    # a seed tuple seeds Philox through SeedSequence, as the golden sweeps rely on
    expected = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, 3])))
    assert generator((7, 3)).integers(2**62, size=8).tolist() == \
        expected.integers(2**62, size=8).tolist()
