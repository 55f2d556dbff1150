"""Random sparsifier baseline."""

import pytest

from repro.baselines import random_sparsify
from repro.core.backbone import target_edge_count


class TestRandomSparsify:
    def test_budget(self, small_power_law):
        out = random_sparsify(small_power_law, 0.3, rng=0)
        assert out.number_of_edges() == target_edge_count(
            small_power_law.number_of_edges(), 0.3
        )

    def test_probabilities_unchanged(self, small_power_law):
        out = random_sparsify(small_power_law, 0.3, rng=0)
        for u, v, p in out.edges():
            assert p == pytest.approx(small_power_law.probability(u, v))

    def test_different_seeds_differ(self, small_power_law):
        a = random_sparsify(small_power_law, 0.3, rng=0)
        b = random_sparsify(small_power_law, 0.3, rng=1)
        assert not a.isomorphic_probabilities(b)

