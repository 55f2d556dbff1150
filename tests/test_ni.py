"""NI benchmark (Algorithm 4 + adaptation)."""

import numpy as np
import pytest

from oracles.ni import ni_core
from repro.baselines.ni import integer_weights, ni_sparsify
from repro.core import UncertainGraph
from repro.core.backbone import target_edge_count


class TestIntegerWeights:
    def test_min_probability_maps_to_one(self):
        probs = np.array([0.1, 0.2, 0.4])
        weights, scale = integer_weights(probs)
        assert weights[0] == 1
        assert scale == pytest.approx(0.1)

    def test_weights_proportional(self):
        probs = np.array([0.1, 0.2, 0.4])
        weights, _ = integer_weights(probs)
        assert list(weights) == [1, 2, 4]

    def test_scale_floor_caps_max_weight(self):
        probs = np.array([1e-6, 1.0])
        weights, scale = integer_weights(probs, max_weight=128)
        assert weights.max() <= 128
        assert scale >= 1.0 / 128

    def test_empty(self):
        weights, scale = integer_weights(np.zeros(0))
        assert len(weights) == 0 and scale == 1.0

    def test_all_weights_at_least_one(self):
        probs = np.array([0.5, 0.500001, 0.9999])
        weights, _ = integer_weights(probs)
        assert weights.min() >= 1


class TestNICore:
    """Algorithm 4's scalar reference (the plan-riding core is gated on
    it in ``test_lp_solver.py``)."""

    def test_small_epsilon_keeps_everything(self, small_power_law):
        weights, _ = integer_weights(np.array(small_power_law.probability_array()))
        kept = ni_core(
            small_power_law.number_of_vertices(),
            small_power_law.edge_index_array(),
            weights,
            epsilon=1e-6,
            rng=np.random.default_rng(0),
        )
        assert len(kept) == small_power_law.number_of_edges()

    def test_large_epsilon_keeps_little(self, small_power_law):
        weights, _ = integer_weights(np.array(small_power_law.probability_array()))
        kept = ni_core(
            small_power_law.number_of_vertices(),
            small_power_law.edge_index_array(),
            weights,
            epsilon=100.0,
            rng=np.random.default_rng(0),
        )
        assert len(kept) < small_power_law.number_of_edges() / 2

    def test_sampled_weights_are_upscaled(self, small_power_law):
        weights, _ = integer_weights(np.array(small_power_law.probability_array()))
        kept = ni_core(
            small_power_law.number_of_vertices(),
            small_power_law.edge_index_array(),
            weights,
            epsilon=3.0,
            rng=np.random.default_rng(0),
        )
        for eid, w in kept.items():
            assert w >= weights[eid]  # 1/l_e >= 1


class TestNISparsify:
    def test_budget_met(self, small_power_law):
        out = ni_sparsify(small_power_law, 0.4, rng=0)
        assert out.number_of_edges() == target_edge_count(
            small_power_law.number_of_edges(), 0.4
        )

    def test_probabilities_capped_at_one(self, small_power_law):
        out = ni_sparsify(small_power_law, 0.4, rng=0)
        probs = np.array(out.probability_array())
        assert np.all(probs <= 1.0) and np.all(probs > 0.0)

    def test_edges_subset_of_original(self, small_power_law):
        out = ni_sparsify(small_power_law, 0.4, rng=0)
        for u, v, _ in out.edges():
            assert small_power_law.has_edge(u, v)

    def test_vertex_set_preserved(self, small_power_law):
        out = ni_sparsify(small_power_law, 0.4, rng=0)
        assert set(out.vertices()) == set(small_power_law.vertices())

    def test_various_alphas(self, small_power_law):
        for alpha in (0.15, 0.3, 0.6):
            out = ni_sparsify(small_power_law, alpha, rng=1)
            assert out.number_of_edges() == target_edge_count(
                small_power_law.number_of_edges(), alpha
            )

    def test_deterministic_graph_unit_weights(self):
        """Uniform probabilities: every edge has weight 1, one forest round
        per edge batch, and the top-up fills the budget."""
        g = UncertainGraph([(i, j, 0.5) for i in range(8) for j in range(i + 1, 8)])
        out = ni_sparsify(g, 0.5, rng=0)
        assert out.number_of_edges() == target_edge_count(g.number_of_edges(), 0.5)
