"""NI benchmark (Algorithm 4 + adaptation)."""

import numpy as np
import pytest

import repro.baselines.ni as ni_module
from oracles.ni import ni_core
from repro.baselines.ni import (
    integer_weights,
    ni_peel_structure,
    ni_sparsify,
)
from repro.core import UncertainGraph, sparsify
from repro.core.backbone import BackbonePlan, target_edge_count


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
    it below)."""

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


# ----------------------------------------------------------------------
# NI on peels: bit-identity with the scalar Algorithm 4 + plan memoisation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alpha", [0.25, 0.5])
@pytest.mark.parametrize("seed", [1, 42])
def test_ni_plan_bit_identical_to_legacy(small_power_law, alpha, seed,
                                         monkeypatch):
    """The whole calibrated NI, once with every calibration step on the
    peel plan and once with each step re-peeling scalar forests."""
    planned = ni_sparsify(small_power_law, alpha, rng=seed)
    edge_vertices = small_power_law.edge_index_array()
    monkeypatch.setattr(
        ni_module, "ni_core_planned",
        lambda n, weights, structure, epsilon, rng: ni_core(
            n, edge_vertices, weights, epsilon, rng
        ),
    )
    legacy = ni_sparsify(small_power_law, alpha, rng=seed)
    assert list(planned.edges()) == list(legacy.edges())


def test_ni_memoises_peel_structure_on_plan(small_power_law):
    first = ni_sparsify(small_power_law, 0.4, rng=7)
    plan = BackbonePlan.of(small_power_law)
    key = ("ni_peel", 128)
    assert key in plan._cache
    structure = plan._cache[key]
    second = ni_sparsify(small_power_law, 0.5, rng=7)
    # The second alpha reuses the memoised structure object untouched.
    assert BackbonePlan.of(small_power_law) is plan
    assert plan._cache[key] is structure
    assert first.number_of_edges() < second.number_of_edges()


def test_ni_plan_seed_stream_matches_planless(small_power_law):
    """The graph's warm plan must not change the output for a seed."""
    ni_sparsify(small_power_law, 0.25, rng=9)
    with_plan = ni_sparsify(small_power_law, 0.4, rng=3)
    without = ni_sparsify(small_power_law.copy(), 0.4, rng=3)
    assert list(with_plan.edges()) == list(without.edges())


def test_ni_rejects_bad_peeler_and_foreign_plan(small_power_law, small_sparse):
    # One peeler and one plan per graph: there is none to pick.
    for peeler in ("recursive", "plan", "legacy"):
        with pytest.raises(TypeError, match="peeler"):
            ni_sparsify(small_power_law, 0.4, rng=0, peeler=peeler)
    with pytest.raises(TypeError, match="backbone_plan"):
        ni_sparsify(
            small_power_law, 0.4, rng=0,
            backbone_plan=BackbonePlan(small_sparse),
        )


def test_ni_peel_structure_covers_every_edge(small_sparse):
    edge_vertices = small_sparse.edge_index_array()
    weights, _ = integer_weights(
        np.array(small_sparse.probability_array()), max_weight=32
    )
    order, rounds = ni_peel_structure(
        small_sparse.number_of_vertices(), edge_vertices, weights
    )
    m = small_sparse.number_of_edges()
    # Every edge exhausts exactly once, in non-decreasing round order,
    # and never before its quantised weight allows.
    assert sorted(order.tolist()) == list(range(m))
    assert np.all(np.diff(rounds) >= 0)
    assert np.all(rounds >= weights[order])
    assert not order.flags.writeable and not rounds.flags.writeable


def test_ni_peel_structure_trivial_graphs():
    lone = UncertainGraph([(0, 1, 0.5)])
    weights, _ = integer_weights(
        np.array(lone.probability_array()), max_weight=8
    )
    order, rounds = ni_peel_structure(2, lone.edge_index_array(), weights)
    assert order.tolist() == [0]
    assert rounds.tolist() == [int(weights[0])]


def test_sparsify_facade_accepts_plan_for_ni(small_power_law):
    out = sparsify(small_power_law, 0.4, variant="NI", rng=2)
    assert out.number_of_edges() == target_edge_count(
        small_power_law.number_of_edges(), 0.4
    )
    assert ("ni_peel", 128) in BackbonePlan.of(small_power_law)._cache
    # No variant takes a plan: the graph's own is the only one.
    with pytest.raises(TypeError, match="backbone_plan"):
        sparsify(small_power_law, 0.4, variant="NI", rng=2,
                 backbone_plan=BackbonePlan(small_power_law))
