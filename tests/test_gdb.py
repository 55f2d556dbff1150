"""GDB (Algorithm 2): convergence, clamping, entropy guard, variants."""

import numpy as np
import pytest

from repro.core import (
    GDBConfig,
    SparsificationState,
    UncertainGraph,
    d1_objective,
    gdb,
    gdb_refine,
    graph_entropy,
)
from repro.core.backbone import bgi_backbone, target_edge_count
from repro.metrics import degree_discrepancy_mae


class TestConfig:
    @pytest.mark.parametrize("h", [-0.1, 1.5])
    def test_invalid_h(self, h):
        with pytest.raises(ValueError):
            GDBConfig(h=h)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            GDBConfig(tau=-1)

    def test_invalid_sweeps(self):
        with pytest.raises(ValueError):
            GDBConfig(max_sweeps=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau=float("nan")),
            dict(tau=-1e-12),
            dict(max_sweeps=2.5),
            dict(max_sweeps=200.0),
            dict(max_sweeps=-3),
        ],
        ids=["tau-nan", "tau-negative", "sweeps-fractional", "sweeps-float",
             "sweeps-negative"],
    )
    def test_invalid_stopping_rule(self, kwargs):
        with pytest.raises(ValueError, match="tau|max_sweeps"):
            GDBConfig(**kwargs)

    def test_integral_caps_accepted(self):
        assert GDBConfig(max_sweeps=np.int64(7), tau=0.0).max_sweeps == 7

    @pytest.mark.parametrize("k", [True, False, 0, -2, 1.0, 2.5, "m", None])
    def test_invalid_k(self, k):
        # A boolean k would otherwise run as k = 1; every rejection
        # happens at construction, before any sweep.
        with pytest.raises(ValueError, match="k must be a positive int or 'n'"):
            GDBConfig(k=k)

    def test_relative_rule_needs_k1_below_n(self, small_power_law):
        state = SparsificationState(small_power_law)
        with pytest.raises(ValueError, match="k = 1 only"):
            gdb_refine(state, GDBConfig(k=2, relative=True))
        # k = "n" and any k >= n are full redistribution: relative is moot.
        for k in ("n", state.n):
            assert gdb_refine(state, GDBConfig(k=k, relative=True, max_sweeps=1)) == 1


class TestInterface:
    def test_requires_exactly_one_of_alpha_backbone(self, small_power_law):
        with pytest.raises(ValueError):
            gdb(small_power_law)
        with pytest.raises(ValueError):
            gdb(small_power_law, alpha=0.5, backbone_ids=[0, 1])

    def test_budget_respected(self, small_power_law):
        sparsified = gdb(small_power_law, alpha=0.5, rng=0)
        assert sparsified.number_of_edges() == target_edge_count(
            small_power_law.number_of_edges(), 0.5
        )

    def test_vertex_set_preserved(self, small_power_law):
        sparsified = gdb(small_power_law, alpha=0.5, rng=0)
        assert set(sparsified.vertices()) == set(small_power_law.vertices())

    def test_edges_subset_of_original(self, small_power_law):
        sparsified = gdb(small_power_law, alpha=0.5, rng=0)
        for u, v, _ in sparsified.edges():
            assert small_power_law.has_edge(u, v)

    def test_probabilities_in_unit_interval(self, small_power_law):
        sparsified = gdb(small_power_law, alpha=0.5, rng=0)
        probs = np.array(sparsified.probability_array())
        assert np.all(probs > 0.0)
        assert np.all(probs <= 1.0)

    def test_name_label(self, small_power_law):
        assert gdb(small_power_law, alpha=0.5, rng=0, name="xyz").name == "xyz"


class TestOptimisation:
    def test_improves_backbone_objective(self, small_power_law):
        ids = bgi_backbone(small_power_law, 0.4, rng=1)
        edge_list = small_power_law.edge_list()
        probs = small_power_law.probability_array()
        raw = small_power_law.subgraph_with_edges(
            (edge_list[e][0], edge_list[e][1], float(probs[e])) for e in ids
        )
        refined = gdb(small_power_law, backbone_ids=ids)
        assert d1_objective(small_power_law, refined) < d1_objective(
            small_power_law, raw
        )

    def test_gdb_refine_monotone_objective(self, small_power_law):
        state = SparsificationState(small_power_law)
        for eid in bgi_backbone(small_power_law, 0.4, rng=1):
            state.select_edge(eid)
        objectives = [state.d1()]
        config = GDBConfig(max_sweeps=1, tau=0.0)
        for _ in range(10):
            gdb_refine(state, config)
            objectives.append(state.d1())
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_h_one_beats_h_zero_on_degree_mae(self, small_power_law):
        ids = bgi_backbone(small_power_law, 0.3, rng=1)
        loose = gdb(small_power_law, backbone_ids=list(ids), config=GDBConfig(h=1.0))
        frozen = gdb(small_power_law, backbone_ids=list(ids), config=GDBConfig(h=0.0))
        assert degree_discrepancy_mae(small_power_law, loose) <= (
            degree_discrepancy_mae(small_power_law, frozen)
        )

    def test_h_zero_keeps_entropy_lowest(self, small_power_law):
        ids = bgi_backbone(small_power_law, 0.3, rng=1)
        loose = gdb(small_power_law, backbone_ids=list(ids), config=GDBConfig(h=1.0))
        frozen = gdb(small_power_law, backbone_ids=list(ids), config=GDBConfig(h=0.0))
        assert graph_entropy(frozen) <= graph_entropy(loose)

    def test_large_alpha_recovers_degrees_exactly(self, small_power_law):
        sparsified = gdb(
            small_power_law, alpha=0.8, rng=0, config=GDBConfig(h=1.0)
        )
        assert degree_discrepancy_mae(small_power_law, sparsified) < 1e-3

    def test_entropy_reduced_versus_original(self, small_power_law):
        sparsified = gdb(small_power_law, alpha=0.3, rng=0)
        assert graph_entropy(sparsified) < graph_entropy(small_power_law)


class TestVariants:
    def test_relative_variant_runs(self, small_power_law):
        sparsified = gdb(
            small_power_law, alpha=0.4, rng=0, config=GDBConfig(relative=True)
        )
        assert degree_discrepancy_mae(
            small_power_law, sparsified, relative=True
        ) < 0.5

    def test_k2_variant_runs(self, small_power_law):
        sparsified = gdb(small_power_law, alpha=0.4, rng=0, config=GDBConfig(k=2))
        assert degree_discrepancy_mae(small_power_law, sparsified) < 0.5

    def test_kn_saturates_probabilities_at_small_alpha(self, small_power_law):
        """Eq. 16 pushes the full residual onto every edge: expect p = 1."""
        sparsified = gdb(
            small_power_law, alpha=0.1, rng=0, config=GDBConfig(k="n", h=1.0),
            backbone_method="random",
        )
        probs = np.array(sparsified.probability_array())
        # Most edges saturate at 1; the residual may drive a few to 0
        # once the missing mass is fully absorbed.
        assert np.mean(probs > 0.99) > 0.75

    def test_worked_example_figure2(self):
        """GDB on the paper's Fig. 2(a) backbone improves D1 and entropy.

        The paper reports D1: 0.56 -> 0.36 and entropy 3.85 -> 2.60 with
        h = 1 (the exact outcome depends on the sweep order; we check
        the direction and magnitudes).
        """
        g = UncertainGraph(
            [("u1", "u2", 0.4), ("u2", "u3", 0.2), ("u3", "u4", 0.4),
             ("u4", "u1", 0.2), ("u1", "u3", 0.1)]
        )
        # Backbone: the three edges incident to u4-side of the figure.
        backbone_edges = [("u4", "u1"), ("u2", "u3"), ("u3", "u4")]
        edge_list = g.edge_list()
        ids = [edge_list.index(e) if e in edge_list else
               edge_list.index((e[1], e[0])) for e in backbone_edges]
        out = gdb(g, backbone_ids=ids, config=GDBConfig(h=1.0))
        assert d1_objective(g, out) < d1_objective(
            g, g.subgraph_with_edges(
                (u, v, g.probability(u, v)) for u, v in backbone_edges
            )
        )
        assert graph_entropy(out) < graph_entropy(g)
