"""Backbone construction: spanning forests, BGI, random, local-degree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.backbone import maximum_spanning_forest
from oracles.unionfind import UnionFind
from repro.core import UncertainGraph
from repro.core.backbone import bgi_backbone, build_backbone, target_edge_count
from repro.datasets import flickr_like
from repro.exceptions import SparsificationError


def backbone_graph(graph, ids):
    edge_list = graph.edge_list()
    probs = graph.probability_array()
    return graph.subgraph_with_edges(
        (edge_list[e][0], edge_list[e][1], float(probs[e])) for e in ids
    )


class TestTargetEdgeCount:
    def test_rounding(self):
        assert target_edge_count(100, 0.5) == 50
        assert target_edge_count(10, 0.25) == 2  # round(2.5) banker's -> 2
        assert target_edge_count(3, 0.1) == 1  # floor to at least 1

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ValueError):
            target_edge_count(100, alpha)

    def test_no_edges(self):
        with pytest.raises(SparsificationError):
            target_edge_count(0, 0.5)


class TestMaximumSpanningForest:
    def test_tree_on_connected_graph(self, small_power_law):
        n = small_power_law.number_of_vertices()
        m = small_power_law.number_of_edges()
        forest = maximum_spanning_forest(
            n,
            np.arange(m),
            small_power_law.edge_index_array(),
            np.array(small_power_law.probability_array()),
        )
        assert len(forest) == n - 1

    def test_forest_is_acyclic_and_maximum(self):
        # Square with a heavy diagonal: max spanning tree must take it.
        g = UncertainGraph(
            [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3), (3, 0, 0.4), (0, 2, 0.9)]
        )
        forest = maximum_spanning_forest(
            4, np.arange(5), g.edge_index_array(), np.array(g.probability_array())
        )
        assert len(forest) == 3
        edge_list = g.edge_list()
        chosen = {frozenset(edge_list[e]) for e in forest}
        assert frozenset((0, 2)) in chosen
        uf = UnionFind(4)
        for eid in forest:
            u, v = g.edge_index_array()[eid]
            assert uf.union(int(u), int(v))  # acyclic

    def test_disconnected_graph_gives_forest(self):
        g = UncertainGraph([(0, 1, 0.5), (2, 3, 0.5)])
        forest = maximum_spanning_forest(
            4, np.arange(2), g.edge_index_array(), np.array(g.probability_array())
        )
        assert len(forest) == 2


class TestBGI:
    def test_budget_met(self, small_power_law):
        ids = bgi_backbone(small_power_law, 0.4, rng=0)
        assert len(ids) == target_edge_count(small_power_law.number_of_edges(), 0.4)
        assert len(set(ids)) == len(ids)

    def test_connectivity_preserved(self, small_power_law):
        ids = bgi_backbone(small_power_law, 0.4, rng=0)
        assert backbone_graph(small_power_law, ids).is_connected()

    def test_alpha_below_spanning_threshold_raises(self, small_power_law):
        n = small_power_law.number_of_vertices()
        m = small_power_law.number_of_edges()
        alpha = (n - 2) / m / 2  # clearly below (n-1)/m
        with pytest.raises(SparsificationError):
            bgi_backbone(small_power_law, alpha, rng=0)

    def test_deterministic_given_seed(self, small_power_law):
        a = bgi_backbone(small_power_law, 0.3, rng=42)
        b = bgi_backbone(small_power_law, 0.3, rng=42)
        assert np.array_equal(a, b)

    def test_spanning_fraction_zero_still_builds_tree(self, small_power_law):
        ids = bgi_backbone(small_power_law, 0.4, rng=0, spanning_fraction=0.0)
        assert backbone_graph(small_power_law, ids).is_connected()

    def test_max_forests_limits_spanning_edges(self, small_power_law):
        few = bgi_backbone(small_power_law, 0.6, rng=1, max_forests=1)
        assert len(few) == target_edge_count(small_power_law.number_of_edges(), 0.6)


class TestRandomBackbone:
    def test_budget_met(self, small_power_law):
        ids = build_backbone(small_power_law, 0.3, method="random", rng=0)
        assert len(ids) == target_edge_count(small_power_law.number_of_edges(), 0.3)
        assert len(set(ids)) == len(ids)

    def test_high_probability_edges_preferred(self):
        edges = [(0, i + 1, 0.99) for i in range(10)]
        edges += [(1, i + 2, 0.01) for i in range(9)]
        g = UncertainGraph(edges)
        counts = np.zeros(g.number_of_edges())
        for seed in range(30):
            for eid in build_backbone(g, 0.5, method="random", rng=seed):
                counts[eid] += 1
        probs = g.probability_array()
        high = counts[np.array(probs) > 0.5].mean()
        low = counts[np.array(probs) < 0.5].mean()
        assert high > low


class TestLocalDegree:
    def test_budget_and_determinism(self, small_power_law):
        a = build_backbone(small_power_law, 0.3, method="local_degree")
        b = build_backbone(small_power_law, 0.3, method="local_degree")
        assert np.array_equal(a, b)
        assert len(a) == target_edge_count(small_power_law.number_of_edges(), 0.3)

    def test_hub_edges_kept(self):
        # Star plus a pendant chain: star edges rank first.
        edges = [(0, i, 0.5) for i in range(1, 8)]
        edges += [(7, 8, 0.5), (8, 9, 0.5)]
        g = UncertainGraph(edges)
        ids = build_backbone(g, 0.5, method="local_degree")
        edge_list = g.edge_list()
        chosen = {frozenset(edge_list[e]) for e in ids}
        hub_edges = sum(1 for pair in chosen if 0 in pair)
        assert hub_edges >= len(chosen) - 2


class TestDispatch:
    def test_build_backbone_methods(self, small_power_law):
        for method in ("bgi", "random", "local_degree"):
            ids = build_backbone(small_power_law, 0.3, method=method, rng=0)
            assert len(ids) == target_edge_count(
                small_power_law.number_of_edges(), 0.3
            )

    def test_unknown_method(self, small_power_law):
        with pytest.raises(ValueError):
            build_backbone(small_power_law, 0.3, method="magic")


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 1000),
    alpha=st.floats(min_value=0.3, max_value=0.9),
)
def test_property_bgi_budget_and_connectivity(seed, alpha):
    graph = flickr_like(n=40, avg_degree=10, seed=seed % 5)
    ids = bgi_backbone(graph, alpha, rng=seed)
    assert len(ids) == target_edge_count(graph.number_of_edges(), alpha)
    assert backbone_graph(graph, ids).is_connected()
