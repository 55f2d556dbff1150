"""Query implementations against analytic and networkx oracles."""

import re

import numpy as np
import pytest

from repro.core import UncertainGraph
from repro.datasets import flickr_like
from repro.queries import (
    ClusteringCoefficientQuery,
    ComponentCountQuery,
    ConnectivityQuery,
    DegreeQuery,
    PageRankQuery,
    ReliabilityQuery,
    ShortestPathQuery,
    SourceDistanceQuery,
    batch_pagerank,
    evaluate_query_batch,
    sample_vertex_pairs,
)
from repro.queries.base import Query
from repro.sampling import MonteCarloEstimator, WorldSampler


#: Pair lists every pair query rejects, with the message it must name.
#: Negative, boolean and non-integral ids count: -1 would wrap to n-1.
BAD_PAIRS = [
    ([], "at least one vertex pair"),
    ([(0, -1)], "(0, -1)"),
    ([(0, 1), (-2, 3)], "(-2, 3)"),
    ([(True, 1)], "(True, 1)"),
    ([(0, 1.5)], "(0, 1.5)"),
    ([(0, np.int64(-1))], "-1"),
]


def full_batch(graph):
    """One world holding every edge of ``graph``."""
    sampler = WorldSampler(graph)
    return sampler.batch_from_masks(np.ones((1, sampler.m), dtype=bool))


def outcome(query, graph):
    """The query's outcome vector in the world holding every edge."""
    return evaluate_query_batch(query, full_batch(graph))[0]


class TestPageRank:
    def test_sums_to_one(self, small_power_law):
        pr = batch_pagerank(full_batch(small_power_law))[0]
        assert pr.sum() == pytest.approx(1.0, abs=1e-6)

    def test_uniform_on_cycle(self):
        g = UncertainGraph([(i, (i + 1) % 6, 1.0) for i in range(6)])
        pr = batch_pagerank(full_batch(g))[0]
        assert np.allclose(pr, 1 / 6, atol=1e-8)

    def test_matches_networkx(self):
        import networkx as nx

        g = flickr_like(n=40, avg_degree=8, seed=2)
        pr = batch_pagerank(full_batch(g), damping=0.85)[0]
        nx_graph = nx.Graph(list((u, v) for u, v, _ in g.edges()))
        nx_graph.add_nodes_from(g.vertices())
        expected = nx.pagerank(nx_graph, alpha=0.85, tol=1e-12, max_iter=200)
        indexer = g.vertex_indexer()
        for vertex, value in expected.items():
            assert pr[indexer[vertex]] == pytest.approx(value, abs=1e-6)

    def test_dangling_vertices_handled(self):
        g = UncertainGraph([(0, 1, 1.0)], vertices=[2])
        pr = batch_pagerank(full_batch(g))[0]
        assert pr.sum() == pytest.approx(1.0, abs=1e-6)
        assert pr[2] > 0

    def test_query_protocol(self, small_power_law):
        query = PageRankQuery(small_power_law.number_of_vertices())
        assert isinstance(query, Query)
        assert query.unit_count() == small_power_law.number_of_vertices()
        out = query.evaluate_batch(full_batch(small_power_law))
        assert out.shape == (1, query.unit_count())

    @pytest.mark.parametrize("field, value", [
        ("damping", 1.5),
        ("damping", -0.5),
        ("damping", float("nan")),
        ("damping", float("inf")),
        ("damping", True),
        ("damping", "0.85"),
        ("max_iterations", 2.5),
        ("max_iterations", True),
        ("max_iterations", 0),
        ("max_iterations", -3),
        ("n", -1),
        ("n", True),
        ("n", 4.0),
    ])
    def test_invalid_parameters(self, field, value):
        kwargs = {"n": 5, field: value}
        with pytest.raises(ValueError, match=field):
            PageRankQuery(**kwargs)

    def test_boundary_parameters_accepted(self):
        for kwargs in (
            dict(n=0), dict(n=np.int64(5)), dict(n=5, damping=0),
            dict(n=5, damping=1.0), dict(n=5, damping=np.float32(0.5)),
            dict(n=5, max_iterations=1), dict(n=5, max_iterations=np.int32(7)),
        ):
            PageRankQuery(**kwargs)


class TestShortestPath:
    def test_distances_on_path(self, path4):
        query = ShortestPathQuery([(0, 3), (1, 2)])
        out = outcome(query, path4)
        assert list(out) == [3.0, 1.0]

    def test_disconnected_pair_is_nan(self):
        g = UncertainGraph([(0, 1, 1.0), (2, 3, 1.0)])
        query = ShortestPathQuery([(0, 2)])
        out = outcome(query, g)
        assert np.isnan(out[0])

    def test_pairs_grouped_by_source(self, path4):
        query = ShortestPathQuery([(0, 1), (0, 2), (0, 3)])
        out = outcome(query, path4)
        assert list(out) == [1.0, 2.0, 3.0]

    def test_empty_pairs_rejected(self):
        for pairs, message in BAD_PAIRS:
            with pytest.raises(ValueError, match=re.escape(message)):
                ShortestPathQuery(pairs)

    def test_expected_distance_excludes_disconnecting_worlds(self):
        """SP protocol: average over connected worlds only."""
        g = UncertainGraph([(0, 1, 0.5)])
        estimator = MonteCarloEstimator(g, n_samples=500)
        result = estimator.run(ShortestPathQuery([(0, 1)]), rng=0)
        assert result.unit_estimates()[0] == pytest.approx(1.0)


class TestReliability:
    def test_deterministic_path(self, path4):
        query = ReliabilityQuery([(0, 3)])
        out = outcome(query, path4)
        assert out[0] == 1.0

    def test_disconnected(self):
        g = UncertainGraph([(0, 1, 1.0), (2, 3, 1.0)])
        query = ReliabilityQuery([(0, 3)])
        assert outcome(query, g)[0] == 0.0

    def test_empty_pairs_rejected(self):
        for pairs, message in BAD_PAIRS:
            with pytest.raises(ValueError, match=re.escape(message)):
                ReliabilityQuery(pairs)


class TestSourceDistance:
    def test_invalid_source_rejected(self):
        for source in (-1, np.int64(-1), True, 1.5, "0"):
            with pytest.raises(ValueError, match="source"):
                SourceDistanceQuery(source, 5)
        assert SourceDistanceQuery(np.int64(4), 5).source == 4


class TestClusteringAndConnectivity:
    def test_cc_query(self, triangle):
        query = ClusteringCoefficientQuery(3)
        assert np.allclose(outcome(query, triangle), 1.0)

    def test_connectivity_query(self, path4):
        assert outcome(ConnectivityQuery(), path4)[0] == 1.0

    def test_component_count_query(self):
        g = UncertainGraph([(0, 1, 1.0), (2, 3, 1.0)])
        assert outcome(ComponentCountQuery(), g)[0] == 2.0

    def test_degree_query_matches_world(self, small_power_law):
        query = DegreeQuery(small_power_law.number_of_vertices())
        degrees = np.zeros(small_power_law.number_of_vertices())
        for vertex, idx in small_power_law.vertex_indexer().items():
            degrees[idx] = small_power_law.degree(vertex)
        assert np.array_equal(outcome(query, small_power_law), degrees)

    @pytest.mark.parametrize("query", [ClusteringCoefficientQuery, DegreeQuery])
    @pytest.mark.parametrize("n", [-1, True, 2.5, "3", None])
    def test_invalid_n_rejected(self, query, n):
        with pytest.raises(ValueError, match="^n must"):
            query(n)

    @pytest.mark.parametrize("query", [ClusteringCoefficientQuery, DegreeQuery])
    def test_boundary_n_accepted(self, query):
        assert query(0).unit_count() == 0
        assert query(np.int64(5)).unit_count() == 5


class TestPairSampling:
    def test_count_and_distinctness(self, small_power_law):
        pairs = sample_vertex_pairs(small_power_law, 20, rng=0)
        assert len(pairs) == 20
        assert len(set(pairs)) == 20
        for u, v in pairs:
            assert u != v
            assert u < v  # canonical order

    def test_capped_at_max_pairs(self):
        g = UncertainGraph([(0, 1, 0.5), (1, 2, 0.5)])
        pairs = sample_vertex_pairs(g, 100, rng=0)
        assert len(pairs) == 3  # C(3, 2)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            sample_vertex_pairs(UncertainGraph(vertices=[0]), 1, rng=0)

    def test_deterministic(self, small_power_law):
        assert sample_vertex_pairs(small_power_law, 10, rng=3) == (
            sample_vertex_pairs(small_power_law, 10, rng=3)
        )
