"""k-NN in uncertain graphs (majority / median distances, [32])."""

import numpy as np
import pytest

from repro.core import UncertainGraph
from repro.queries import (
    SourceDistanceQuery,
    k_nearest_neighbors,
    majority_distances,
    median_distances,
)
from repro.sampling import MonteCarloEstimator, WorldSampler


def full_outcome(query, graph):
    """The query's outcome vector in the world holding every edge."""
    sampler = WorldSampler(graph)
    batch = sampler.batch_from_masks(np.ones((1, sampler.m), dtype=bool))
    return query.evaluate_batch(batch)[0]


class TestSourceDistanceQuery:
    def test_deterministic_path(self, path4):
        query = SourceDistanceQuery(0, 4)
        out = full_outcome(query, path4)
        assert list(out) == [0.0, 1.0, 2.0, 3.0]

    def test_unreachable_is_inf(self):
        g = UncertainGraph([(0, 1, 1.0), (2, 3, 1.0)])
        out = full_outcome(SourceDistanceQuery(0, 4), g)
        assert out[2] == np.inf and out[3] == np.inf

    @pytest.mark.parametrize("n", [-1, 2.5, True, 3.0])
    def test_rejects_a_vertex_count_that_is_not_an_index(self, n):
        with pytest.raises(ValueError, match="n must be a non-negative integer"):
            SourceDistanceQuery(0, n)

    def test_unit_count(self):
        assert SourceDistanceQuery(0, 7).unit_count() == 7

    def test_weighted_distances_are_minus_log_path_probability(self, path4):
        query = SourceDistanceQuery(0, 4, weighted=True)
        out = full_outcome(query, path4)
        # path4 probabilities: 0.9, 0.8, 0.7 along the line
        expected = [0.0, -np.log(0.9), -np.log(0.9 * 0.8), -np.log(0.9 * 0.8 * 0.7)]
        assert np.allclose(out, expected)

    def test_weighted_unreachable_is_inf(self):
        g = UncertainGraph([(0, 1, 1.0), (2, 3, 1.0)])
        out = full_outcome(SourceDistanceQuery(0, 4, weighted=True), g)
        assert out[2] == np.inf and out[3] == np.inf


class TestAggregates:
    def test_majority_takes_mode(self):
        outcomes = np.array([[1.0], [1.0], [2.0]])
        assert majority_distances(outcomes)[0] == 1.0

    def test_majority_tie_takes_smallest(self):
        outcomes = np.array([[1.0], [2.0]])
        assert majority_distances(outcomes)[0] == 1.0

    def test_majority_handles_inf(self):
        outcomes = np.array([[np.inf], [np.inf], [3.0]])
        assert majority_distances(outcomes)[0] == np.inf

    def test_median(self):
        outcomes = np.array([[1.0, 5.0], [3.0, 5.0], [2.0, np.inf]])
        med = median_distances(outcomes)
        assert med[0] == 2.0 and med[1] == 5.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_majority_matches_unique_loop(self, seed):
        # Regression for the sort-based vectorisation: exact equality
        # with the old per-column np.unique mode, ties and infs included.
        rng = np.random.default_rng(seed)
        outcomes = rng.integers(0, 4, size=(25, 12)).astype(np.float64)
        outcomes[rng.random((25, 12)) < 0.25] = np.inf
        expected = np.empty(12)
        for j in range(12):
            values, counts = np.unique(outcomes[:, j], return_counts=True)
            expected[j] = values[np.argmax(counts)]
        assert np.array_equal(majority_distances(outcomes), expected)

    def test_majority_single_sample_and_column(self):
        assert majority_distances(np.array([[4.0]]))[0] == 4.0
        assert majority_distances(np.empty((3, 0))).shape == (0,)

    def test_majority_pools_nans_like_unique(self):
        # Distances never produce nan, but the public helper keeps
        # np.unique's equal-nan pooling for arbitrary outcome matrices.
        outcomes = np.array([[np.nan, np.nan], [np.nan, 1.0], [1.0, 1.0]])
        result = majority_distances(outcomes)
        assert np.isnan(result[0]) and result[1] == 1.0


class TestKNN:
    def test_deterministic_line(self, path4):
        query = SourceDistanceQuery(0, 4)
        outcomes = np.vstack([full_outcome(query, path4)] * 5)
        assert k_nearest_neighbors(outcomes, source=0, k=2) == [1, 2]

    def test_excludes_source(self, path4):
        query = SourceDistanceQuery(0, 4)
        outcomes = np.vstack([full_outcome(query, path4)] * 3)
        assert 0 not in k_nearest_neighbors(outcomes, source=0, k=4)

    def test_unreachable_never_returned(self):
        g = UncertainGraph([(0, 1, 1.0), (2, 3, 1.0)])
        query = SourceDistanceQuery(0, 4)
        outcomes = np.vstack([full_outcome(query, g)] * 3)
        assert k_nearest_neighbors(outcomes, source=0, k=3) == [1]

    def test_invalid_aggregate(self):
        with pytest.raises(ValueError):
            k_nearest_neighbors(np.zeros((2, 3)), 0, 1, aggregate="mean")

    def test_probabilistic_knn_prefers_reliable_neighbor(self):
        """Vertex reachable with p=0.9 at distance 2 beats one at
        distance 1 with p=0.1 under the majority distance."""
        g = UncertainGraph([(0, 1, 0.1), (0, 2, 0.9), (2, 3, 0.9)])
        query = SourceDistanceQuery(0, 4)
        outcomes = MonteCarloEstimator(g, n_samples=400).run(query, rng=0).outcomes
        ranked = k_nearest_neighbors(outcomes, source=0, k=3, aggregate="majority")
        # Vertex 2 must rank first; vertex 1's majority distance is
        # infinite (reachable in only ~10% of worlds) so it is either
        # excluded or ranked after 2.
        assert ranked[0] == 2
        assert 1 not in ranked or ranked.index(1) > ranked.index(2)
