"""Chunked Monte-Carlo execution: seeded determinism across chunk sizes.

The contract under test: an estimation run is split on fixed chunk
boundaries (:func:`repro.sampling.chunk_counts`), each chunk's masks are
drawn from the single RNG stream in chunk order and the outcome rows
are stitched back in that order
(:func:`repro.sampling.evaluate_chunks`), so the outcome matrix is a
pure function of the seed — never of the chunk size — and every
estimator entry point that runs the chunk loop inherits that.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import estimators as per_world
from repro.core import UncertainGraph
from repro.datasets import flickr_like
from repro.exceptions import EstimationError
from repro.queries import (
    ConnectivityQuery,
    DegreeQuery,
    ReliabilityQuery,
    ShortestPathQuery,
    evaluate_query_batch,
    sample_vertex_pairs,
)
from repro.sampling import (
    MonteCarloEstimator,
    StratifiedEstimator,
    WorldSampler,
    adaptive_estimate,
    chunk_counts,
    evaluate_chunks,
    repeated_estimates,
)
from repro.sampling.batch import BATCH_BYTES_ENV

N_SAMPLES = 18  # deliberately not a multiple of the chunk sizes below
CHUNK = 5


@pytest.fixture(scope="module")
def graph() -> UncertainGraph:
    return flickr_like(n=40, avg_degree=8, seed=5)


class TestSeededDeterminism:
    def test_chunk_size_not_dividing_n_samples(self, graph):
        """Ragged final chunks (18 = 3*5+3 = 2*7+4) cannot change results."""
        query = ShortestPathQuery(sample_vertex_pairs(graph, 5, rng=3))
        sampler = WorldSampler(graph)
        baseline = evaluate_chunks(
            sampler, query, N_SAMPLES, rng=7, chunk_size=N_SAMPLES
        )
        for chunk_size in (1, 5, 7, None):
            chunked = evaluate_chunks(
                sampler, query, N_SAMPLES, rng=7, chunk_size=chunk_size
            )
            assert np.array_equal(baseline, chunked, equal_nan=True), (
                f"chunk_size={chunk_size} changed the outcome matrix"
            )

    def test_executor_matches_pr1_batched_estimator(self, graph):
        """The chunk loop is the estimator's run, and both equal the
        per-world loop."""
        query = ReliabilityQuery(sample_vertex_pairs(graph, 6, rng=4))
        chunked = evaluate_chunks(
            WorldSampler(graph), query, N_SAMPLES, rng=9, chunk_size=CHUNK
        )
        estimator = MonteCarloEstimator(
            graph, n_samples=N_SAMPLES, batch_size=CHUNK
        )
        run = estimator.run(query, rng=9).outcomes
        legacy = per_world.monte_carlo_outcomes(estimator, query, rng=9)
        assert np.array_equal(chunked, run)
        assert np.array_equal(chunked, legacy)


class TestEstimatorLayers:
    """Every estimator entry point is invariant to the chunk size."""

    def test_adaptive_estimate(self, graph, monkeypatch):
        query = ReliabilityQuery(sample_vertex_pairs(graph, 5, rng=2))
        default = adaptive_estimate(graph, query, target_width=0.1, rng=11)
        # A one-byte budget forces one-world chunks on every draw.
        monkeypatch.setenv(BATCH_BYTES_ENV, "1")
        single = adaptive_estimate(graph, query, target_width=0.1, rng=11)
        assert default == single

    def test_stratified(self, graph, monkeypatch):
        query = ReliabilityQuery(sample_vertex_pairs(graph, 5, rng=2))
        estimator = StratifiedEstimator(graph, n_samples=48, r=3)
        default = estimator.run(query, rng=13)
        repeat = estimator.run(query, rng=13)
        legacy = per_world.stratified_run(estimator, query, rng=13)
        monkeypatch.setenv(BATCH_BYTES_ENV, "1")
        single = estimator.run(query, rng=13)
        assert default == repeat == legacy == single

    def test_repeated_estimates(self, graph):
        query = DegreeQuery(graph.number_of_vertices())
        chunked = repeated_estimates(
            graph, query, runs=4, n_samples=12, rng=5, batch_size=CHUNK
        )
        auto = repeated_estimates(graph, query, runs=4, n_samples=12, rng=5)
        legacy = per_world.repeated_estimates(
            graph, query, runs=4, n_samples=12, rng=5
        )
        assert np.array_equal(chunked, auto)
        assert np.array_equal(chunked, legacy)


class TestChunkCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        n_samples=st.integers(min_value=0, max_value=10_000),
        chunk=st.integers(min_value=1, max_value=10_000),
    )
    def test_partition_covers_run_exactly(self, n_samples, chunk):
        counts = chunk_counts(n_samples, chunk)
        assert sum(counts) == n_samples
        assert all(1 <= c <= chunk for c in counts)
        assert all(c == chunk for c in counts[:-1])

    def test_rejects_bad_arguments(self):
        with pytest.raises(EstimationError):
            chunk_counts(-1, 4)
        with pytest.raises(EstimationError):
            chunk_counts(10, 0)


class TestValidationAndEdges:
    def test_invalid_chunk_size(self, graph):
        sampler = WorldSampler(graph)
        for chunk_size in (0, -3):
            with pytest.raises(EstimationError):
                evaluate_chunks(
                    sampler, ConnectivityQuery(), 4, rng=0, chunk_size=chunk_size
                )

    def test_invalid_workers_on_estimator(self, graph):
        for workers in (-1, 0, 2, None, True):
            with pytest.raises(EstimationError, match="workers"):
                MonteCarloEstimator(graph, n_samples=5, workers=workers)
        MonteCarloEstimator(graph, n_samples=5, workers=1)

    def test_zero_samples_and_empty_mask_stream(self, graph):
        query = ConnectivityQuery()
        sampler = WorldSampler(graph)
        assert evaluate_chunks(sampler, query, 0, rng=0).shape == (0, 1)
        conditioned = (np.array([0, 1]), (True, False))
        assert evaluate_chunks(
            sampler, query, 0, rng=0, fixed_edges=conditioned
        ).shape == (0, 1)
        with pytest.raises(EstimationError):
            evaluate_chunks(sampler, query, -1, rng=0)

    def test_map_masks_stitches_in_chunk_order(self, graph):
        """Rows come back in draw order, conditioned columns overwritten."""
        query = DegreeQuery(graph.number_of_vertices())
        sampler = WorldSampler(graph)
        columns = np.array([0, 3, 7])
        values = (True, False, True)
        rng = np.random.default_rng(0)
        expected = []
        for count in (5, 5, 2):
            masks = rng.random((count, sampler.m)) < sampler.probabilities
            masks[:, columns] = values
            expected.append(
                evaluate_query_batch(query, sampler.batch_from_masks(masks))
            )
        stitched = evaluate_chunks(
            sampler, query, 12, rng=0, chunk_size=5,
            fixed_edges=(columns, values),
        )
        assert np.array_equal(np.concatenate(expected), stitched)
