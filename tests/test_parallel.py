"""Parallel batch executor: seeded determinism across worker counts.

The contract under test (the deterministic-partitioning idea): an
estimation run is split on fixed chunk boundaries and stitched back in
submission order, so the outcome matrix is a pure function of
``(seed, boundaries)`` — never of the pool schedule or worker count.

- sequential mode must be *bit-identical* to the serial batched path
  (and hence the legacy per-world loop) for every query class,
- spawn mode must be invariant to ``workers`` (though its stream
  intentionally differs from the sequential one),
- a pool that cannot start (or breaks mid-run) must fall back
  in-process with a single warning and the exact same answer.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UncertainGraph
from repro.datasets import flickr_like
from repro.exceptions import EstimationError
from repro.queries import (
    ClusteringCoefficientQuery,
    ComponentCountQuery,
    ConnectivityQuery,
    DegreeQuery,
    PageRankQuery,
    ReliabilityQuery,
    ShortestPathQuery,
    SourceDistanceQuery,
    sample_vertex_pairs,
)
from repro.sampling import (
    MonteCarloEstimator,
    ParallelBatchExecutor,
    StratifiedEstimator,
    adaptive_estimate,
    auto_chunk_size,
    chunk_counts,
    repeated_estimates,
    resolve_workers,
)
import repro.sampling.parallel as parallel_module

N_SAMPLES = 18  # deliberately not a multiple of the chunk sizes below
CHUNK = 5


@pytest.fixture(scope="module")
def graph() -> UncertainGraph:
    return flickr_like(n=40, avg_degree=8, seed=5)


def all_query_classes(graph: UncertainGraph, seed: int = 7) -> list:
    """One instance of every built-in query class (the batch-test roster)."""
    n = graph.number_of_vertices()
    pairs = sample_vertex_pairs(graph, 6, rng=seed)
    return [
        DegreeQuery(n),
        ConnectivityQuery(),
        ComponentCountQuery(),
        ClusteringCoefficientQuery(n),
        PageRankQuery(n),
        SourceDistanceQuery(0, n),
        ReliabilityQuery(pairs),
        ShortestPathQuery(pairs),
    ]


def run_outcomes(graph, query, workers, batch_size=CHUNK, n_samples=N_SAMPLES):
    estimator = MonteCarloEstimator(
        graph, n_samples=n_samples, batch_size=batch_size, workers=workers
    )
    try:
        return estimator.run(query, rng=7).outcomes
    finally:
        estimator.close()


class TestSeededDeterminism:
    """workers=1 ≡ workers=2 ≡ workers=4 ≡ PR-1 batched ≡ legacy, bit for bit."""

    def test_every_query_class_identical_across_worker_counts(self, graph):
        for query in all_query_classes(graph):
            serial = run_outcomes(graph, query, workers=1)
            legacy = MonteCarloEstimator(
                graph, n_samples=N_SAMPLES, batched=False
            ).run(query, rng=7).outcomes
            assert np.array_equal(serial, legacy, equal_nan=True), (
                f"{type(query).__name__}: serial executor != legacy per-world"
            )
            for workers in (2, 4):
                pooled = run_outcomes(graph, query, workers=workers)
                assert np.array_equal(serial, pooled, equal_nan=True), (
                    f"{type(query).__name__}: workers={workers} != workers=1"
                )

    def test_chunk_size_not_dividing_n_samples(self, graph):
        """Ragged final chunks (18 = 3*5+3 = 2*7+4) cannot change results."""
        query = ShortestPathQuery(sample_vertex_pairs(graph, 5, rng=3))
        baseline = run_outcomes(graph, query, workers=1, batch_size=N_SAMPLES)
        for batch_size in (5, 7, None):
            pooled = run_outcomes(graph, query, workers=2, batch_size=batch_size)
            assert np.array_equal(baseline, pooled, equal_nan=True), (
                f"batch_size={batch_size} changed the outcome matrix"
            )

    def test_executor_matches_pr1_batched_estimator(self, graph):
        """The executor itself reproduces the PR-1 chunked batched path."""
        query = ReliabilityQuery(sample_vertex_pairs(graph, 6, rng=4))
        pr1 = MonteCarloEstimator(
            graph, n_samples=N_SAMPLES, batch_size=CHUNK
        ).run(query, rng=9).outcomes
        with ParallelBatchExecutor(
            graph, query, workers=2, chunk_size=CHUNK
        ) as executor:
            assert np.array_equal(executor.run(N_SAMPLES, rng=9), pr1)


class TestSpawnMode:
    def test_worker_count_invariant(self, graph):
        query = PageRankQuery(graph.number_of_vertices())
        results = []
        for workers in (1, 4):
            with ParallelBatchExecutor(
                graph, query, workers=workers, chunk_size=CHUNK, rng_mode="spawn"
            ) as executor:
                results.append(executor.run(N_SAMPLES, rng=21))
        assert np.array_equal(results[0], results[1], equal_nan=True)

    def test_deterministic_under_fixed_seed(self, graph):
        query = DegreeQuery(graph.number_of_vertices())
        runs = []
        for _ in range(2):
            with ParallelBatchExecutor(
                graph, query, workers=1, chunk_size=CHUNK, rng_mode="spawn"
            ) as executor:
                runs.append(executor.run(N_SAMPLES, rng=33))
        assert np.array_equal(runs[0], runs[1])

    def test_independent_streams_differ_from_sequential(self, graph):
        """Spawned chunk streams are not the single sequential stream."""
        query = DegreeQuery(graph.number_of_vertices())
        with ParallelBatchExecutor(
            graph, query, workers=1, chunk_size=CHUNK, rng_mode="spawn"
        ) as executor:
            spawned = executor.run(N_SAMPLES, rng=7)
        sequential = run_outcomes(graph, query, workers=1)
        assert not np.array_equal(spawned, sequential, equal_nan=True)


class TestEstimatorLayers:
    """Every estimator entry point is invariant to the workers knob."""

    def test_adaptive_estimate(self, graph):
        query = ReliabilityQuery(sample_vertex_pairs(graph, 5, rng=2))
        serial = adaptive_estimate(graph, query, target_width=0.1, rng=11)
        pooled = adaptive_estimate(
            graph, query, target_width=0.1, rng=11, workers=3
        )
        assert serial == pooled

    def test_stratified(self, graph):
        query = ReliabilityQuery(sample_vertex_pairs(graph, 5, rng=2))
        estimator = StratifiedEstimator(graph, n_samples=48, r=3)
        try:
            serial = estimator.run(query, rng=13)
            pooled = estimator.run(query, rng=13, workers=3)
            repeat = estimator.run(query, rng=13, workers=3)  # reuses the pool
            legacy = estimator.run(query, rng=13, batched=False)
        finally:
            estimator.close()
        assert serial == pooled == repeat == legacy

    def test_repeated_estimates(self, graph):
        query = DegreeQuery(graph.number_of_vertices())
        serial = repeated_estimates(
            graph, query, runs=4, n_samples=12, rng=5, batch_size=CHUNK
        )
        pooled = repeated_estimates(
            graph, query, runs=4, n_samples=12, rng=5, batch_size=CHUNK,
            workers=2,
        )
        assert np.array_equal(serial, pooled)

    def test_estimator_reuses_executor_across_runs(self, graph):
        query = DegreeQuery(graph.number_of_vertices())
        estimator = MonteCarloEstimator(
            graph, n_samples=6, batch_size=3, workers=2
        )
        try:
            estimator.run(query, rng=0)
            first = estimator._executor
            estimator.run(query, rng=1)
            assert estimator._executor is first
        finally:
            estimator.close()
        assert estimator._executor is None


class TestPoolFailureFallback:
    def test_pool_start_failure_warns_once_and_matches(self, graph, monkeypatch):
        query = ShortestPathQuery(sample_vertex_pairs(graph, 5, rng=3))
        expected = run_outcomes(graph, query, workers=1)

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("fork refused")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", ExplodingPool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable") as record:
            fallback = run_outcomes(graph, query, workers=4)
        assert len(record) == 1
        assert np.array_equal(expected, fallback, equal_nan=True)

    def test_submit_failure_mid_run_falls_back(self, graph, monkeypatch):
        query = ReliabilityQuery(sample_vertex_pairs(graph, 5, rng=3))
        expected = run_outcomes(graph, query, workers=1)

        class BrokenSubmitPool:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                raise RuntimeError("worker died")

            def shutdown(self, *args, **kwargs):
                pass

        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor", BrokenSubmitPool
        )
        with pytest.warns(RuntimeWarning, match="process pool unavailable") as record:
            fallback = run_outcomes(graph, query, workers=4)
        assert len(record) == 1
        assert np.array_equal(expected, fallback, equal_nan=True)

    def test_serial_executor_never_builds_a_pool(self, graph, monkeypatch):
        query = DegreeQuery(graph.number_of_vertices())

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("workers<=1 must not touch the pool")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", forbidden)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_outcomes(graph, query, workers=1)
            run_outcomes(graph, query, workers=0)


class TestAutoBatchSizeProperties:
    """Edge-case boundaries of the chunk sizing shared by both paths."""

    @settings(max_examples=200, deadline=None)
    @given(
        n_samples=st.integers(min_value=0, max_value=10_000),
        n_edges=st.integers(min_value=0, max_value=10**7),
        n_vertices=st.integers(min_value=0, max_value=10**6),
        budget=st.integers(min_value=1, max_value=2**40),
    )
    def test_always_a_positive_chunk_within_the_run(
        self, n_samples, n_edges, n_vertices, budget
    ):
        chunk = auto_chunk_size(
            n_samples, n_edges, n_vertices=n_vertices, budget_bytes=budget
        )
        assert 1 <= chunk <= max(1, n_samples)

    @settings(max_examples=100, deadline=None)
    @given(
        n_samples=st.integers(min_value=1, max_value=10_000),
        n_edges=st.integers(min_value=0, max_value=10**5),
        n_vertices=st.integers(min_value=0, max_value=10**5),
    )
    def test_monotone_in_budget(self, n_samples, n_edges, n_vertices):
        small = auto_chunk_size(
            n_samples, n_edges, n_vertices=n_vertices, budget_bytes=1
        )
        large = auto_chunk_size(
            n_samples, n_edges, n_vertices=n_vertices, budget_bytes=2**40
        )
        assert small <= large
        assert small == 1  # budget below one world still yields a chunk
        assert large == n_samples  # unbounded budget takes the whole run

    def test_empty_and_tiny_graphs(self):
        assert auto_chunk_size(100, 0, n_vertices=0) == 100
        assert auto_chunk_size(0, 0, n_vertices=0) == 1
        assert auto_chunk_size(7, 1, n_vertices=1) == 7
        # A world bigger than the whole budget still gets a chunk of 1.
        assert auto_chunk_size(500, 10**9, budget_bytes=1) == 1


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
    def test_invalid_rng_mode(self, graph):
        with pytest.raises(EstimationError):
            ParallelBatchExecutor(graph, ConnectivityQuery(), rng_mode="magic")

    def test_invalid_chunk_size(self, graph):
        with pytest.raises(EstimationError):
            ParallelBatchExecutor(graph, ConnectivityQuery(), chunk_size=0)

    def test_invalid_workers_on_estimator(self, graph):
        with pytest.raises(EstimationError):
            MonteCarloEstimator(graph, n_samples=5, workers=-1)

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_zero_samples_and_empty_mask_stream(self, graph):
        query = ConnectivityQuery()
        with ParallelBatchExecutor(graph, query, workers=1) as executor:
            assert executor.run(0, rng=0).shape == (0, 1)
            assert executor.map_masks([]).shape == (0, 1)
            with pytest.raises(EstimationError):
                executor.run(-1, rng=0)

    def test_map_masks_stitches_in_chunk_order(self, graph):
        """map_masks must return rows in submission order, pool or not."""
        query = DegreeQuery(graph.number_of_vertices())
        sampler_masks = np.random.default_rng(0).random(
            (12, graph.number_of_edges())
        ) < 0.5
        chunks = [sampler_masks[0:5], sampler_masks[5:10], sampler_masks[10:12]]
        with ParallelBatchExecutor(graph, query, workers=1) as serial:
            expected = serial.map_masks(chunks)
        with ParallelBatchExecutor(graph, query, workers=3) as pooled:
            stitched = pooled.map_masks(chunks)
        assert np.array_equal(expected, stitched, equal_nan=True)


class TestStratumWeightCache:
    def test_weights_pinned_and_cached(self, triangle):
        """Regression: triangle probabilities (0.5, 0.25, 1.0), r=2 conditions
        the two highest-entropy edges (0.5 then 0.25)."""
        estimator = StratifiedEstimator(triangle, n_samples=16, r=2)
        conditioned_p = estimator.sampler.probabilities[estimator.conditioned]
        assert np.allclose(sorted(conditioned_p), [0.25, 0.5])
        weights = estimator.stratum_weights()
        assert weights == pytest.approx([0.375, 0.125, 0.375, 0.125])
        assert weights.sum() == pytest.approx(1.0)
        # All 2^r weights are memoised after one sweep, and a second
        # sweep returns the same values without recomputation.
        assert len(estimator._weights) == 4
        cached = dict(estimator._weights)
        assert np.array_equal(estimator.stratum_weights(), weights)
        assert estimator._weights == cached

    def test_r_zero_single_stratum(self, triangle):
        estimator = StratifiedEstimator(triangle, n_samples=8, r=0)
        assert estimator.stratum_weights() == pytest.approx([1.0])


class TestExecutorLifecycle:
    """No process pool outlives a completed job batch (the server contract)."""

    def test_close_reaps_pool(self, graph):
        import multiprocessing

        baseline = parallel_module.active_pool_count()
        children_before = set(multiprocessing.active_children())
        query = DegreeQuery(graph.number_of_vertices())
        with ParallelBatchExecutor(
            graph, query, workers=2, chunk_size=CHUNK
        ) as executor:
            executor.run(N_SAMPLES, rng=0)
            assert parallel_module.active_pool_count() == baseline + 1
        assert parallel_module.active_pool_count() == baseline
        assert executor._pool is None
        # close(wait=True) reaps the worker processes themselves, not
        # just the executor handle.
        assert set(multiprocessing.active_children()) <= children_before

    def test_estimator_context_manager_reaps_pool(self, graph):
        baseline = parallel_module.active_pool_count()
        query = DegreeQuery(graph.number_of_vertices())
        with MonteCarloEstimator(
            graph, n_samples=N_SAMPLES, batch_size=CHUNK, workers=2
        ) as estimator:
            estimator.run(query, rng=0)
            assert parallel_module.active_pool_count() == baseline + 1
        assert estimator._executor is None
        assert parallel_module.active_pool_count() == baseline

    def test_close_is_idempotent_and_reusable(self, graph):
        query = DegreeQuery(graph.number_of_vertices())
        executor = ParallelBatchExecutor(graph, query, workers=2, chunk_size=CHUNK)
        first = executor.run(N_SAMPLES, rng=4)
        executor.close()
        executor.close()
        # A closed executor lazily rebuilds its pool on the next run.
        again = executor.run(N_SAMPLES, rng=4)
        executor.close()
        assert np.array_equal(first, again, equal_nan=True)

    def test_serial_executor_registers_no_pool(self, graph):
        baseline = parallel_module.active_pool_count()
        query = DegreeQuery(graph.number_of_vertices())
        with ParallelBatchExecutor(graph, query, workers=1) as executor:
            executor.run(N_SAMPLES, rng=0)
            assert parallel_module.active_pool_count() == baseline
