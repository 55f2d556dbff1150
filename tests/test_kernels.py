"""Ensemble traversal kernels: packed BFS and batched weighted distances.

Three contracts, all seeded:

- the bit-packed BFS kernel must return **bit-identical** distance
  matrices to the boolean-frontier oracle (``oracles.kernels``) — on
  every topology fixture, with and without the ``targets`` early exit,
  and for every built-in query class end to end;
- a call with ``targets`` returns exactly the ``(N, len(targets))``
  target columns of the untargeted matrix, in the order given, on both
  BFS kernels and the weighted kernel;
- the batched delta-stepping kernel must match the per-world
  binary-heap Dijkstra oracle within float tolerance, including
  unreachable targets and ``w = inf`` (zero-probability) edges, and be
  invariant to the estimator's chunk size.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import estimators as per_world
from oracles.kernels import BooleanBFSBatch
from oracles.worlds import World, batch_worlds, sample
from repro.core import UncertainGraph
from repro.datasets import erdos_renyi_uncertain, flickr_like
from repro.queries import (
    ClusteringCoefficientQuery,
    ComponentCountQuery,
    ConnectivityQuery,
    DegreeQuery,
    PageRankQuery,
    ReliabilityQuery,
    ShortestPathQuery,
    SourceDistanceQuery,
    evaluate_query_batch,
    sample_vertex_pairs,
)
from repro.sampling import (
    MonteCarloEstimator,
    WorldBatch,
    WorldSampler,
    most_probable_path_weights,
)
from repro.sampling.kernels import default_bucket_width

TOPOLOGY_FIXTURES = ("triangle", "path4", "figure1", "small_power_law", "small_sparse")

#: World counts straddling the uint64 word boundary.
WORLD_COUNTS = (1, 63, 64, 65)

#: The targeted-column fixtures: every topology fixture plus a certain
#: path whose far end lies 16 levels out, which takes 5 level bit-planes.
TARGETED_FIXTURES = TOPOLOGY_FIXTURES + ("certain_path17",)


@pytest.fixture
def certain_path17() -> UncertainGraph:
    """17-vertex path 0-1-...-16 with every edge at p = 1."""
    return UncertainGraph([(i, i + 1, 1.0) for i in range(16)])


def target_lists(n: int, source: int) -> list[list[int]]:
    """Targets covering the column contract: out of order, the source
    itself, a repeated vertex, and none at all."""
    return [[n - 1, source, n // 2, n - 1], [source], [n // 2, 0], []]


#: The production batch (packed BFS) and the boolean-frontier oracle.
BFS_BATCHES = {"boolean": BooleanBFSBatch, "packed": WorldBatch}


def kernel_batches(graph: UncertainGraph, n_worlds: int, seed: int):
    """The same seeded mask matrix wrapped once per BFS kernel."""
    sampler = WorldSampler(graph)
    masks = sampler.sample_mask_matrix(n_worlds, rng=seed)
    return {
        name: batch_class(
            sampler.n, sampler.edge_vertices, masks,
            edge_weights=sampler.edge_weights,
        )
        for name, batch_class in BFS_BATCHES.items()
    }


def all_query_classes(graph: UncertainGraph, seed: int = 7) -> list:
    n = graph.number_of_vertices()
    queries = [
        DegreeQuery(n),
        ConnectivityQuery(),
        ComponentCountQuery(),
        ClusteringCoefficientQuery(n),
        PageRankQuery(n),
        SourceDistanceQuery(0, n),
        SourceDistanceQuery(0, n, weighted=True),
    ]
    if n >= 2:
        pairs = sample_vertex_pairs(graph, min(6, n * (n - 1) // 2), rng=seed)
        queries.append(ReliabilityQuery(pairs))
        queries.append(ShortestPathQuery(pairs))
        queries.append(ShortestPathQuery(pairs, weighted=True))
    return queries


class TestPackedBFS:
    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    @pytest.mark.parametrize("n_worlds", WORLD_COUNTS)
    def test_bit_identical_on_every_fixture(self, fixture, n_worlds, request):
        graph = request.getfixturevalue(fixture)
        seed = TOPOLOGY_FIXTURES.index(fixture) + 31
        batches = kernel_batches(graph, n_worlds, seed=seed)
        n = graph.number_of_vertices()
        for source in {0, n // 2, n - 1}:
            expected = batches["boolean"].bfs_distances(source)
            actual = batches["packed"].bfs_distances(source)
            assert np.array_equal(expected, actual)

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    def test_bit_identical_with_targets_early_exit(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        n = graph.number_of_vertices()
        batches = kernel_batches(graph, 70, seed=11)
        for targets in ([0], [n - 1], [0, n - 1, n // 2]):
            expected = batches["boolean"].bfs_distances(0, targets=targets)
            actual = batches["packed"].bfs_distances(0, targets=targets)
            assert actual.shape == (70, len(targets))
            assert np.array_equal(expected, actual), targets

    def test_fragmented_graph_with_isolated_vertices(self):
        graph = UncertainGraph(
            [(0, 1, 0.5), (2, 3, 0.9), (4, 5, 0.3), (5, 6, 0.7), (4, 6, 0.6)],
            vertices=[7, 8],
        )
        batches = kernel_batches(graph, 130, seed=2)
        n = graph.number_of_vertices()
        for source in range(n):
            full = batches["boolean"].bfs_distances(source)
            assert np.array_equal(full, batches["packed"].bfs_distances(source))
            # Every vertex as a target, isolated ones included, last first.
            targets = list(range(n))[::-1]
            for batch in batches.values():
                assert np.array_equal(
                    batch.bfs_distances(source, targets=targets), full[:, targets]
                )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=18),
        avg_degree=st.integers(min_value=1, max_value=6),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        n_worlds=st.integers(min_value=1, max_value=80),
        source=st.integers(min_value=0, max_value=17),
    )
    def test_property_random_graphs(self, n, avg_degree, graph_seed, n_worlds, source):
        graph = erdos_renyi_uncertain(
            n, avg_degree=min(avg_degree, n - 1), rng=graph_seed
        )
        source = source % n
        batches = kernel_batches(graph, n_worlds, seed=graph_seed + 1)
        assert np.array_equal(
            batches["boolean"].bfs_distances(source),
            batches["packed"].bfs_distances(source),
        )
        full = batches["boolean"].bfs_distances(source)
        targets = [(source + 1) % n, source, (source + 1) % n]
        expected = batches["boolean"].bfs_distances(source, targets=targets)
        assert expected.shape == (n_worlds, len(targets))
        assert np.array_equal(expected, full[:, targets])
        assert np.array_equal(
            expected, batches["packed"].bfs_distances(source, targets=targets)
        )

    def test_every_query_class_identical_across_kernels(self, small_power_law):
        batches = kernel_batches(small_power_law, 40, seed=9)
        for query in all_query_classes(small_power_law):
            results = {
                name: evaluate_query_batch(query, batch)
                for name, batch in batches.items()
            }
            assert np.array_equal(
                results["boolean"], results["packed"], equal_nan=True
            ), type(query).__name__


class TestTargetedColumns:
    """A targeted call returns the untargeted matrix's target columns."""

    @pytest.mark.parametrize("fixture", TARGETED_FIXTURES)
    @pytest.mark.parametrize("n_worlds", WORLD_COUNTS)
    def test_columns_equal_untargeted_on_both_kernels(
        self, fixture, n_worlds, request
    ):
        graph = request.getfixturevalue(fixture)
        seed = TARGETED_FIXTURES.index(fixture) + 41
        batches = kernel_batches(graph, n_worlds, seed=seed)
        n = graph.number_of_vertices()
        for source in sorted({0, n // 2, n - 1}):
            full = batches["boolean"].bfs_distances(source)
            for targets in target_lists(n, source):
                want = full[:, targets]
                for name, batch in batches.items():
                    got = batch.bfs_distances(source, targets=targets)
                    assert got.dtype == np.int64
                    assert got.shape == (n_worlds, len(targets))
                    assert got.tobytes() == want.tobytes(), (name, source, targets)

    def test_far_end_of_certain_path_takes_five_planes(self, certain_path17):
        batches = kernel_batches(certain_path17, 65, seed=1)
        targets = [16, 1, 8, 15, 0, 16]
        for batch in batches.values():
            got = batch.bfs_distances(0, targets=targets)
            assert np.array_equal(got, np.tile(targets, (65, 1)))

    def test_targets_unreachable_in_some_worlds(self, path4):
        batches = kernel_batches(path4, 65, seed=3)
        full = batches["boolean"].bfs_distances(0)
        far = full[:, 3]
        assert (far == -1).any() and (far == 3).any()
        for batch in batches.values():
            assert np.array_equal(
                batch.bfs_distances(0, targets=[3, 2, 3]), full[:, [3, 2, 3]]
            )


class TestVertexIds:
    """Traversal entry points reject ids that are not integers in [0, n)."""

    @pytest.mark.parametrize("bad", ["-1", "n", "True", "1.5"])
    def test_bad_ids_rejected_by_world_and_batch(self, bad, small_power_law):
        n = small_power_law.number_of_vertices()
        vertex = {"-1": -1, "n": n, "True": True, "1.5": 1.5}[bad]
        sampler = WorldSampler(small_power_law)
        world = sample(sampler, rng=0)
        batch = sampler.sample_batch(5, rng=0)
        calls = {
            "World.bfs_distances": lambda: world.bfs_distances(vertex),
            "World.weighted_distances": lambda: world.weighted_distances(vertex),
            "World.reachable_from": lambda: world.reachable_from(vertex),
        }
        for kernel, kernel_batch in kernel_batches(small_power_law, 5, 0).items():
            calls[f"{kernel} source"] = lambda b=kernel_batch: b.bfs_distances(
                vertex
            )
            calls[f"{kernel} target"] = lambda b=kernel_batch: b.bfs_distances(
                0, targets=[1, vertex]
            )
            calls[f"{kernel} target array"] = lambda b=kernel_batch: b.bfs_distances(
                0, targets=np.array([vertex])
            )
        calls["WorldBatch.weighted_distances source"] = (
            lambda: batch.weighted_distances(vertex)
        )
        calls["WorldBatch.weighted_distances target"] = (
            lambda: batch.weighted_distances(0, targets=[vertex])
        )
        for name, call in calls.items():
            with pytest.raises(ValueError, match=re.escape(repr(vertex))):
                call()
                pytest.fail(f"{name} accepted vertex {vertex!r}")

    @pytest.mark.parametrize("production", [True, False])
    def test_pair_beyond_last_vertex_rejected(self, production, small_power_law):
        """The estimator and its per-world oracle both name the pair."""
        n = small_power_law.number_of_vertices()
        estimator = MonteCarloEstimator(small_power_law, n_samples=4)
        for query, pair in (
            (ShortestPathQuery([(0, 1), (0, n)]), (0, n)),
            (ShortestPathQuery([(n, 0)], weighted=True), (n, 0)),
            (ReliabilityQuery([(0, n)]), (0, n)),
        ):
            with pytest.raises(ValueError, match=re.escape(f"{pair!r}") + f".*n={n}"):
                if production:
                    estimator.run(query, rng=0)
                else:
                    per_world.monte_carlo_outcomes(estimator, query, rng=0)


class TestWeightTransform:
    def test_most_probable_path_weights(self):
        p = np.array([1.0, 0.5, 1e-12, 0.0, 2.0])
        w = most_probable_path_weights(p)
        assert w[0] == 0.0 and not np.signbit(w[0])
        assert w[1] == pytest.approx(np.log(2.0))
        assert w[2] == pytest.approx(-np.log(1e-12))
        assert np.isinf(w[3])
        assert w[4] == 0.0  # clipped over-unit probability
        assert (w >= 0).all()

    def test_sampler_attaches_weights_everywhere(self, triangle):
        sampler = WorldSampler(triangle)
        expected = most_probable_path_weights(sampler.probabilities)
        assert np.array_equal(sampler.edge_weights, expected)
        batch = sampler.sample_batch(4, rng=1)
        assert np.array_equal(batch.edge_weights, expected)
        world = sample(sampler, rng=1)
        assert world.edge_weights is not None
        assert np.isfinite(world.weighted_distances(0)[0])

    def test_default_bucket_width_positive(self):
        assert default_bucket_width(np.zeros(4)) == 1.0
        assert default_bucket_width(np.array([np.inf])) == 1.0
        assert default_bucket_width(np.array([0.5, 2.0])) == 2.0


class TestDeltaStepping:
    def dijkstra_reference(self, batch, source):
        return np.stack(
            [world.weighted_distances(source) for world in batch_worlds(batch)]
        )

    @pytest.mark.parametrize("fixture", TOPOLOGY_FIXTURES)
    @pytest.mark.parametrize("n_worlds", (1, 65))
    def test_matches_dijkstra_on_every_fixture(self, fixture, n_worlds, request):
        graph = request.getfixturevalue(fixture)
        batch = WorldSampler(graph).sample_batch(n_worlds, rng=5)
        n = graph.number_of_vertices()
        for source in {0, n - 1}:
            batched = batch.weighted_distances(source)
            reference = self.dijkstra_reference(batch, source)
            assert np.allclose(batched, reference, rtol=1e-9, atol=1e-12)
            for targets in target_lists(n, source):
                columns = batch.weighted_distances(source, targets=targets)
                assert columns.tobytes() == batched[:, targets].tobytes()

    def test_unreachable_targets_stay_inf(self):
        graph = UncertainGraph(
            [(0, 1, 0.5), (2, 3, 0.9), (4, 5, 0.3), (5, 6, 0.7), (4, 6, 0.6)],
            vertices=[7, 8],
        )
        batch = WorldSampler(graph).sample_batch(90, rng=4)
        for source in range(graph.number_of_vertices()):
            batched = batch.weighted_distances(source)
            reference = self.dijkstra_reference(batch, source)
            assert np.allclose(batched, reference, rtol=1e-9, atol=1e-12)
            # cross-component entries are inf in both
            assert np.array_equal(np.isinf(batched), np.isinf(reference))

    def test_zero_probability_edges_never_used(self, path4):
        # w = inf is the -log image of p = 0: the edge exists in the
        # mask but no shortest path may cross it.
        sampler = WorldSampler(path4)
        batch = sampler.sample_batch(64, rng=8)
        weights = sampler.edge_weights.copy()
        weights[1] = np.inf  # cut the middle edge 1-2 weight-wise
        batched = batch.weighted_distances(0, weights=weights)
        assert np.isinf(batched[:, 2]).all() and np.isinf(batched[:, 3]).all()
        reference = np.stack([
            World(
                sampler.n, sampler.edge_vertices, mask, edge_weights=weights
            ).weighted_distances(0)
            for mask in batch.masks
        ])
        assert np.allclose(batched, reference, rtol=1e-9, atol=1e-12)

    def test_targets_early_exit_matches_target_columns(self, small_power_law):
        batch = WorldSampler(small_power_law).sample_batch(33, rng=6)
        targets = [3, 17, 40]
        full = batch.weighted_distances(0)
        early = batch.weighted_distances(0, targets=targets)
        assert early.shape == (33, len(targets))
        assert np.allclose(early, full[:, targets], rtol=1e-9)

    def test_bucket_width_invariance(self, small_sparse):
        batch = WorldSampler(small_sparse).sample_batch(20, rng=7)
        base = batch.weighted_distances(0, delta=0.1)
        for delta in (0.03, 0.7, 5.0, 100.0):
            assert np.allclose(
                base, batch.weighted_distances(0, delta=delta), rtol=1e-9
            )

    def test_weight_validation(self, triangle):
        batch = WorldSampler(triangle).sample_batch(3, rng=0)
        with pytest.raises(ValueError):
            batch.weighted_distances(0, weights=np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            batch.weighted_distances(0, weights=np.array([0.1, -0.2, 0.3]))
        with pytest.raises(ValueError):
            batch.weighted_distances(0, delta=0.0)
        bare = WorldBatch(3, batch.topology.edge_vertices, batch.masks)
        with pytest.raises(ValueError):
            bare.weighted_distances(0)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=14),
        avg_degree=st.integers(min_value=1, max_value=5),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        mask_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_random_graphs(self, n, avg_degree, graph_seed, mask_seed):
        graph = erdos_renyi_uncertain(
            n, avg_degree=min(avg_degree, n - 1), rng=graph_seed
        )
        sampler = WorldSampler(graph)
        batch = sampler.batch_from_masks(sampler.sample_mask_matrix(10, rng=mask_seed))
        batched = batch.weighted_distances(0)
        reference = self.dijkstra_reference(batch, 0)
        assert np.allclose(batched, reference, rtol=1e-9, atol=1e-12)
        assert np.array_equal(np.isinf(batched), np.isinf(reference))


class TestWeightedQueries:
    def test_weighted_query_names(self):
        pairs = [(0, 1)]
        assert ShortestPathQuery(pairs).name == "SP"
        assert ShortestPathQuery(pairs, weighted=True).name == "WSP"
        assert SourceDistanceQuery(0, 3).name == "KNN"
        assert SourceDistanceQuery(0, 3, weighted=True).name == "WKNN"

    def test_batched_matches_legacy_estimator(self, small_power_law):
        pairs = sample_vertex_pairs(small_power_law, 8, rng=5)
        n = small_power_law.number_of_vertices()
        for query in (
            ShortestPathQuery(pairs, weighted=True),
            SourceDistanceQuery(0, n, weighted=True),
        ):
            legacy = per_world.monte_carlo_outcomes(
                MonteCarloEstimator(small_power_law, n_samples=24), query, rng=9
            )
            batched = MonteCarloEstimator(
                small_power_law, n_samples=24, batch_size=7
            ).run(query, rng=9).outcomes
            assert np.allclose(legacy, batched, rtol=1e-9, equal_nan=True)

    def test_weighted_sp_certain_path_is_log_product(self):
        # On an all-certain path the most probable path has probability
        # 1 on every edge, so the weighted distance is exactly 0.
        graph = UncertainGraph([(0, 1, 1.0), (1, 2, 1.0)])
        query = ShortestPathQuery([(0, 2)], weighted=True)
        out = MonteCarloEstimator(graph, n_samples=4).run(query, rng=0)
        assert np.allclose(out.outcomes, 0.0)

    def test_weighted_sp_value_is_minus_log_path_probability(self):
        # Two routes 0-2: direct (p=0.1) vs 0-1-2 (0.9 * 0.9): the
        # two-hop route is more probable and must win when both exist.
        graph = UncertainGraph([(0, 2, 0.1), (0, 1, 0.9), (1, 2, 0.9)])
        sampler = WorldSampler(graph)
        batch = sampler.batch_from_masks(np.ones((1, 3), dtype=bool))
        dist = batch.weighted_distances(0)
        target = graph.vertex_indexer()[2]
        assert dist[0, target] == pytest.approx(-2 * np.log(0.9))


@pytest.mark.parametrize("batch_size", [2, 4])
class TestWeightedChunkInvariance:
    """Weighted results identical for any chunk size."""

    def queries(self, graph):
        pairs = sample_vertex_pairs(graph, 6, rng=7)
        n = graph.number_of_vertices()
        return [
            ShortestPathQuery(pairs, weighted=True),
            SourceDistanceQuery(0, n, weighted=True),
        ]

    def test_outcomes_bit_identical(self, batch_size):
        graph = flickr_like(n=40, avg_degree=8, seed=5)
        for query in self.queries(graph):
            whole = MonteCarloEstimator(
                graph, n_samples=18, batch_size=18
            ).run(query, rng=3).outcomes
            chunked = MonteCarloEstimator(
                graph, n_samples=18, batch_size=batch_size
            ).run(query, rng=3).outcomes
            assert np.array_equal(whole, chunked, equal_nan=True), query.name
