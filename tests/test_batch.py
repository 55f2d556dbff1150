"""World-ensemble engine: seeded equivalence with the per-world oracle.

The batch kernels promise *bit-identical* results to evaluating each
world on its own through the per-world protocol of ``tests/oracles/``.
These tests hold every built-in query to that contract on random
graphs, and check that the estimator layers (Monte-Carlo, adaptive,
stratified) return what their world-at-a-time loops return, for any
chunk size, under a fixed seed.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import estimators as per_world
from oracles.queries import evaluate, world_pagerank
from oracles.worlds import batch_worlds, sample_mask
from repro.core import UncertainGraph
from repro.datasets import (
    erdos_renyi_uncertain,
    flickr_like,
    forest_fire_like_arrays,
)
from repro.datasets.binary_io import read_binary, write_binary_arrays
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
    batch_pagerank,
    evaluate_query_batch,
    sample_vertex_pairs,
)
from repro.sampling import (
    BatchTopology,
    MonteCarloEstimator,
    StratifiedEstimator,
    WorldBatch,
    WorldSampler,
    adaptive_estimate,
    auto_chunk_size,
    evaluate_chunks,
)
from repro.sampling import batch as batch_module
from repro.sampling.batch import (
    BATCH_BYTES_ENV,
    DEFAULT_BATCH_BYTES,
    _label_index_dtype,
    kernel_world_bytes,
)


def all_queries(graph: UncertainGraph, seed: int = 7) -> list:
    """One instance of every built-in query class for ``graph``."""
    n = graph.number_of_vertices()
    queries = [
        DegreeQuery(n),
        ConnectivityQuery(),
        ComponentCountQuery(),
        ClusteringCoefficientQuery(n),
        PageRankQuery(n),
        SourceDistanceQuery(0, n),
    ]
    if n >= 2:
        pairs = sample_vertex_pairs(graph, min(6, n * (n - 1) // 2), rng=seed)
        queries.append(ReliabilityQuery(pairs))
        queries.append(ShortestPathQuery(pairs))
    return queries


def assert_batch_matches_legacy(graph: UncertainGraph, masks: np.ndarray) -> None:
    sampler = WorldSampler(graph)
    batch = sampler.batch_from_masks(masks)
    for query in all_queries(graph):
        batched = evaluate_query_batch(query, batch)
        legacy = np.stack([evaluate(query, w) for w in batch_worlds(batch)])
        assert batched.shape == (batch.n_worlds, query.unit_count())
        assert np.array_equal(batched, legacy, equal_nan=True), (
            f"{type(query).__name__} batched != per-world"
        )


class TestKernelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=18),
        avg_degree=st.integers(min_value=1, max_value=6),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        mask_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_every_query_class_matches_per_world(
        self, n, avg_degree, graph_seed, mask_seed
    ):
        graph = erdos_renyi_uncertain(
            n, avg_degree=min(avg_degree, n - 1), rng=graph_seed
        )
        m = graph.number_of_edges()
        rng = np.random.default_rng(mask_seed)
        masks = rng.random((12, max(m, 0))) < rng.random(max(m, 0))
        assert_batch_matches_legacy(graph, masks)

    def test_extreme_masks_and_fragments(self):
        graph = UncertainGraph(
            [(0, 1, 0.5), (2, 3, 0.9), (4, 5, 0.3), (5, 6, 0.7), (4, 6, 0.6)],
            vertices=[7, 8],
        )
        m = graph.number_of_edges()
        rng = np.random.default_rng(0)
        masks = rng.random((16, m)) < 0.5
        masks[0] = False  # the empty world
        masks[1] = True   # the full world
        assert_batch_matches_legacy(graph, masks)

    def test_dense_graph_with_triangles(self):
        graph = erdos_renyi_uncertain(20, avg_degree=10, rng=1)
        masks = np.random.default_rng(2).random(
            (10, graph.number_of_edges())
        ) < 0.6
        assert_batch_matches_legacy(graph, masks)

    def test_structural_kernels_match_world(self, small_power_law):
        sampler = WorldSampler(small_power_law)
        batch = sampler.sample_batch(8, rng=3)
        worlds = list(batch_worlds(batch))
        assert np.array_equal(
            batch.degrees(), np.stack([w.degrees() for w in worlds])
        )
        assert np.array_equal(
            batch.masks.sum(axis=1), [w.number_of_edges() for w in worlds]
        )
        assert np.array_equal(
            batch.bfs_distances(0), np.stack([w.bfs_distances(0) for w in worlds])
        )
        assert np.array_equal(
            batch.is_connected(), [w.is_connected() for w in worlds]
        )
        assert np.array_equal(
            batch.connected_component_count(),
            [w.connected_component_count() for w in worlds],
        )
        assert np.array_equal(
            batch.clustering_coefficients(),
            np.stack([w.clustering_coefficients() for w in worlds]),
        )

    def test_fallback_adapter_for_plain_queries(self, triangle):
        """A query without ``evaluate_batch`` is rejected by name, before
        any world is drawn."""

        class EdgeCountQuery:
            name = "M"

            def unit_count(self):
                return 1

            def evaluate(self, world):
                return np.array([float(world.number_of_edges())])

        query = EdgeCountQuery()
        message = "EdgeCountQuery has no evaluate_batch"
        sampler = WorldSampler(triangle)
        with pytest.raises(EstimationError, match=message):
            evaluate_query_batch(query, sampler.sample_batch(10, rng=5))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        for n_samples in (0, 10):
            with pytest.raises(EstimationError, match=message):
                evaluate_chunks(sampler, query, n_samples, rng=rng)
        assert rng.bit_generator.state == state
        for run in (
            lambda: MonteCarloEstimator(triangle, n_samples=4).run(query, rng=0),
            lambda: adaptive_estimate(triangle, query, target_width=0.1, rng=0),
            lambda: StratifiedEstimator(triangle, n_samples=8, r=2).run(query, rng=0),
        ):
            with pytest.raises(EstimationError, match=message):
                run()


def smallest_vertex_labels(world) -> np.ndarray:
    """Per-world oracle: each vertex labelled with its component's min id."""
    labels = np.full(world.n, -1, dtype=np.int64)
    for vertex in range(world.n):
        if labels[vertex] < 0:
            # Ascending scan: the first unlabelled vertex of a component
            # is its smallest id.
            labels[world.reachable_from(vertex)] = vertex
    return labels


def assert_labels_match_worlds(batch: WorldBatch) -> None:
    labels = batch.component_labels()
    assert labels.dtype == np.int32
    assert labels.shape == (batch.n_worlds, batch.n)
    for i, world in enumerate(batch_worlds(batch)):
        assert np.array_equal(labels[i], smallest_vertex_labels(world)), (
            f"world {i}"
        )


def per_edge_triangle_table(topology) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``triangle_table()``: one wedge scan per parent edge."""
    n, m = topology.n, topology.m
    u, v = topology.edge_vertices[:, 0], topology.edge_vertices[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = lo * n + hi
    key_order = np.argsort(keys, kind="stable")
    sorted_keys = keys[key_order]
    corners: list[np.ndarray] = []
    edge_ids: list[np.ndarray] = []
    indptr, indices, dir_edge = topology.indptr, topology.indices, topology.dir_edge
    for eid in range(m):
        a, b = int(lo[eid]), int(hi[eid])
        nbrs_b = indices[indptr[b]:indptr[b + 1]]
        eids_b = dir_edge[indptr[b]:indptr[b + 1]]
        # Close the wedge a-b-w with w > b so each triangle anchors at
        # its lexicographically smallest edge.
        grow = nbrs_b > b
        if not grow.any():
            continue
        cand_w = nbrs_b[grow]
        probe = np.searchsorted(sorted_keys, a * n + cand_w)
        probe = np.minimum(probe, m - 1)
        closed = sorted_keys[probe] == a * n + cand_w
        if not closed.any():
            continue
        w_ids = cand_w[closed]
        corners.append(np.stack([
            np.full(len(w_ids), a), np.full(len(w_ids), b), w_ids,
        ], axis=1))
        edge_ids.append(np.stack([
            np.full(len(w_ids), eid),
            key_order[probe[closed]],
            eids_b[grow][closed],
        ], axis=1))
    if not corners:
        return (np.empty((0, 3), dtype=np.int64), np.empty((0, 3), dtype=np.int64))
    return (
        np.concatenate(corners).astype(np.int64),
        np.concatenate(edge_ids).astype(np.int64),
    )


def assert_triangle_table_matches_loop(graph: UncertainGraph) -> None:
    topology = BatchTopology(graph.number_of_vertices(), graph.edge_index_array())
    got = topology.triangle_table()
    want = per_edge_triangle_table(topology)
    for got_part, want_part in zip(got, want):
        assert got_part.dtype == np.int64
        assert got_part.shape == want_part.shape
        assert np.array_equal(got_part, want_part)


class TestComponentLabels:
    """``component_labels()`` against a per-world reachability oracle."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=18),
        avg_degree=st.integers(min_value=1, max_value=6),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        mask_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_graphs(self, n, avg_degree, graph_seed, mask_seed):
        graph = erdos_renyi_uncertain(
            n, avg_degree=min(avg_degree, n - 1), rng=graph_seed
        )
        m = graph.number_of_edges()
        rng = np.random.default_rng(mask_seed)
        masks = rng.random((12, m)) < rng.random(m)
        assert_labels_match_worlds(WorldSampler(graph).batch_from_masks(masks))

    def test_empty_full_and_isolated(self):
        graph = UncertainGraph(
            [(0, 1, 0.5), (2, 3, 0.9), (4, 5, 0.3), (5, 6, 0.7), (4, 6, 0.6)],
            vertices=[7, 8],
        )
        m, n = graph.number_of_edges(), graph.number_of_vertices()
        masks = np.random.default_rng(0).random((16, m)) < 0.5
        masks[0] = False  # the empty world: every vertex its own label
        masks[1] = True   # the full world
        batch = WorldSampler(graph).batch_from_masks(masks)
        assert_labels_match_worlds(batch)
        assert np.array_equal(batch.component_labels()[0], np.arange(n))

    def test_no_edges(self):
        graph = UncertainGraph([], vertices=[0, 1, 2])
        masks = np.zeros((4, 0), dtype=bool)
        batch = WorldSampler(graph).batch_from_masks(masks)
        assert_labels_match_worlds(batch)
        assert np.array_equal(
            batch.component_labels(), np.tile(np.arange(3), (4, 1))
        )

    def test_no_worlds(self, triangle):
        masks = np.zeros((0, 3), dtype=bool)
        batch = WorldSampler(triangle).batch_from_masks(masks)
        labels = batch.component_labels()
        assert labels.shape == (0, 3) and labels.dtype == np.int32
        assert batch.connected_component_count().shape == (0,)

    def test_binary_rows_out_of_order(self, tmp_path):
        """Rows as a binary file stores them (shuffled, either
        orientation): the labelling reads the mask columns in the order
        that makes the first endpoints ascend."""
        base = flickr_like(n=40, avg_degree=5, seed=3)
        rng = np.random.default_rng(9)
        order = rng.permutation(base.number_of_edges())
        ends = base.edge_index_array()[order]
        flip = rng.random(len(ends)) < 0.5
        ends[flip] = ends[flip][:, ::-1]
        path = tmp_path / "g.rpbg"
        write_binary_arrays(path, base.number_of_vertices(), ends[:, 0],
                            ends[:, 1], base.probability_array()[order])
        graph = read_binary(path, mmap=True).graph()
        assert graph.edge_index_array().tolist() == ends.tolist()

        masks = rng.random((24, len(ends))) < 0.4
        batch = WorldSampler(graph).batch_from_masks(masks)
        assert batch.topology.tail_order is not None
        assert_labels_match_worlds(batch)
        # The same worlds over the canonical rows: the same labels.
        canonical = WorldSampler(base).batch_from_masks(
            masks[:, np.argsort(order)]
        )
        assert canonical.topology.tail_order is None
        assert np.array_equal(
            batch.component_labels(), canonical.component_labels()
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=18),
        avg_degree=st.integers(min_value=1, max_value=6),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        row_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_row_permutations(self, n, avg_degree, graph_seed, row_seed):
        graph = erdos_renyi_uncertain(
            n, avg_degree=min(avg_degree, n - 1), rng=graph_seed
        )
        m = graph.number_of_edges()
        rng = np.random.default_rng(row_seed)
        ends = graph.edge_index_array()[rng.permutation(m)]
        flip = rng.random(m) < 0.5
        ends[flip] = ends[flip][:, ::-1]
        masks = rng.random((12, m)) < rng.random(m)
        assert_labels_match_worlds(WorldBatch(n, ends, masks))

    def test_index_dtype_switches_at_2_31(self):
        """int32 indices while every node id and row pointer fits."""
        limit = 2**31 - 1
        assert _label_index_dtype(limit, limit) is np.int32
        assert _label_index_dtype(limit + 1, 0) is np.int64
        assert _label_index_dtype(0, limit + 1) is np.int64

    def test_wide_indices_give_the_same_labels(self, monkeypatch):
        """The labelling asks for its index dtype with the node count and
        the alive count, and int64 indices label the same."""
        graph = erdos_renyi_uncertain(30, avg_degree=3, rng=4)
        masks = np.random.default_rng(2).random((9, graph.number_of_edges())) < 0.6
        narrow = WorldSampler(graph).batch_from_masks(masks).component_labels()
        asked = []

        def wide(nodes, entries):
            asked.append((nodes, entries))
            return np.int64

        monkeypatch.setattr(batch_module, "_label_index_dtype", wide)
        labels = WorldSampler(graph).batch_from_masks(masks).component_labels()
        assert asked == [(9 * 30, int(masks.sum()))]
        assert labels.dtype == np.int32
        assert np.array_equal(labels, narrow)


class TestTriangleTable:
    """``triangle_table()`` row for row against the per-edge loop."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=18),
        avg_degree=st.integers(min_value=1, max_value=10),
        graph_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_graphs(self, n, avg_degree, graph_seed):
        assert_triangle_table_matches_loop(erdos_renyi_uncertain(
            n, avg_degree=min(avg_degree, n - 1), rng=graph_seed
        ))

    def test_dense_graph(self):
        graph = erdos_renyi_uncertain(20, avg_degree=10, rng=1)
        assert_triangle_table_matches_loop(graph)
        topology = BatchTopology(20, graph.edge_index_array())
        assert len(topology.triangle_table()[0]) > 0

    def test_graph_without_triangles(self):
        # A 4-cycle plus a pendant path: wedges everywhere, no triangle.
        graph = UncertainGraph(
            [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5), (3, 4, 0.5)]
        )
        assert_triangle_table_matches_loop(graph)
        corners, _ = BatchTopology(5, graph.edge_index_array()).triangle_table()
        assert corners.shape == (0, 3)

    def test_no_edges(self):
        assert_triangle_table_matches_loop(UncertainGraph([], vertices=[0, 1, 2]))


def assert_pagerank_matches_worlds(batch: WorldBatch, **kwargs) -> None:
    """``batch_pagerank`` byte for byte against stacked ``world_pagerank``."""
    got = batch_pagerank(batch, **kwargs)
    want = np.stack([world_pagerank(w, **kwargs) for w in batch_worlds(batch)])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def iterations_run(world, **kwargs) -> int:
    """Power iterations ``world_pagerank`` runs before it stops.

    The smallest ``max_iterations`` that already returns the final bytes
    (each iteration moves a vector that has not met ``tol``).
    """
    final = world_pagerank(world, **kwargs).tobytes()
    lo, hi = 1, kwargs["max_iterations"]
    while lo < hi:
        mid = (lo + hi) // 2
        capped = world_pagerank(world, **dict(kwargs, max_iterations=mid))
        if capped.tobytes() == final:
            hi = mid
        else:
            lo = mid + 1
    return lo


def density_sweep_batch(n: int = 300, worlds: int = 24, seed: int = 3) -> WorldBatch:
    """Low-probability ring-plus-chords graph, worlds from empty to full.

    Every vertex sits on the ring, so the full world has no dangling
    vertex and the empty world has ``n``; the densities between give
    dangling counts on every side of numpy's pairwise-summation
    thresholds (8 and 128).
    """
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n, float(rng.uniform(0.05, 0.3))) for i in range(n)]
    chords: set[tuple[int, int]] = set()
    while len(chords) < n:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if (u - v) % n not in (0, 1, n - 1):
            chords.add((min(u, v), max(u, v)))
    edges += [(u, v, float(rng.uniform(0.05, 0.3))) for u, v in sorted(chords)]
    sampler = WorldSampler(UncertainGraph(edges))
    density = np.linspace(0.0, 1.0, worlds)[:, None]
    return sampler.batch_from_masks(rng.random((worlds, sampler.m)) < density)


class TestPageRankKernel:
    """``batch_pagerank`` against per-world ``world_pagerank``, byte for byte."""

    def test_query_sized_forest_fire_ensemble(self):
        n, src, dst, prob = forest_fire_like_arrays(500, avg_degree=20, rng=1000)
        graph = UncertainGraph.from_edge_arrays(
            range(n), np.stack([src, dst], axis=1), prob
        )
        batch = WorldSampler(graph).sample_batch(60, rng=4)
        assert_pagerank_matches_worlds(batch, max_iterations=60)

    def test_dangling_counts_across_summation_shapes(self):
        batch = density_sweep_batch()
        counts = (batch.degrees() == 0).sum(axis=1)
        assert (counts == 0).any()
        assert ((counts >= 1) & (counts <= 8)).any()
        assert ((counts >= 9) & (counts <= 128)).any()
        assert (counts > 128).any()
        assert_pagerank_matches_worlds(batch)

    # (1e-6, 66) stops worlds that are still running after a compaction.
    @pytest.mark.parametrize(
        "tol, max_iterations", [(1e-6, 100), (1e-6, 66), (1e-4, 100)]
    )
    def test_worlds_freezing_at_different_iterations(self, tol, max_iterations):
        batch = density_sweep_batch()
        kwargs = dict(tol=tol, max_iterations=max_iterations)
        runs = np.array([iterations_run(w, **kwargs) for w in batch_worlds(batch)])
        worlds = len(runs)
        # A partly frozen block: the first worlds to stop are fewer than half.
        first = runs == runs.min()
        assert 0 < first.sum() and 2 * first.sum() < worlds
        # A compaction with worlds still running behind it.
        assert np.sort(runs)[(worlds - 1) // 2] < runs.max()
        assert_pagerank_matches_worlds(batch, **kwargs)

    def test_zero_worlds_on_one_vertex(self):
        sampler = WorldSampler(UncertainGraph([], vertices=[0]))
        batch = sampler.batch_from_masks(np.zeros((0, 0), dtype=bool))
        out = batch_pagerank(batch)
        assert out.shape == (0, 1) and out.dtype == np.float64
        assert evaluate_query_batch(PageRankQuery(1), batch).shape == (0, 1)
        # Worlds without a single alive edge push through an empty bincount.
        assert_pagerank_matches_worlds(
            sampler.batch_from_masks(np.zeros((3, 0), dtype=bool))
        )

    def test_grouped_row_sums_match_one_dimensional_sums(self):
        """The dangling-mass identity: ``(rows, c).sum(axis=1)`` is ``.sum()`` per row."""
        rng = np.random.default_rng(11)
        order_matters = False
        for count in range(1, 301):
            values = rng.random((3, count)) * 10.0 ** rng.integers(-8, 3, (3, count))
            flat = values.ravel()
            idx = np.arange(3)[:, None] * count + np.arange(count)
            grouped = flat[idx].sum(axis=1)
            for row in range(3):
                one_d = values[row][np.ones(count, dtype=bool)].sum()
                assert grouped[row].tobytes() == one_d.tobytes(), count
                order_matters |= np.cumsum(values[row])[-1] != one_d
        # Left-to-right summation differs somewhere: the grouping is pinned.
        assert order_matters


class TestSampling:
    def test_mask_matrix_matches_sequential_stream(self, small_power_law):
        sampler = WorldSampler(small_power_law)
        matrix = sampler.sample_mask_matrix(9, rng=123)
        sequential_rng = np.random.default_rng(123)
        sequential = np.stack(
            [sample_mask(sampler, sequential_rng) for _ in range(9)]
        )
        assert np.array_equal(matrix, sequential)

    def test_batch_shares_topology_across_chunks(self, triangle):
        sampler = WorldSampler(triangle)
        a = sampler.sample_batch(3, rng=0)
        b = sampler.sample_batch(3, rng=1)
        assert a.topology is b.topology

    def test_mask_shape_validated(self, triangle):
        sampler = WorldSampler(triangle)
        with pytest.raises(ValueError):
            sampler.batch_from_masks(np.ones((4, 5), dtype=bool))
        with pytest.raises(ValueError):
            WorldBatch(3, sampler.edge_vertices, np.ones(3, dtype=bool))


class TestEstimatorEquivalence:
    def test_chunked_equals_single_batch_equals_legacy(self, small_power_law):
        pairs = sample_vertex_pairs(small_power_law, 8, rng=5)
        for query in (
            ReliabilityQuery(pairs),
            ShortestPathQuery(pairs),
            PageRankQuery(small_power_law.number_of_vertices()),
        ):
            legacy = per_world.monte_carlo_outcomes(
                MonteCarloEstimator(small_power_law, n_samples=30), query, rng=9
            )
            one_batch = MonteCarloEstimator(
                small_power_law, n_samples=30, batch_size=30
            ).run(query, rng=9).outcomes
            chunked = MonteCarloEstimator(
                small_power_law, n_samples=30, batch_size=7
            ).run(query, rng=9).outcomes
            assert np.array_equal(legacy, one_batch, equal_nan=True)
            assert np.array_equal(legacy, chunked, equal_nan=True)

    def test_outcome_width_must_match_unit_count(self, small_power_law):
        class TwoCountsQuery:
            name = "TWO"

            def unit_count(self):
                return 2

            def evaluate(self, world):
                return np.array([float(world.number_of_edges())])

            def evaluate_batch(self, batch):
                return batch.masks.sum(axis=1).astype(np.float64)[:, None]

        assert small_power_law.number_of_vertices() == 60
        for query in (
            PageRankQuery(10), ClusteringCoefficientQuery(10), DegreeQuery(10),
            TwoCountsQuery(),
        ):
            message = rf"{type(query).__name__} .* unit_count\(\) is {query.unit_count()}"
            # The production estimators, then their per-world oracles.
            runs = (
                lambda: MonteCarloEstimator(
                    small_power_law, n_samples=4
                ).run(query, rng=0),
                lambda: adaptive_estimate(
                    small_power_law, query, target_width=0.1, rng=0
                ),
                lambda: StratifiedEstimator(
                    small_power_law, n_samples=8, r=2
                ).run(query, rng=0),
                lambda: per_world.monte_carlo_outcomes(
                    MonteCarloEstimator(small_power_law, n_samples=4), query, rng=0
                ),
                lambda: per_world.adaptive_estimate(
                    small_power_law, query, target_width=0.1, rng=0
                ),
                lambda: per_world.stratified_run(
                    StratifiedEstimator(small_power_law, n_samples=8, r=2),
                    query, rng=0,
                ),
            )
            for run in runs:
                with pytest.raises(EstimationError, match=message):
                    run()

    def test_invalid_batch_size(self, triangle):
        for batch_size in (0, 2.5, True, "4"):
            with pytest.raises(EstimationError, match="batch_size"):
                MonteCarloEstimator(triangle, n_samples=5, batch_size=batch_size)

    def test_auto_chunk_size_bounds(self):
        assert auto_chunk_size(500, 2000) >= 1
        assert auto_chunk_size(10, 2000) <= 10
        assert auto_chunk_size(500, 0, n_vertices=0) <= 500
        # A huge graph must still get a positive chunk.
        assert auto_chunk_size(500, 10**9) == 1

    def test_adaptive_equivalence(self, small_power_law):
        query = ReliabilityQuery(sample_vertex_pairs(small_power_law, 5, rng=2))
        batched = adaptive_estimate(
            small_power_law, query, target_width=0.1, rng=11
        )
        legacy = per_world.adaptive_estimate(
            small_power_law, query, target_width=0.1, rng=11
        )
        assert batched == legacy

    def test_stratified_equivalence(self, small_power_law):
        query = ReliabilityQuery(sample_vertex_pairs(small_power_law, 5, rng=2))
        estimator = StratifiedEstimator(small_power_law, n_samples=48, r=3)
        assert estimator.run(query, rng=13) == per_world.stratified_run(
            estimator, query, rng=13
        )


class TestConfidenceWidth:
    def test_vectorized_width_matches_row_loop(self):
        rng = np.random.default_rng(4)
        outcomes = rng.random((40, 6))
        outcomes[rng.random((40, 6)) < 0.2] = np.nan
        from repro.sampling import EstimationResult

        result = EstimationResult(outcomes=outcomes)
        per_sample = np.array([float(np.nanmean(row)) for row in outcomes])
        expected = 3.92 * float(np.nanstd(per_sample, ddof=1)) / np.sqrt(40)
        assert result.confidence_width() == expected

    @pytest.mark.parametrize("outcomes", [
        [[0.5, 1.0]],                                 # one sample
        [[0.5, np.nan], [np.nan, np.nan]],            # one defined sample
        [[np.nan, np.nan], [np.nan, np.nan]],         # none defined
    ])
    def test_undefined_width_is_nan_without_warning(self, outcomes):
        from repro.sampling import EstimationResult

        result = EstimationResult(outcomes=np.array(outcomes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(result.confidence_width())
            assert np.isnan(result.confidence_width(unit=0))
            assert np.isnan(result.confidence_width(unit=1))


class TestChunkAutosizing:
    """The packed-kernel footprint model and the byte-budget resolution."""

    M, N = 10_000, 1_000  # 72 kB per world

    def test_kernel_world_bytes_model(self):
        # 4 bytes per undirected edge plus 32 per vertex.
        assert kernel_world_bytes(self.M, self.N) == 72_000
        assert kernel_world_bytes(0, 0) > 0

    def test_pinned_chunk_sizes_per_kernel(self):
        assert auto_chunk_size(100, self.M, self.N, budget_bytes=1_000_000) == 13

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BATCH_BYTES_ENV, "352000")
        assert auto_chunk_size(100, self.M, self.N) == 4
        # An explicit budget always beats the environment.
        assert auto_chunk_size(100, self.M, self.N, budget_bytes=1_000_000) == 13

    def test_default_budget(self, monkeypatch):
        monkeypatch.delenv(BATCH_BYTES_ENV, raising=False)
        assert auto_chunk_size(10**9, self.M, self.N) == \
            DEFAULT_BATCH_BYTES // 72_000
        # An empty value reads as unset.
        monkeypatch.setenv(BATCH_BYTES_ENV, "")
        assert auto_chunk_size(10**9, self.M, self.N) == \
            DEFAULT_BATCH_BYTES // 72_000

    def test_floors_and_caps(self):
        assert auto_chunk_size(500, 10**9, budget_bytes=1) == 1
        assert auto_chunk_size(500, 1, budget_bytes=2**40) == 500
        assert auto_chunk_size(0, 0) == 1

    @pytest.mark.parametrize("raw", ["64MB", "1e6", "lots", "0", "-5"])
    def test_env_rejects_non_positive_integers(self, monkeypatch, raw):
        monkeypatch.setenv(BATCH_BYTES_ENV, raw)
        with pytest.raises(EstimationError, match=BATCH_BYTES_ENV):
            auto_chunk_size(100, self.M, self.N)


class TestAutoBatchSizeProperties:
    """Edge-case boundaries of the chunk sizing every estimator uses."""

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
