"""Possible worlds: mask sampling, and the one-world oracle (CSR
construction, BFS, connectivity, clustering) against networkx."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.worlds import log_world_probability, sample_many, world_from_mask
from repro.core import UncertainGraph
from repro.datasets import flickr_like
from repro.sampling import WorldSampler, worlds


def full_world(graph):
    sampler = WorldSampler(graph)
    return world_from_mask(sampler, np.ones(sampler.m, dtype=bool))


class TestWorldStructure:
    def test_full_world_edge_count(self, triangle):
        world = full_world(triangle)
        assert world.number_of_edges() == 3

    def test_empty_world(self, triangle):
        sampler = WorldSampler(triangle)
        world = world_from_mask(sampler, np.zeros(3, dtype=bool))
        assert world.number_of_edges() == 0
        assert np.all(world.degrees() == 0)

    def test_degrees_match_adjacency(self, small_power_law):
        world = full_world(small_power_law)
        indexer = small_power_law.vertex_indexer()
        for vertex, idx in indexer.items():
            assert world.degrees()[idx] == small_power_law.degree(vertex)

    def test_neighbors_symmetric(self, path4):
        world = full_world(path4)
        assert 1 in world.neighbors(0)
        assert 0 in world.neighbors(1)

    def test_mask_shape_validated(self, triangle):
        sampler = WorldSampler(triangle)
        with pytest.raises(ValueError):
            world_from_mask(sampler, np.ones(5, dtype=bool))


class TestTraversal:
    def test_bfs_distances_on_path(self, path4):
        world = full_world(path4)
        dist = world.bfs_distances(0)
        assert list(dist) == [0, 1, 2, 3]

    def test_bfs_unreachable_is_minus_one(self):
        g = UncertainGraph([(0, 1, 1.0), (2, 3, 1.0)])
        world = full_world(g)
        dist = world.bfs_distances(0)
        assert dist[1] == 1 and dist[2] == -1 and dist[3] == -1

    def test_bfs_matches_networkx(self):
        import networkx as nx

        g = flickr_like(n=50, avg_degree=8, seed=4)
        world = full_world(g)
        nx_graph = nx.Graph(list((u, v) for u, v, _ in g.edges()))
        indexer = g.vertex_indexer()
        source_vertex = g.vertices()[0]
        expected = nx.single_source_shortest_path_length(nx_graph, source_vertex)
        dist = world.bfs_distances(indexer[source_vertex])
        for vertex, d in expected.items():
            assert dist[indexer[vertex]] == d

    def test_reachable_from(self):
        g = UncertainGraph([(0, 1, 1.0), (2, 3, 1.0)])
        world = full_world(g)
        reach = world.reachable_from(0)
        assert list(reach) == [True, True, False, False]

    def test_connectivity(self, path4):
        assert full_world(path4).is_connected()

    def test_component_count(self):
        g = UncertainGraph([(0, 1, 1.0), (2, 3, 1.0)], vertices=[4])
        world = full_world(g)
        assert not world.is_connected()
        assert world.connected_component_count() == 3

    def test_single_vertex_world_connected(self):
        g = UncertainGraph(vertices=[0])
        sampler = WorldSampler(g)
        assert world_from_mask(sampler, np.zeros(0, dtype=bool)).is_connected()


class TestClustering:
    def test_triangle_coefficients_are_one(self, triangle):
        world = full_world(triangle)
        assert np.allclose(world.clustering_coefficients(), 1.0)

    def test_path_coefficients_are_zero(self, path4):
        world = full_world(path4)
        assert np.allclose(world.clustering_coefficients(), 0.0)

    def test_matches_networkx(self):
        import networkx as nx

        g = flickr_like(n=40, avg_degree=10, seed=9)
        world = full_world(g)
        nx_graph = nx.Graph(list((u, v) for u, v, _ in g.edges()))
        nx_graph.add_nodes_from(g.vertices())
        expected = nx.clustering(nx_graph)
        coefficients = world.clustering_coefficients()
        indexer = g.vertex_indexer()
        for vertex, cc in expected.items():
            assert coefficients[indexer[vertex]] == pytest.approx(cc)


class TestBlockwiseMasks:
    """``sample_mask_matrix`` draws its uniforms a block of rows at a
    time; the masks and the stream it leaves behind must be those of
    one ``rng.random((count, m)) < p`` call."""

    @staticmethod
    def assert_one_call_draw(sampler, count):
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        masks = sampler.sample_mask_matrix(count, rng=ours)
        expected = theirs.random((count, sampler.m)) < sampler.probabilities
        assert masks.dtype == np.bool_
        assert masks.shape == expected.shape == (count, sampler.m)
        assert masks.tobytes() == expected.tobytes()
        assert ours.random(3).tobytes() == theirs.random(3).tobytes()

    @pytest.fixture(scope="class")
    def sampler(self):
        return WorldSampler(flickr_like(n=400, avg_degree=12, seed=3))

    def test_default_block_several_blocks(self, sampler):
        rows = worlds._UNIFORM_BLOCK_BYTES // (8 * sampler.m)
        assert 1 < rows < 200
        for count in (0, 1, rows - 1, rows, rows + 1, 3 * rows + 7):
            self.assert_one_call_draw(sampler, count)

    @pytest.mark.parametrize("count", [0, 1, 9, 10, 11])
    def test_three_row_block(self, sampler, monkeypatch, count):
        monkeypatch.setattr(worlds, "_UNIFORM_BLOCK_BYTES", 3 * 8 * sampler.m)
        self.assert_one_call_draw(sampler, count)

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_row_larger_than_the_block(self, sampler, monkeypatch, count):
        monkeypatch.setattr(worlds, "_UNIFORM_BLOCK_BYTES", 64)
        assert 8 * sampler.m > 64
        self.assert_one_call_draw(sampler, count)

    @pytest.mark.parametrize("count", [0, 4])
    def test_no_edges(self, count):
        sampler = WorldSampler(UncertainGraph(vertices=[0, 1, 2]))
        assert sampler.m == 0
        self.assert_one_call_draw(sampler, count)

    def test_chunks_draw_the_same_worlds(self, sampler, monkeypatch):
        """Chunked calls on one generator read the stream in one pass."""
        monkeypatch.setattr(worlds, "_UNIFORM_BLOCK_BYTES", 4 * 8 * sampler.m)
        rng = np.random.default_rng(11)
        chunks = [sampler.sample_mask_matrix(c, rng=rng) for c in (3, 0, 6, 5)]
        whole = sampler.sample_mask_matrix(14, rng=np.random.default_rng(11))
        assert np.concatenate(chunks).tobytes() == whole.tobytes()


class TestSampler:
    def test_deterministic_edges_always_present(self):
        g = UncertainGraph([(0, 1, 1.0), (1, 2, 0.5)])
        sampler = WorldSampler(g)
        masks = sampler.sample_mask_matrix(20, rng=0)
        assert masks[:, 0].all()  # p = 1 edge must exist in every world

    def test_sampling_frequency_matches_probability(self, small_power_law):
        sampler = WorldSampler(small_power_law)
        trials = 400
        freq = sampler.sample_mask_matrix(trials, rng=1).mean(axis=0)
        # 4-sigma tolerance per edge
        sigma = np.sqrt(sampler.probabilities * (1 - sampler.probabilities) / trials)
        assert np.all(np.abs(freq - sampler.probabilities) < 4 * sigma + 0.02)

    def test_sample_many_count(self, triangle):
        sampler = WorldSampler(triangle)
        worlds = list(sample_many(sampler, 7, rng=0))
        assert len(worlds) == 7

    def test_log_world_probability(self):
        g = UncertainGraph([(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.8)])
        sampler = WorldSampler(g)
        mask = np.array([True, False, True])
        p = sampler.probabilities
        expected = np.log(p[0]) + np.log(1 - p[1]) + np.log(p[2])
        assert log_world_probability(sampler, mask) == pytest.approx(expected)

    def test_log_world_probability_impossible_world(self, triangle):
        """Dropping a p = 1 edge yields log-probability -inf."""
        sampler = WorldSampler(triangle)
        probs = sampler.probabilities
        mask = probs < 1.0  # drop exactly the deterministic edge(s)
        assert log_world_probability(sampler, mask) == float("-inf")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_property_world_edges_subset_and_counts(seed):
    g = flickr_like(n=25, avg_degree=6, seed=seed % 3)
    batch = WorldSampler(g).sample_batch(3, rng=seed)
    edges = batch.masks.sum(axis=1)
    assert np.array_equal(batch.degrees().sum(axis=1), 2 * edges)
    assert (edges <= g.number_of_edges()).all()
