"""Synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    barabasi_albert_uncertain,
    beta_probability_sampler,
    densify,
    erdos_renyi_uncertain,
    figure1_graph,
    figure1_sparsified,
    flickr_like,
    grid_uncertain,
    twitter_like,
)
from repro.datasets.binary_io import read_binary, write_binary_arrays
from repro.datasets.io import format_edge_list, parse_edge_list
from repro.utils.rng import ensure_rng
from oracles.graph import views
from oracles.io import parse_edge_list_scalar
from oracles.synthetic import (
    densify_rows,
    densify_scalar,
    figure1_graph_scalar,
    figure1_sparsified_scalar,
    grid_uncertain_scalar,
)


class TestBetaSampler:
    def test_mean_close_to_target(self):
        draw = beta_probability_sampler(0.09, ensure_rng(0))
        samples = draw(20_000)
        assert samples.mean() == pytest.approx(0.09, abs=0.01)

    def test_range(self):
        draw = beta_probability_sampler(0.5, ensure_rng(0))
        samples = draw(1000)
        assert samples.min() >= 1e-3 and samples.max() <= 1.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2])
    def test_invalid_mean(self, p):
        with pytest.raises(ValueError):
            beta_probability_sampler(p, ensure_rng(0))


class TestErdosRenyi:
    def test_edge_count(self):
        g = erdos_renyi_uncertain(50, avg_degree=8, rng=0)
        assert g.number_of_edges() == 200  # 50 * 8 / 2
        assert g.number_of_vertices() == 50

    def test_capped_at_complete_graph(self):
        g = erdos_renyi_uncertain(5, avg_degree=100, rng=0)
        assert g.number_of_edges() == 10


class TestBarabasiAlbert:
    def test_size(self):
        g = barabasi_albert_uncertain(60, attach=4, rng=0)
        assert g.number_of_vertices() == 60
        # seed clique C(5,2)=10 plus 4 per arrival
        assert g.number_of_edges() == 10 + 4 * 55

    def test_connected(self):
        assert barabasi_albert_uncertain(60, attach=3, rng=1).is_connected()

    def test_power_law_skew(self):
        """Hub degrees must far exceed the median (preferential attachment)."""
        g = barabasi_albert_uncertain(300, attach=3, rng=2)
        degrees = sorted(g.degree(v) for v in g.vertices())
        assert degrees[-1] > 4 * degrees[len(degrees) // 2]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            barabasi_albert_uncertain(5, attach=0)
        with pytest.raises(ValueError):
            barabasi_albert_uncertain(3, attach=3)


class TestProxies:
    def test_flickr_probability_level(self):
        g = flickr_like(n=200, seed=0)
        probs = np.array(g.probability_array())
        assert probs.mean() == pytest.approx(0.09, abs=0.02)

    def test_twitter_probability_level(self):
        g = twitter_like(n=200, seed=0)
        probs = np.array(g.probability_array())
        assert probs.mean() == pytest.approx(0.15, abs=0.03)

    def test_flickr_denser_than_twitter(self):
        f = flickr_like(n=200, seed=0)
        t = twitter_like(n=200, seed=0)
        assert f.number_of_edges() > t.number_of_edges()

    def test_deterministic_given_seed(self):
        assert flickr_like(n=100, seed=3).isomorphic_probabilities(
            flickr_like(n=100, seed=3)
        )


class TestDensify:
    def test_reaches_target_density(self):
        base = flickr_like(n=50, avg_degree=6, seed=1)
        dense = densify(base, 0.5, rng=1)
        assert dense.density() == pytest.approx(0.5, abs=0.01)

    def test_keeps_original_edges(self):
        base = flickr_like(n=40, avg_degree=6, seed=1)
        relabeled, mapping = base.relabel_to_integers()
        dense = densify(base, 0.4, rng=1)
        for u, v, p in relabeled.edges():
            assert dense.has_edge(u, v)
            assert dense.probability(u, v) == pytest.approx(p)

    def test_density_below_current_rejected(self):
        base = flickr_like(n=30, avg_degree=20, seed=1)
        with pytest.raises(ValueError):
            densify(base, 0.01, rng=0)

    @pytest.mark.parametrize("density", [0.0, 1.5])
    def test_invalid_density(self, density):
        base = flickr_like(n=30, avg_degree=4, seed=1)
        with pytest.raises(ValueError):
            densify(base, density)


class TestGrid:
    def test_shape(self):
        g = grid_uncertain(4, 5, rng=0)
        assert g.number_of_vertices() == 20
        # 4-neighbour mesh: rows*(cols-1) + (rows-1)*cols
        assert g.number_of_edges() == 4 * 4 + 3 * 5

    def test_connected(self):
        assert grid_uncertain(6, 6, rng=0).is_connected()

    def test_high_reliability_probabilities(self):
        g = grid_uncertain(4, 4, p_mean=0.9, rng=0)
        probs = np.array(g.probability_array())
        assert probs.min() >= 0.8


class TestFigure1:
    def test_original_is_k4(self):
        g = figure1_graph()
        assert g.number_of_vertices() == 4
        assert g.number_of_edges() == 6
        assert all(p == 0.3 for _, _, p in g.edges())

    def test_sparsified_is_tree(self):
        g = figure1_sparsified()
        assert g.number_of_edges() == 3
        assert g.is_connected()
        assert all(p == 0.6 for _, _, p in g.edges())


class TestAgainstPerEdgeLoops:
    """Each generator builds once; the result equals its old per-edge
    loop replayed on the dict graph (``oracles.synthetic``): labels,
    edge order, neighbour order, probability bytes and name."""

    @staticmethod
    def assert_same(graph, oracle):
        assert graph.name == oracle.name
        assert views(graph) == views(oracle)

    @pytest.mark.parametrize("rows, cols", [
        (0, 3), (1, 1), (1, 4), (4, 1), (3, 3), (4, 5),
    ])
    @pytest.mark.parametrize("p_mean", [0.9, 0.3])
    def test_grid(self, rows, cols, p_mean):
        self.assert_same(grid_uncertain(rows, cols, p_mean=p_mean, rng=7),
                         grid_uncertain_scalar(rows, cols, p_mean=p_mean, rng=7))

    def test_figure1(self):
        self.assert_same(figure1_graph(), figure1_graph_scalar())
        self.assert_same(figure1_sparsified(), figure1_sparsified_scalar())

    @pytest.mark.parametrize("density", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_densify(self, density, seed):
        # A parsed graph: string labels, and lines in an order that is
        # not the edge order, so the source has creation ranks.
        text = format_edge_list(flickr_like(n=24, avg_degree=4, seed=seed))
        lines = text.splitlines(keepends=True)
        text = "".join(lines[:1] + lines[:0:-1])
        self.assert_same(
            densify(parse_edge_list(text), density, rng=seed),
            densify_scalar(parse_edge_list_scalar(text), density, rng=seed),
        )

    @pytest.mark.parametrize("density", [0.3, 0.8])
    def test_densify_binary_rows_out_of_order(self, tmp_path, density):
        """Rows as a binary file stores them (shuffled, either
        orientation): each drawn edge lands after the last row whose
        lower endpoint is at most its own, ranked after every row."""
        base = flickr_like(n=20, avg_degree=4, seed=2)
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

        dense = densify(graph, density, rng=4)
        rows, probs, ranks = densify_rows(graph, density, rng=4)
        assert dense.edge_index_array().tolist() == rows
        assert dense.probability_array().tobytes() == \
            np.array(probs, dtype=np.float64).tobytes()
        by_rank = np.argsort(ranks)
        for vertex in dense.vertices():
            want = [(b if a == vertex else a, probs[e])
                    for e in by_rank.tolist()
                    for a, b in [rows[e]] if vertex in (a, b)]
            assert list(dense.neighbors(vertex).items()) == want
