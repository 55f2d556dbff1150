"""Exact enumeration (Eq. 1) including the paper's Fig. 1 values.

The production functions enumerate world ensembles; the one-world
enumeration in ``oracles.exact`` must give the same bytes.
"""

import pytest

from oracles.exact import exact_expectation, exact_query_probability, iter_worlds
from repro.core import UncertainGraph
from repro.datasets import erdos_renyi_uncertain, figure1_graph, figure1_sparsified
from repro.exceptions import EstimationError, GraphError
from repro.sampling import exact_connectivity_probability, exact_reliability


def test_world_probabilities_sum_to_one(triangle):
    total = sum(p for _, p in iter_worlds(triangle))
    assert total == pytest.approx(1.0)


def test_world_count(path4):
    # p < 1 on all three edges: all 8 worlds have positive probability
    assert sum(1 for _ in iter_worlds(path4)) == 8


def test_deterministic_edge_halves_world_count(triangle):
    # (a, c) has p = 1, so worlds without it have probability 0
    worlds = list(iter_worlds(triangle))
    assert len(worlds) == 4


def test_too_many_edges_rejected():
    g = UncertainGraph([(i, j, 0.5) for i in range(9) for j in range(i + 1, 9)])
    assert g.number_of_edges() == 36
    with pytest.raises(EstimationError):
        list(iter_worlds(g))
    with pytest.raises(EstimationError):
        exact_connectivity_probability(g)
    with pytest.raises(EstimationError):
        exact_reliability(g, 0, 1)


class TestFigure1:
    def test_original_connectivity(self):
        """Paper: Pr[G connected] = 0.219 for K4 at p = 0.3."""
        assert exact_connectivity_probability(figure1_graph()) == pytest.approx(
            0.219, abs=5e-4
        )

    def test_sparsified_connectivity(self):
        """Paper: Pr[G' connected] = 0.216 = 0.6^3."""
        assert exact_connectivity_probability(
            figure1_sparsified()
        ) == pytest.approx(0.216, abs=1e-9)


def test_two_edge_path_reliability():
    g = UncertainGraph([(0, 1, 0.5), (1, 2, 0.4)])
    assert exact_reliability(g, 0, 2) == pytest.approx(0.2)


def test_parallel_paths_reliability():
    # 0-1 direct (0.5) or 0-2-1 (0.5 * 0.5): 1 - (1-0.5)(1-0.25) = 0.625
    g = UncertainGraph([(0, 1, 0.5), (0, 2, 0.5), (2, 1, 0.5)])
    assert exact_reliability(g, 0, 1) == pytest.approx(0.625)


def test_exact_expectation_edge_count(triangle):
    expected = exact_expectation(triangle, lambda w: float(w.number_of_edges()))
    assert expected == pytest.approx(triangle.expected_number_of_edges())


def test_exact_query_probability_predicate(path4):
    # Pr[vertex 0 isolated] = 1 - p(0,1) = 0.1
    prob = exact_query_probability(path4, lambda w: w.degrees()[0] == 0)
    assert prob == pytest.approx(0.1)


@pytest.mark.parametrize("n", [1, 3])
def test_edgeless_graphs_give_floats(n):
    """No edge: one world, connected only on a single vertex."""
    g = UncertainGraph([], vertices=list(range(n)))
    connected = exact_connectivity_probability(g)
    assert type(connected) is float and connected == (1.0 if n == 1 else 0.0)
    assert exact_reliability(g, 0, 0) == 1.0
    if n > 1:
        reliability = exact_reliability(g, 0, n - 1)
        assert type(reliability) is float and reliability == 0.0


def _oracle_connectivity(graph):
    return exact_query_probability(graph, lambda world: world.is_connected())


def _oracle_reliability(graph, source, target):
    indexer = graph.vertex_indexer()
    s, t = indexer[source], indexer[target]
    return exact_query_probability(
        graph, lambda world: bool(world.reachable_from(s)[t])
    )


@pytest.mark.parametrize("seed", range(8))
def test_ensemble_enumeration_matches_world_enumeration(seed):
    """Same worlds, same order, same left-to-right sum: identical bytes."""
    fixtures = [
        figure1_graph(),
        figure1_sparsified(),
        UncertainGraph([("a", "b", 0.5), ("b", "c", 0.25), ("a", "c", 1.0)]),
        erdos_renyi_uncertain(5 + seed % 3, avg_degree=3, rng=100 + seed),
    ]
    for graph in fixtures:
        assert exact_connectivity_probability(graph) == _oracle_connectivity(graph)
        vertices = graph.vertices()
        for source in vertices[:2]:
            for target in vertices[-1:]:
                assert exact_reliability(graph, source, target) == (
                    _oracle_reliability(graph, source, target)
                )


@pytest.mark.parametrize("source, target", [(99, 1), (0, 99)])
def test_reliability_names_an_unknown_vertex(source, target):
    g = UncertainGraph([(0, 1, 0.5), (1, 2, 0.25), (0, 2, 1.0)])
    with pytest.raises(GraphError, match="vertex not in graph: 99"):
        exact_reliability(g, source, target)
