"""Adaptive sample-size determination."""

import numpy as np
import pytest

from repro.core import UncertainGraph, sparsify
from repro.exceptions import EstimationError
from repro.queries import DegreeQuery, ReliabilityQuery
from repro.queries.shortest_path import sample_vertex_pairs
from repro.sampling.adaptive import adaptive_estimate, samples_to_width


@pytest.fixture
def noisy_graph():
    return UncertainGraph([(i, (i + 1) % 12, 0.5) for i in range(12)])


def test_invalid_parameters(noisy_graph):
    query = DegreeQuery(12)
    with pytest.raises(EstimationError):
        adaptive_estimate(noisy_graph, query, target_width=0.0)
    with pytest.raises(EstimationError):
        adaptive_estimate(noisy_graph, query, 0.1, min_samples=1)
    with pytest.raises(EstimationError):
        adaptive_estimate(noisy_graph, query, 0.1, min_samples=50, max_samples=10)
    # Each bad value is refused up front, naming its parameter: batch=0
    # would otherwise draw nothing forever.
    for kwargs, name in (
        (dict(batch=0), "batch"),
        (dict(batch=-1), "batch"),
        (dict(batch=1.5), "batch"),
        (dict(batch=True), "batch"),
        (dict(min_samples=2.5), "min_samples"),
        (dict(max_samples=10.5), "max_samples"),
        (dict(target_width=float("nan")), "target_width"),
        (dict(target_width=float("inf")), "target_width"),
        (dict(target_width=-0.1), "target_width"),
        (dict(target_width=True), "target_width"),
        (dict(target_width="0.1"), "target_width"),
    ):
        arguments = dict(target_width=0.1, rng=0) | kwargs
        with pytest.raises(EstimationError, match=name):
            adaptive_estimate(noisy_graph, query, **arguments)
    # An unreachable width with the smallest batch still stops at the cap.
    triangle = UncertainGraph([(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
    result = adaptive_estimate(
        triangle, DegreeQuery(3), 1e-9, rng=0, max_samples=40, batch=1
    )
    assert not result.converged and result.samples_used == 40


def test_deterministic_graph_converges_immediately():
    g = UncertainGraph([(0, 1, 1.0), (1, 2, 1.0)])
    result = adaptive_estimate(g, DegreeQuery(3), target_width=0.01, rng=0)
    assert result.converged
    assert result.samples_used == 30  # the minimum batch suffices
    assert result.confidence_width == pytest.approx(0.0, abs=1e-12)


def test_estimate_is_accurate(noisy_graph):
    result = adaptive_estimate(
        noisy_graph, DegreeQuery(12), target_width=0.02, rng=1
    )
    assert result.converged
    # E[mean degree] = 2 * 0.5 = 1.0
    assert result.estimate == pytest.approx(1.0, abs=0.05)
    assert result.confidence_width <= 0.02


def test_tighter_width_needs_more_samples(noisy_graph):
    query = DegreeQuery(12)
    loose = samples_to_width(noisy_graph, query, 0.1, rng=2)
    tight = samples_to_width(noisy_graph, query, 0.02, rng=2)
    assert tight > loose


def test_cap_reported_as_not_converged(noisy_graph):
    result = adaptive_estimate(
        noisy_graph, DegreeQuery(12), target_width=1e-6,
        rng=3, max_samples=100,
    )
    assert not result.converged
    assert result.samples_used == 100


def test_sparsified_graph_needs_fewer_samples():
    """The paper's N'/N claim, measured: the low-entropy sparsified
    graph reaches the same confidence width with fewer worlds."""
    from repro.datasets import twitter_like

    graph = twitter_like(n=60, avg_degree=14, seed=5)
    sparsified = sparsify(graph, 0.12, variant="GDB^A", rng=5)
    pairs = sample_vertex_pairs(graph, 10, rng=1)
    query = ReliabilityQuery(pairs)
    n_original = samples_to_width(graph, query, 0.05, rng=7, max_samples=5000)
    n_sparse = samples_to_width(sparsified, query, 0.05, rng=7, max_samples=5000)
    assert n_sparse < n_original
