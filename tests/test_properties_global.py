"""Cross-module property-based tests (hypothesis).

These encode the *contract* every sparsifier must satisfy regardless of
variant, seed, or graph shape: exact edge budget, vertex preservation,
edge-subset property, valid probabilities, and entropy never exceeding
the original's.  Plus distributional invariants of the sampling stack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import graph_entropy, sparsify, target_edge_count
from repro.datasets import flickr_like, twitter_like
from repro.metrics import earth_movers_distance
from repro.queries import DegreeQuery
from repro.sampling import MonteCarloEstimator, WorldSampler

VARIANTS = ("GDB^A", "GDB^R-t", "GDB^A_2", "EMD^A", "EMD^R-t", "LP-t",
            "NI", "SP", "ER", "RANDOM")


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    alpha=st.floats(min_value=0.25, max_value=0.8),
    variant=st.sampled_from(VARIANTS),
)
def test_property_sparsifier_contract(seed, alpha, variant):
    graph = flickr_like(n=40, avg_degree=12, seed=seed % 4)
    sparsified = sparsify(graph, alpha, variant=variant, rng=seed)

    # 1. Exact budget.
    assert sparsified.number_of_edges() == target_edge_count(
        graph.number_of_edges(), alpha
    )
    # 2. Full vertex set.
    assert set(sparsified.vertices()) == set(graph.vertices())
    # 3. Edge subset of the original.
    for u, v, p in sparsified.edges():
        assert graph.has_edge(u, v)
        # 4. Valid probabilities.
        assert 0.0 < p <= 1.0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    alpha=st.floats(min_value=0.25, max_value=0.6),
)
def test_property_proposed_methods_reduce_entropy(seed, alpha):
    graph = twitter_like(n=40, avg_degree=12, seed=seed % 4)
    for variant in ("GDB^A-t", "EMD^A-t"):
        sparsified = sparsify(graph, alpha, variant=variant, rng=seed)
        assert graph_entropy(sparsified) <= graph_entropy(graph) + 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_expected_degrees_are_mc_means(seed):
    """E[deg] from the analytic formula = mean of sampled world degrees
    (law of large numbers at 4-sigma tolerance)."""
    graph = flickr_like(n=30, avg_degree=8, seed=seed % 3)
    sampler = WorldSampler(graph)
    trials = 300
    degrees = sampler.sample_batch(trials, rng=seed).degrees()
    mean_degree = degrees.sum(axis=0) / trials
    expected = graph.expected_degree_array()
    sigma = np.sqrt(np.maximum(expected, 0.1) / trials)
    assert np.all(np.abs(mean_degree - expected) < 5 * sigma + 0.15)


@settings(max_examples=15, deadline=None)
@given(
    data=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=30),
    shift=st.floats(min_value=-3, max_value=3),
)
def test_property_emd_translation_equivariant(data, shift):
    a = np.array(data)
    assert earth_movers_distance(a, a + shift) == pytest.approx(
        abs(shift), abs=1e-9
    )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1000), n_samples=st.integers(5, 40))
def test_property_estimator_outcomes_bounded_by_query_range(seed, n_samples):
    graph = flickr_like(n=25, avg_degree=6, seed=seed % 3)
    estimator = MonteCarloEstimator(graph, n_samples=n_samples)
    outcomes = estimator.run(
        DegreeQuery(graph.number_of_vertices()), rng=seed
    ).outcomes
    assert outcomes.shape == (n_samples, graph.number_of_vertices())
    assert outcomes.min() >= 0
    # A vertex's sampled degree never exceeds its topological degree.
    degrees = np.array([graph.degree(v) for v in graph.vertices()])
    assert np.all(outcomes.max(axis=0) <= degrees)
