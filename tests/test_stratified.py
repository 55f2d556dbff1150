"""Stratified estimator: unbiasedness and variance reduction."""

import numpy as np
import pytest

from repro.core import UncertainGraph
from repro.exceptions import EstimationError
from repro.queries import DegreeQuery, ReliabilityQuery
from repro.sampling import StratifiedEstimator, exact_reliability
from repro.sampling.monte_carlo import repeated_estimates, unbiased_variance
from repro.utils.rng import spawn_rngs


@pytest.fixture
def diamond():
    return UncertainGraph(
        [(0, 1, 0.5), (1, 3, 0.5), (0, 2, 0.5), (2, 3, 0.5), (0, 3, 0.2)]
    )


def test_invalid_r(triangle):
    for r in (-1, 13, True, 1.5, "2"):
        with pytest.raises(EstimationError, match="r must"):
            StratifiedEstimator(triangle, n_samples=100, r=r)
    StratifiedEstimator(triangle, n_samples=100, r=np.int64(2))


def test_budget_must_cover_strata(triangle):
    with pytest.raises(EstimationError):
        StratifiedEstimator(triangle, n_samples=3, r=2)
    for n_samples in (100.5, True, 0):
        with pytest.raises(EstimationError, match="n_samples"):
            StratifiedEstimator(triangle, n_samples=n_samples, r=2)
    StratifiedEstimator(triangle, n_samples=np.int64(100), r=2)


def test_conditions_highest_entropy_edges(diamond):
    est = StratifiedEstimator(diamond, n_samples=64, r=2)
    probs = est.sampler.probabilities[est.conditioned]
    # The 0.5 edges have maximal entropy; the 0.2 edge must not be chosen.
    assert np.all(np.abs(probs - 0.5) < 1e-9)


def test_r_zero_reduces_to_plain_mc(diamond):
    est = StratifiedEstimator(diamond, n_samples=200, r=0)
    value = est.run(ReliabilityQuery([(0, 3)]), rng=0)
    assert 0.0 <= value <= 1.0


def test_estimate_close_to_exact(diamond):
    exact = exact_reliability(diamond, 0, 3)
    est = StratifiedEstimator(diamond, n_samples=2000, r=3)
    value = est.run(ReliabilityQuery([(0, 3)]), rng=0)
    assert value == pytest.approx(exact, abs=0.05)


def test_variance_not_worse_than_plain_mc(diamond):
    """Stratification should not increase estimator variance."""
    query = DegreeQuery(4)
    plain = unbiased_variance(
        repeated_estimates(diamond, query, runs=30, n_samples=64, rng=5)
    )
    stratified_estimates = [
        StratifiedEstimator(diamond, n_samples=64, r=3).run(query, rng=g)
        for g in spawn_rngs(5, 30)
    ]
    stratified = unbiased_variance(np.array(stratified_estimates))
    assert stratified <= plain * 1.5  # generous: both are noisy at this budget


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
