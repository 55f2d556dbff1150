"""Monte-Carlo estimator framework against exact oracles."""

import numpy as np
import pytest

from repro.core import UncertainGraph
from repro.exceptions import EstimationError
from repro.queries import DegreeQuery, ReliabilityQuery
from repro.sampling import (
    EstimationResult,
    MonteCarloEstimator,
    exact_reliability,
    repeated_estimates,
    required_sample_ratio,
    unbiased_variance,
)


class TestEstimator:
    def test_invalid_sample_count(self, triangle):
        for n_samples in (0, 2.5, True, "10"):
            with pytest.raises(EstimationError, match="n_samples"):
                MonteCarloEstimator(triangle, n_samples=n_samples)

    def test_outcome_matrix_shape(self, triangle):
        estimator = MonteCarloEstimator(triangle, n_samples=25)
        result = estimator.run(DegreeQuery(3), rng=0)
        assert result.outcomes.shape == (25, 3)
        assert result.n_samples == 25

    def test_degree_estimates_converge_to_expected(self, small_power_law):
        estimator = MonteCarloEstimator(small_power_law, n_samples=600)
        estimates = estimator.estimate(
            DegreeQuery(small_power_law.number_of_vertices()), rng=0
        )
        expected = small_power_law.expected_degree_array()
        assert np.abs(estimates - expected).mean() < 0.2

    def test_reliability_matches_exact(self):
        g = UncertainGraph([(0, 1, 0.5), (1, 2, 0.4), (0, 2, 0.3)])
        estimator = MonteCarloEstimator(g, n_samples=4000)
        estimate = estimator.run(ReliabilityQuery([(0, 2)]), rng=1).scalar_estimate()
        exact = exact_reliability(g, 0, 2)
        assert estimate == pytest.approx(exact, abs=0.03)

    def test_deterministic_with_seed(self, triangle):
        estimator = MonteCarloEstimator(triangle, n_samples=10)
        a = estimator.run(DegreeQuery(3), rng=3).outcomes
        b = estimator.run(DegreeQuery(3), rng=3).outcomes
        assert np.array_equal(a, b)


class TestEstimationResult:
    def test_nan_units_excluded_from_scalar(self):
        outcomes = np.array([[1.0, np.nan], [3.0, np.nan]])
        result = EstimationResult(outcomes=outcomes)
        assert result.scalar_estimate() == pytest.approx(2.0)

    def test_all_nan_raises(self):
        result = EstimationResult(outcomes=np.full((3, 2), np.nan))
        with pytest.raises(EstimationError):
            result.scalar_estimate()

    def test_partial_nan_unit_mean(self):
        outcomes = np.array([[1.0], [np.nan], [3.0]])
        result = EstimationResult(outcomes=outcomes)
        assert result.unit_estimates()[0] == pytest.approx(2.0)

    def test_confidence_width_shrinks_with_samples(self, small_power_law):
        query = DegreeQuery(small_power_law.number_of_vertices())
        small = MonteCarloEstimator(small_power_law, n_samples=50).run(query, rng=0)
        large = MonteCarloEstimator(small_power_law, n_samples=800).run(query, rng=0)
        assert large.confidence_width() < small.confidence_width()

    def test_per_unit_confidence_width(self, triangle):
        result = MonteCarloEstimator(triangle, n_samples=100).run(
            DegreeQuery(3), rng=0
        )
        width = result.confidence_width(unit=0)
        assert width >= 0.0


class TestVarianceProtocol:
    def test_repeated_estimates_shape(self, triangle):
        estimates = repeated_estimates(
            triangle, DegreeQuery(3), runs=5, n_samples=20, rng=0
        )
        assert estimates.shape == (5,)

    @pytest.mark.parametrize("runs", [0, -1, 2.5, True])
    def test_invalid_run_count(self, triangle, runs):
        with pytest.raises(EstimationError, match="runs"):
            repeated_estimates(triangle, DegreeQuery(3), runs=runs,
                               n_samples=5, rng=0)

    def test_unbiased_variance_matches_numpy(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        assert unbiased_variance(data) == pytest.approx(np.var(data, ddof=1))

    def test_variance_needs_two_points(self):
        with pytest.raises(EstimationError):
            unbiased_variance(np.array([1.0]))

    def test_required_sample_ratio(self):
        assert required_sample_ratio(1.0, 4.0) == pytest.approx(0.25)
        assert required_sample_ratio(1.0, 0.0) == float("inf")
        assert required_sample_ratio(0.0, 0.0) == 1.0

    def test_deterministic_graph_zero_variance(self):
        g = UncertainGraph([(0, 1, 1.0), (1, 2, 1.0)])
        estimates = repeated_estimates(
            g, DegreeQuery(3), runs=4, n_samples=10, rng=0
        )
        assert unbiased_variance(estimates) == 0.0

    def test_lower_entropy_lower_variance(self):
        """The paper's core claim at micro scale: a near-deterministic
        graph yields a lower-variance estimator than a maximally
        uncertain one."""
        uncertain = UncertainGraph([(i, (i + 1) % 8, 0.5) for i in range(8)])
        confident = UncertainGraph([(i, (i + 1) % 8, 0.95) for i in range(8)])
        query = DegreeQuery(8)
        var_uncertain = unbiased_variance(
            repeated_estimates(uncertain, query, runs=12, n_samples=40, rng=1)
        )
        var_confident = unbiased_variance(
            repeated_estimates(confident, query, runs=12, n_samples=40, rng=1)
        )
        assert var_confident < var_uncertain
