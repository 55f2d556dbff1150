"""Variance comparison protocol (Fig. 12's metric)."""

import pytest

from repro.core import UncertainGraph, sparsify
from repro.exceptions import EstimationError
from repro.metrics import VarianceComparison, relative_variance
from repro.queries import DegreeQuery, ReliabilityQuery
from repro.queries.shortest_path import sample_vertex_pairs


class TestVarianceComparison:
    def test_relative_ratio(self):
        c = VarianceComparison(variance_original=4.0, variance_sparsified=1.0)
        assert c.relative == pytest.approx(0.25)
        assert c.sample_ratio == pytest.approx(0.25)

    def test_zero_original_variance(self):
        assert VarianceComparison(0.0, 1.0).relative == float("inf")
        assert VarianceComparison(0.0, 0.0).relative == 1.0


def test_protocol_runs_and_is_finite(small_power_law):
    sparsified = sparsify(small_power_law, 0.3, variant="GDB^A-t", rng=0)
    query = DegreeQuery(small_power_law.number_of_vertices())
    comparison = relative_variance(
        small_power_law, sparsified, query, runs=6, n_samples=30, rng=0
    )
    assert comparison.variance_original >= 0.0
    assert comparison.variance_sparsified >= 0.0


def test_gdb_reduces_reliability_variance(small_power_law):
    """The paper's core systems claim on a small instance: GDB's
    redistribution (many p = 1 edges) shrinks the RL estimator variance."""
    sparsified = sparsify(small_power_law, 0.2, variant="GDB^A-t", rng=0)
    pairs = sample_vertex_pairs(small_power_law, 15, rng=1)
    query = ReliabilityQuery(pairs)
    comparison = relative_variance(
        small_power_law, sparsified, query, runs=10, n_samples=50, rng=2
    )
    assert comparison.relative < 1.0


@pytest.mark.parametrize("runs", [0, -1, 2.5, True])
def test_invalid_run_count_names_runs(triangle, runs):
    with pytest.raises(EstimationError, match="runs"):
        relative_variance(triangle, triangle, DegreeQuery(3), runs=runs,
                          n_samples=5, rng=0)
