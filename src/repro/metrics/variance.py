"""Relative-variance metric (paper section 6.3, Fig. 12).

The paper's headline systems argument: a sparsified graph with lower
entropy yields a lower-variance MC estimator, hence fewer samples for
the same confidence width.  ``relative_variance`` packages the full
protocol: repeated estimation on ``G`` and ``G'``, unbiased variances,
and their ratio ``sigma-hat(G') / sigma-hat(G)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.base import Query
from repro.sampling.monte_carlo import (
    repeated_estimates,
    required_sample_ratio,
    unbiased_variance,
)
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class VarianceComparison:
    """Variance protocol output for one (graph, sparsified, query) triple."""

    variance_original: float
    variance_sparsified: float

    @property
    def relative(self) -> float:
        """``sigma-hat(G')^2 / sigma-hat(G)^2`` (Fig. 12's y-axis)."""
        if self.variance_original == 0.0:
            return float("inf") if self.variance_sparsified > 0 else 1.0
        return self.variance_sparsified / self.variance_original

    @property
    def sample_ratio(self) -> float:
        """``N'/N`` needed for equal confidence width (section 6.3)."""
        return required_sample_ratio(self.variance_sparsified, self.variance_original)


def relative_variance(
    original: UncertainGraph,
    sparsified: UncertainGraph,
    query: "Query",
    runs: int = 30,
    n_samples: int = 100,
    rng: "int | np.random.Generator | None" = None,
    batch_size: "int | None" = None,
) -> VarianceComparison:
    """Run the paper's variance protocol on both graphs.

    ``runs`` independent estimators of ``n_samples`` worlds each are
    executed per graph (the paper uses 100 runs; benchmarks scale this
    down), and the unbiased variances of the scalar estimates compared.
    ``batch_size`` bounds a chunk's working set; it cannot change any
    estimate (the determinism contract).
    """
    rng = ensure_rng(rng)
    estimates_original = repeated_estimates(
        original, query, runs=runs, n_samples=n_samples, rng=rng,
        batch_size=batch_size,
    )
    estimates_sparsified = repeated_estimates(
        sparsified, query, runs=runs, n_samples=n_samples, rng=rng,
        batch_size=batch_size,
    )
    return VarianceComparison(
        variance_original=unbiased_variance(estimates_original),
        variance_sparsified=unbiased_variance(estimates_sparsified),
    )
