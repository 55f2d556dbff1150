"""Degree query — the structural sanity check.

Per-world vertex degrees; their expectation equals the analytic expected
degrees ``sum of incident probabilities``, which gives the estimator
stack a closed-form target to validate against (used heavily in tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.queries.base import is_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.batch import WorldBatch


class DegreeQuery:
    """Per-vertex degree in each world."""

    name = "DEG"

    def __init__(self, n: int) -> None:
        if not is_index(n):
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        self.n = n

    def unit_count(self) -> int:
        return self.n

    def evaluate_batch(self, batch: "WorldBatch") -> np.ndarray:
        """The whole degree matrix from one ``bincount`` per endpoint column."""
        return batch.degrees().astype(np.float64)
