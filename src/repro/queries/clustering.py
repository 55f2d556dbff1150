"""Clustering-coefficient query (paper section 6.3, query CC).

Per-world local clustering coefficient of every vertex: the ratio of
links among a vertex's neighbours to the maximum possible.  Vertices of
degree < 2 score 0 in that world.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.queries.base import is_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.batch import WorldBatch


class ClusteringCoefficientQuery:
    """Per-vertex local clustering coefficients."""

    name = "CC"

    def __init__(self, n: int) -> None:
        if not is_index(n):
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        self.n = n

    def unit_count(self) -> int:
        return self.n

    def evaluate_batch(self, batch: "WorldBatch") -> np.ndarray:
        """Batched triangle counting over the parent triangle table."""
        return batch.clustering_coefficients()
