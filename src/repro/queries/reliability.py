"""Two-terminal reliability query (paper section 6.3, query RL).

Reliability of a pair is the probability that the two vertices are
connected — the classic network-resilience metric.  The per-world
outcome is the 0/1 reachability indicator of each pair; its expectation
across worlds is the reliability.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.queries.base import PairQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.batch import WorldBatch


class ReliabilityQuery(PairQuery):
    """Per-pair reachability indicators (0/1)."""

    name = "RL"

    def evaluate_batch(self, batch: "WorldBatch") -> np.ndarray:
        """All pairs over all worlds from the batch's component labels.

        Two vertices are connected exactly when they share a component,
        so one comparison of the label columns of the pairs' targets and
        sources answers every pair of every world.
        """
        self.check_ids(batch.n)
        labels = batch.component_labels()
        same = np.take(labels, self.targets, axis=1) == np.take(
            labels, self.sources, axis=1
        )
        return same.astype(np.float64)
