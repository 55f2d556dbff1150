"""Two-terminal reliability query (paper section 6.3, query RL).

Reliability of a pair is the probability that the two vertices are
connected — the classic network-resilience metric.  The per-world
outcome is the 0/1 reachability indicator of each pair; its expectation
across worlds is the reliability.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.queries.base import group_pairs_by_source
from repro.sampling.worlds import World

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.batch import WorldBatch


class ReliabilityQuery:
    """Per-pair reachability indicators (0/1)."""

    name = "RL"

    def __init__(self, pairs: list[tuple[int, int]]) -> None:
        self.pairs, self._by_source = group_pairs_by_source(pairs)

    def unit_count(self) -> int:
        return len(self.pairs)

    def evaluate(self, world: World) -> np.ndarray:
        out = np.zeros(len(self.pairs))
        for source, targets in self._by_source.items():
            reach = world.reachable_from(source)
            for idx, t in targets:
                out[idx] = 1.0 if reach[t] else 0.0
        return out

    def evaluate_batch(self, batch: "WorldBatch") -> np.ndarray:
        """All pairs over all worlds: one batched BFS per distinct source."""
        out = np.zeros((batch.n_worlds, len(self.pairs)))
        for source, targets in self._by_source.items():
            reach = batch.reachable_from(source)
            for idx, t in targets:
                out[:, idx] = reach[:, t]
        return out
