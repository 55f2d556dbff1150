"""Graph-connectivity query (the paper's introductory example).

``Pr[G is connected]`` — the probability that a possible world forms a
single connected component.  Fig. 1 of the paper sparsifies a 6-edge
graph from Pr=0.219 to Pr=0.216 with half the edges; the exact values
are reproduced in the tests and the ``fig01`` benchmark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.batch import WorldBatch


class ConnectivityQuery:
    """Scalar 0/1 indicator: the world is one connected component."""

    name = "CONN"

    def unit_count(self) -> int:
        return 1

    def evaluate_batch(self, batch: "WorldBatch") -> np.ndarray:
        """A world is connected when its component labels leave one root."""
        return batch.is_connected().astype(np.float64)[:, None]


class ComponentCountQuery:
    """Scalar outcome: number of connected components of the world."""

    name = "NCOMP"

    def unit_count(self) -> int:
        return 1

    def evaluate_batch(self, batch: "WorldBatch") -> np.ndarray:
        """Component counts of all worlds: the roots of the component labels."""
        return batch.connected_component_count().astype(np.float64)[:, None]
