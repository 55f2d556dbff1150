"""Shortest-path distance query (paper section 6.3, query SP).

The uncertain shortest-path distance of a pair is the average of its
distance over worlds *that connect the pair* (the paper excludes
disconnecting worlds).  Per world, the outcome vector holds the
distance of each requested pair, with ``nan`` where the pair is
disconnected; estimators average with nan-exclusion.

Two distance notions are supported:

- hop distance (default) — batched BFS;
- ``weighted=True`` — most-probable-path distance under the paper's
  ``-log p`` spanner transform (after Potamias et al. [32]): the
  batched delta-stepping kernel.

Pairs sharing a source are batched into a single traversal, which
returns just the columns of that source's targets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from repro.queries.base import PairQuery
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.batch import WorldBatch


def sample_vertex_pairs(
    graph: UncertainGraph,
    count: int,
    rng: "int | np.random.Generator | None" = None,
) -> list[tuple[int, int]]:
    """Sample ``count`` distinct random vertex pairs (dense ids).

    Mirrors the paper's protocol of evaluating SP / RL on 1000 random
    pairs rather than all ``n^2``.
    """
    rng = ensure_rng(rng)
    n = graph.number_of_vertices()
    if n < 2:
        raise ValueError("need at least two vertices to form pairs")
    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    max_pairs = n * (n - 1) // 2
    count = min(count, max_pairs)
    while len(pairs) < count:
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        key = (min(int(u), int(v)), max(int(u), int(v)))
        if key in seen:
            continue
        seen.add(key)
        pairs.append(key)
    return pairs


class ShortestPathQuery(PairQuery):
    """Per-pair distances with nan for disconnected pairs.

    ``weighted=True`` switches from hop BFS to most-probable-path
    distances on the ``-log p`` weight transform the worlds carry (the
    outcome is ``-log`` of the pair's most probable path probability);
    the nan-exclusion protocol is identical.
    """

    def __init__(self, pairs: list[tuple[int, int]], weighted: bool = False) -> None:
        super().__init__(pairs)
        self.weighted = bool(weighted)
        self.name = "WSP" if self.weighted else "SP"

    def evaluate_batch(self, batch: "WorldBatch") -> np.ndarray:
        """One batched traversal per distinct source covers every world.

        Each traversal (BFS or delta-stepping) returns the ``(N, k)``
        distances of the source's ``k`` targets and retires a world as
        soon as they are resolved (or provably unreachable), so worlds
        rarely pay for a full pass.
        """
        self.check_ids(batch.n)
        out = np.full((batch.n_worlds, len(self.pairs)), np.nan)
        for source, (units, targets) in self.by_source.items():
            if self.weighted:
                dist = batch.weighted_distances(source, targets=targets)
                connected = np.isfinite(dist)
            else:
                dist = batch.bfs_distances(source, targets=targets)
                connected = dist >= 0
            out[:, units] = np.where(connected, dist, np.nan)
        return out
