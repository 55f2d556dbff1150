"""The per-world query protocol: one outcome vector per world.

:func:`evaluate` answers a built-in query on one
:class:`~oracles.worlds.World` by walking that world's own CSR; a
test-local query may instead define its own ``evaluate(world)``.  Every ``evaluate_batch`` kernel must return these
rows exactly, stacked (weighted distances within float tolerance).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from oracles.worlds import World
from repro.queries import (
    ClusteringCoefficientQuery,
    ComponentCountQuery,
    ConnectivityQuery,
    DegreeQuery,
    PageRankQuery,
    ReliabilityQuery,
    ShortestPathQuery,
    SourceDistanceQuery,
)
from repro.queries.base import check_outcome_width
from repro.queries.knn import UNREACHABLE


def world_pagerank(
    world: World,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iterations: int = 100,
) -> np.ndarray:
    """Pagerank vector of one deterministic world.

    :func:`repro.queries.pagerank.batch_pagerank` must return these
    bytes, row for row.
    """
    n = world.n
    if n == 0:
        return np.zeros(0)
    degrees = world.degrees().astype(np.float64)
    dangling = degrees == 0
    safe_degrees = np.where(dangling, 1.0, degrees)
    pr = np.full(n, 1.0 / n)
    indptr, indices = world.indptr, world.indices
    # Directed-edge source ids for the bincount push (symmetric graph).
    sources = np.repeat(np.arange(n), np.diff(indptr))
    for _ in range(max_iterations):
        shares = pr / safe_degrees
        pushed = np.bincount(indices, weights=shares[sources], minlength=n)
        dangling_mass = pr[dangling].sum()
        new_pr = (1.0 - damping) / n + damping * (pushed + dangling_mass / n)
        if np.abs(new_pr - pr).sum() < tol:
            pr = new_pr
            break
        pr = new_pr
    return pr


def evaluate(query, world: World) -> np.ndarray:
    """The outcome vector of ``query`` in ``world`` (may contain nan)."""
    if isinstance(query, ReliabilityQuery):
        query.check_ids(world.n)
        out = np.zeros(len(query.pairs))
        for source, (units, targets) in query.by_source.items():
            out[units] = world.reachable_from(source)[targets]
        return out
    if isinstance(query, ShortestPathQuery):
        query.check_ids(world.n)
        out = np.full(len(query.pairs), np.nan)
        for source, (units, targets) in query.by_source.items():
            if query.weighted:
                dist = world.weighted_distances(source)[targets]
                connected = np.isfinite(dist)
            else:
                dist = world.bfs_distances(source)[targets]
                connected = dist >= 0
            out[units[connected]] = dist[connected]
        return out
    if isinstance(query, SourceDistanceQuery):
        if query.weighted:
            return world.weighted_distances(query.source)
        dist = world.bfs_distances(query.source).astype(np.float64)
        dist[dist < 0] = UNREACHABLE
        return dist
    if isinstance(query, DegreeQuery):
        return world.degrees().astype(np.float64)
    if isinstance(query, ClusteringCoefficientQuery):
        return world.clustering_coefficients()
    if isinstance(query, PageRankQuery):
        return world_pagerank(
            world, damping=query.damping, max_iterations=query.max_iterations
        )
    if isinstance(query, ConnectivityQuery):
        return np.array([1.0 if world.is_connected() else 0.0])
    if isinstance(query, ComponentCountQuery):
        return np.array([float(world.connected_component_count())])
    return query.evaluate(world)


def evaluate_worlds(query, worlds: Iterable[World], count: int) -> np.ndarray:
    """``(count, units)`` rows of :func:`evaluate`, widths checked."""
    outcomes = np.empty((count, query.unit_count()), dtype=np.float64)
    for i, world in enumerate(worlds):
        row = evaluate(query, world)
        check_outcome_width(query, np.size(row))
        outcomes[i] = row
    return outcomes
