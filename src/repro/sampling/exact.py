"""Exact possible-world enumeration (paper Eq. 1).

Only feasible for tiny graphs (``2^|E|`` worlds), but it gives the
Monte-Carlo estimators exact targets, and it reproduces the paper's
introductory example (Pr[G of Fig. 1(a) is connected] = 0.219).

The worlds are enumerated as mask chunks in
``itertools.product((False, True), repeat=m)`` order and answered by
the ensemble kernels of :class:`~repro.sampling.batch.WorldBatch`;
zero-probability worlds are dropped, and the qualifying probabilities
are summed left to right in enumeration order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import EstimationError
from repro.sampling.batch import WorldBatch
from repro.sampling.worlds import WorldSampler

_MAX_EXACT_EDGES = 25

#: Worlds per enumerated chunk.
_CHUNK_WORLDS = 4096


def _world_masks(m: int) -> Iterator[np.ndarray]:
    """Every ``(worlds, m)`` mask chunk, the last edge's bit varying fastest."""
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    total = 1 << m
    for start in range(0, total, _CHUNK_WORLDS):
        index = np.arange(start, min(start + _CHUNK_WORLDS, total), dtype=np.int64)
        yield ((index[:, None] >> shifts) & 1).astype(bool)


def _exact_probability(
    graph: UncertainGraph, holds: Callable[[WorldBatch], np.ndarray]
) -> float:
    """Eq. (1): total probability of the worlds where ``holds`` is true.

    Raises
    ------
    EstimationError
        If the graph has more than 25 edges (2^25 worlds ~ 33M).
    """
    sampler = WorldSampler(graph)
    if sampler.m > _MAX_EXACT_EDGES:
        raise EstimationError(
            f"exact enumeration needs <= {_MAX_EXACT_EDGES} edges, got {sampler.m}"
        )
    p = sampler.probabilities
    total = 0.0
    for masks in _world_masks(sampler.m):
        probability = np.prod(np.where(masks, p, 1 - p), axis=1)
        possible = probability != 0.0
        batch = sampler.batch_from_masks(masks[possible])
        total = sum(probability[possible][holds(batch)].tolist(), total)
    return total


def exact_connectivity_probability(graph: UncertainGraph) -> float:
    """Exact ``Pr[G is connected]`` (the Fig. 1 example query)."""
    return _exact_probability(graph, WorldBatch.is_connected)


def exact_reliability(graph: UncertainGraph, source, target) -> float:
    """Exact two-terminal reliability ``Pr[target reachable from source]``.

    A ``source`` or ``target`` not in the graph raises
    :class:`~repro.exceptions.GraphError` naming it.
    """
    s, t = graph.vertex_id(source), graph.vertex_id(target)

    def connected(batch: WorldBatch) -> np.ndarray:
        labels = batch.component_labels()
        return labels[:, s] == labels[:, t]

    return _exact_probability(graph, connected)
