"""Exact enumeration one :class:`~oracles.worlds.World` at a time (Eq. 1).

:func:`iter_worlds` yields every possible world of a tiny graph with its
probability, in ``itertools.product`` order; the predicate and
expectation helpers sum over it.  The production
:mod:`repro.sampling.exact` answers the same sums on world ensembles.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

import numpy as np

from oracles.worlds import World, world_from_mask
from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import EstimationError
from repro.sampling import WorldSampler
from repro.sampling.exact import _MAX_EXACT_EDGES


def iter_worlds(graph: UncertainGraph) -> Iterator[tuple[World, float]]:
    """Yield every possible world with its probability.

    Raises
    ------
    EstimationError
        If the graph has more than 25 edges (2^25 worlds ~ 33M).
    """
    sampler = WorldSampler(graph)
    m = sampler.m
    if m > _MAX_EXACT_EDGES:
        raise EstimationError(
            f"exact enumeration needs <= {_MAX_EXACT_EDGES} edges, got {m}"
        )
    p = sampler.probabilities
    for bits in itertools.product((False, True), repeat=m):
        mask = np.array(bits, dtype=bool)
        probability = float(np.prod(np.where(mask, p, 1.0 - p)))
        if probability == 0.0:
            continue
        yield world_from_mask(sampler, mask), probability


def exact_query_probability(
    graph: UncertainGraph, predicate: Callable[[World], bool]
) -> float:
    """Eq. (1): total probability of worlds satisfying ``predicate``."""
    return sum(
        (
            probability
            for world, probability in iter_worlds(graph)
            if predicate(world)
        ),
        0.0,
    )


def exact_expectation(
    graph: UncertainGraph, value: Callable[[World], float]
) -> float:
    """Exact expectation of a scalar world statistic."""
    return sum(
        (probability * value(world) for world, probability in iter_worlds(graph)),
        0.0,
    )
