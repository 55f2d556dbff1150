"""The estimators as world-at-a-time loops.

Each function draws its worlds one ``rng.random(m)`` at a time, builds a
:class:`~oracles.worlds.World` per draw and answers the query through
:func:`oracles.queries.evaluate`.  The production estimators draw the
same uniforms as mask-matrix chunks and evaluate whole ensembles, so
under one seed they must return exactly what these loops return.
"""

from __future__ import annotations

import numpy as np

from oracles.queries import evaluate, evaluate_worlds
from oracles.worlds import sample_many, sample_mask, world_from_mask
from repro.core.uncertain_graph import UncertainGraph
from repro.queries.base import check_outcome_width
from repro.sampling import (
    AdaptiveResult,
    EstimationResult,
    MonteCarloEstimator,
    StratifiedEstimator,
    WorldSampler,
)
from repro.sampling.monte_carlo import warnings_suppressed
from repro.utils.rng import ensure_rng, spawn_rngs


def monte_carlo_outcomes(
    estimator: MonteCarloEstimator,
    query,
    rng: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """``estimator.run(query, rng).outcomes``, one world at a time."""
    worlds = sample_many(estimator.sampler, estimator.n_samples, ensure_rng(rng))
    return evaluate_worlds(query, worlds, estimator.n_samples)


def repeated_estimates(
    graph: UncertainGraph,
    query,
    runs: int,
    n_samples: int,
    rng: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """The variance protocol's ``runs`` scalar estimates, world by world."""
    estimator = MonteCarloEstimator(graph, n_samples=n_samples)
    return np.array([
        EstimationResult(
            outcomes=monte_carlo_outcomes(estimator, query, g)
        ).scalar_estimate()
        for g in spawn_rngs(rng, runs)
    ])


def adaptive_estimate(
    graph: UncertainGraph,
    query,
    target_width: float,
    rng: "int | np.random.Generator | None" = None,
    min_samples: int = 30,
    max_samples: int = 20_000,
    batch: int = 10,
) -> AdaptiveResult:
    """The sequential stopping rule over per-world scalars."""
    rng = ensure_rng(rng)
    sampler = WorldSampler(graph)
    values: list[float] = []

    def draw(count: int) -> None:
        for world in sample_many(sampler, count, rng):
            outcome = evaluate(query, world)
            check_outcome_width(query, np.size(outcome))
            with warnings_suppressed():
                values.append(float(np.nanmean(outcome)))

    def result(converged: bool) -> AdaptiveResult:
        defined = np.asarray(values, dtype=np.float64)
        defined = defined[~np.isnan(defined)]
        if len(defined) >= 2:
            width = 3.92 * float(np.std(defined, ddof=1)) / np.sqrt(len(defined))
        else:
            width = float("nan")
        estimate = float(defined.mean()) if len(defined) else float("nan")
        return AdaptiveResult(estimate, len(values), width, converged)

    draw(min_samples)
    while True:
        current = result(True)
        if current.confidence_width <= target_width:
            return current
        if current.samples_used >= max_samples:
            return result(False)
        draw(min(batch, max_samples - current.samples_used))


def stratified_run(
    estimator: StratifiedEstimator,
    query,
    rng: "int | np.random.Generator | None" = None,
) -> float:
    """``estimator.run(query, rng)``, one conditioned world at a time."""
    rng = ensure_rng(rng)
    sampler = estimator.sampler
    weights = estimator.stratum_weights()
    allocation = np.maximum(1, np.rint(weights * estimator.n_samples).astype(int))
    total = 0.0
    for assignment, weight, budget in zip(
        estimator.stratum_assignments(), weights, allocation
    ):
        if weight == 0.0:
            continue
        stratum_values = np.empty(budget, dtype=np.float64)
        for i in range(budget):
            mask = sample_mask(sampler, rng)
            mask[estimator.conditioned] = assignment
            outcome = evaluate(query, world_from_mask(sampler, mask))
            check_outcome_width(query, np.size(outcome))
            defined = outcome[~np.isnan(outcome)]
            stratum_values[i] = defined.mean() if len(defined) else np.nan
        defined_values = stratum_values[~np.isnan(stratum_values)]
        if len(defined_values) == 0:
            continue
        total += weight * float(defined_values.mean())
    return total
