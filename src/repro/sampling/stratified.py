"""Stratified possible-world sampling (after Li et al. [23], cited in 6.3).

The paper's variance discussion leans on the recursive stratified
sampling literature: conditioning a few high-entropy edges and
allocating samples per stratum is an unbiased estimator with provably
lower variance than plain Monte-Carlo.  We implement one recursion level
(which is where most of the benefit is): the ``r`` highest-entropy edges
define ``2^r`` strata; each stratum fixes those edges, samples the rest,
and the estimates combine weighted by stratum probability.

This serves two purposes in the repo: (a) an independently-implemented
estimator to cross-check :class:`MonteCarloEstimator`, and (b) a
demonstration that the paper's entropy-reduction goal and the stratified
literature attack the same variance term from two directions.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.core.entropy import entropy_array
from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import EstimationError
from repro.sampling.batch import evaluate_chunks
from repro.sampling.monte_carlo import _check_positive_int
from repro.sampling.worlds import WorldSampler, is_index
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.base import Query


class StratifiedEstimator:
    """One-level stratified Monte-Carlo estimator.

    Parameters
    ----------
    graph:
        The uncertain graph.
    n_samples:
        Total sample budget across strata.
    r:
        Number of conditioned edges (``2^r`` strata); the ``r`` edges
        with the highest binary entropy are chosen, following [23]'s
        heuristic of stratifying where the uncertainty is.

    Both sizes must be integers (booleans rejected); anything else
    raises :class:`~repro.exceptions.EstimationError` here.
    """

    def __init__(self, graph: UncertainGraph, n_samples: int = 500, r: int = 4) -> None:
        _check_positive_int("n_samples", n_samples)
        if not is_index(r) or r > 12:
            raise EstimationError(f"r must be an integer in [0, 12], got {r!r}")
        if n_samples < 2 ** r:
            raise EstimationError(
                f"budget {n_samples} cannot cover 2^{r} strata"
            )
        self.graph = graph
        self.n_samples = n_samples
        self.r = r
        self.sampler = WorldSampler(graph)
        entropies = entropy_array(self.sampler.probabilities)
        self.conditioned = np.argsort(-entropies)[:r]
        self._weights: "dict[tuple[bool, ...], float]" = {}

    def _stratum_probability(self, assignment: tuple[bool, ...]) -> float:
        """Probability mass of one stratum (cached per assignment).

        The conditioned edges are fixed at construction, so each
        assignment's weight is computed once and memoised — ``run`` used
        to recompute all ``2^r`` products on every call.
        """
        assignment = tuple(bool(keep) for keep in assignment)
        cached = self._weights.get(assignment)
        if cached is None:
            p = self.sampler.probabilities[self.conditioned]
            probability = 1.0
            for keep, pe in zip(assignment, p):
                probability *= pe if keep else (1.0 - pe)
            cached = self._weights[assignment] = float(probability)
        return cached

    def stratum_assignments(self) -> list[tuple[bool, ...]]:
        """The ``2^r`` conditioned-edge assignments in canonical order."""
        return list(itertools.product((False, True), repeat=self.r))

    def stratum_weights(self) -> np.ndarray:
        """Stratum probabilities aligned with :meth:`stratum_assignments`."""
        return np.array(
            [self._stratum_probability(a) for a in self.stratum_assignments()]
        )

    def run(
        self,
        query: "Query",
        rng: "int | np.random.Generator | None" = None,
    ) -> float:
        """Stratified scalar estimate of the query.

        Each stratum's worlds are drawn as mask matrices — the
        conditioned columns overwritten in each chunk — and evaluated
        through the ensemble kernels.
        """
        rng = ensure_rng(rng)
        total = 0.0
        assignments = self.stratum_assignments()
        weights = self.stratum_weights()
        # Proportional allocation with at least 1 sample per non-null stratum.
        allocation = np.maximum(1, np.rint(weights * self.n_samples).astype(int))
        for assignment, weight, budget in zip(assignments, weights, allocation):
            if weight == 0.0:
                continue
            stratum_values = self._stratum_values(query, assignment, budget, rng)
            defined_values = stratum_values[~np.isnan(stratum_values)]
            if len(defined_values) == 0:
                continue
            total += weight * float(defined_values.mean())
        return total

    def _stratum_values(
        self,
        query: "Query",
        assignment: tuple[bool, ...],
        budget: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-world scalars of one stratum via the chunk loop."""
        outcomes = evaluate_chunks(
            self.sampler, query, budget, rng,
            fixed_edges=(self.conditioned, assignment),
        )
        # Each row is the mean of its compacted defined entries — not
        # nanmean over the full row, whose different summation partition
        # can differ in the last ulp.
        stratum_values = np.empty(budget, dtype=np.float64)
        for i, outcome in enumerate(outcomes):
            defined = outcome[~np.isnan(outcome)]
            stratum_values[i] = defined.mean() if len(defined) else np.nan
        return stratum_values
