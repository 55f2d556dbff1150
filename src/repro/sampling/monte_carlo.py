"""Monte-Carlo estimation framework (paper sections 1 and 6.3).

:class:`MonteCarloEstimator` runs a query over ``N`` sampled worlds and
returns the full ``(N, units)`` outcome matrix — the raw material for

- point estimates (nan-mean per unit: the paper's query answers),
- empirical outcome distributions (input to the earth mover's distance
  quality metric, Eq. 17), and
- the *variance protocol*: re-running the estimator ``R`` times with
  independent randomness and reporting the unbiased variance of the
  scalar estimates — the paper's footnote-10 "variance of G", which
  drives its sample-complexity argument
  ``N'/N = (sigma(G')/sigma(G))^2``.

A run is one in-process chunk loop
(:func:`~repro.sampling.batch.evaluate_chunks`): draw a chunk's masks,
evaluate them, move on.  Under a fixed seed the outcome matrix is the
same for every chunk size.
"""

from __future__ import annotations

import contextlib
import numbers
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import EstimationError
from repro.sampling.batch import evaluate_chunks
from repro.sampling.worlds import WorldSampler
from repro.utils.rng import spawn_rngs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.base import Query


@contextlib.contextmanager
def warnings_suppressed():
    """Silence the all-nan RuntimeWarnings of the nan-aware reductions."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        yield


@dataclass(frozen=True)
class EstimationResult:
    """Output of one Monte-Carlo run.

    Attributes
    ----------
    outcomes:
        ``(n_samples, units)`` matrix of per-world outcomes (may contain
        nan where a unit is undefined in a world — e.g. SP on a
        disconnected pair).
    """

    outcomes: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.outcomes.shape[0]

    def unit_estimates(self) -> np.ndarray:
        """Per-unit nan-mean point estimates (nan for all-nan units)."""
        with warnings_suppressed():
            return np.nanmean(self.outcomes, axis=0)

    def scalar_estimate(self) -> float:
        """Mean of the defined unit estimates (the Phi(G) of section 6.3)."""
        units = self.unit_estimates()
        defined = units[~np.isnan(units)]
        if len(defined) == 0:
            raise EstimationError("every unit was undefined in every sample")
        return float(defined.mean())

    def unit_standard_deviations(self) -> np.ndarray:
        """Per-unit nan standard deviation of outcomes across worlds.

        nan (without a warning) for a unit defined in fewer than two
        worlds.
        """
        with warnings_suppressed():
            return np.nanstd(self.outcomes, axis=0, ddof=1)

    def confidence_width(self, unit: int | None = None) -> float:
        """95% CI width ``3.92 sigma / sqrt(N)`` (paper section 6.3).

        With ``unit=None`` the scalar-summary width is returned.  The
        width is undefined — nan, without a warning — when fewer than
        two samples are defined.
        """
        if unit is None:
            with warnings_suppressed():
                per_sample = np.nanmean(self.outcomes, axis=1)
            if np.count_nonzero(~np.isnan(per_sample)) < 2:
                return float("nan")
            sigma = float(np.nanstd(per_sample, ddof=1))
            return 3.92 * sigma / np.sqrt(self.n_samples)
        n_defined = int(np.sum(~np.isnan(self.outcomes[:, unit])))
        if n_defined < 2:
            return float("nan")
        sigma = float(self.unit_standard_deviations()[unit])
        return 3.92 * sigma / np.sqrt(n_defined)


class MonteCarloEstimator:
    """Evaluate a query on ``n_samples`` possible worlds of a graph.

    Worlds are sampled as ``(B, m)`` mask matrices and evaluated through
    the queries' ensemble kernels
    (:func:`repro.sampling.batch.evaluate_chunks`), chunked so one
    chunk's working set stays memory-bounded.  Chunks consume the RNG
    stream in order, so results do not depend on ``batch_size``.

    Parameters
    ----------
    graph:
        The uncertain graph.
    n_samples:
        Number of worlds per run (the paper uses 500 for quality plots).
    batch_size:
        Worlds per chunk; ``None`` auto-sizes from ``N * m`` against a
        fixed memory budget (:func:`repro.sampling.batch.auto_chunk_size`).
    workers:
        Must be ``1``: chunks always run in-process.  The keyword stays
        so existing ``workers=1`` callers keep working.

    Examples
    --------
    >>> from repro.core import UncertainGraph
    >>> from repro.queries import ReliabilityQuery
    >>> g = UncertainGraph([(0, 1, 1.0), (1, 2, 1.0)])
    >>> est = MonteCarloEstimator(g, n_samples=10)
    >>> result = est.run(ReliabilityQuery([(0, 2)]), rng=0)
    >>> float(result.scalar_estimate())
    1.0
    """

    def __init__(
        self,
        graph: UncertainGraph,
        n_samples: int = 500,
        batch_size: int | None = None,
        workers: int = 1,
    ) -> None:
        _check_positive_int("n_samples", n_samples)
        if batch_size is not None:
            _check_positive_int("batch_size", batch_size)
        if isinstance(workers, bool) or workers != 1:
            raise EstimationError(
                f"workers must be 1, got {workers!r}: the Monte-Carlo "
                "process pool was removed and chunks always run in-process"
            )
        self.graph = graph
        self.n_samples = n_samples
        self.batch_size = batch_size
        self.sampler = WorldSampler(graph)

    def run(self, query: "Query", rng: "int | np.random.Generator | None" = None) -> EstimationResult:
        """One Monte-Carlo run: the ``(N, units)`` outcome matrix."""
        return EstimationResult(outcomes=evaluate_chunks(
            self.sampler, query, self.n_samples, rng, chunk_size=self.batch_size
        ))

    def estimate(self, query: "Query", rng: "int | np.random.Generator | None" = None) -> np.ndarray:
        """Convenience: per-unit point estimates of one run."""
        return self.run(query, rng=rng).unit_estimates()


def _check_positive_int(name: str, value) -> None:
    """Reject a size that is not a positive integer (booleans included)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 1
    ):
        raise EstimationError(f"{name} must be a positive integer, got {value!r}")


def repeated_estimates(
    graph: UncertainGraph,
    query: "Query",
    runs: int = 100,
    n_samples: int = 200,
    rng: "int | np.random.Generator | None" = None,
    batch_size: int | None = None,
) -> np.ndarray:
    """Variance protocol: ``runs`` independent scalar estimates Phi_i(G).

    Paper section 6.3 re-runs each estimator 100 times and reports the
    unbiased variance of the results.  ``runs`` must be a positive
    integer (:class:`EstimationError` otherwise).
    """
    _check_positive_int("runs", runs)
    generators = spawn_rngs(rng, runs)
    estimator = MonteCarloEstimator(
        graph, n_samples=n_samples, batch_size=batch_size
    )
    return np.array([
        estimator.run(query, rng=g).scalar_estimate() for g in generators
    ])


def unbiased_variance(estimates: np.ndarray) -> float:
    """``sigma-hat = sum (Phi_i - mean)^2 / (R - 1)`` (section 6.3)."""
    estimates = np.asarray(estimates, dtype=np.float64)
    if len(estimates) < 2:
        raise EstimationError("variance needs at least two repeated estimates")
    return float(np.var(estimates, ddof=1))


def required_sample_ratio(variance_sparse: float, variance_original: float) -> float:
    """``N'/N = (sigma(G')/sigma(G))^2`` — the sample-budget implication."""
    if variance_original <= 0.0:
        return float("inf") if variance_sparse > 0 else 1.0
    return variance_sparse / variance_original
