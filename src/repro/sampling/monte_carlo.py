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
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import EstimationError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.base import Query
from repro.sampling.worlds import WorldSampler
from repro.utils.rng import ensure_rng, spawn_rngs


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

    By default the run is *batched*: worlds are sampled as ``(B, m)``
    mask matrices and evaluated through the queries' ensemble kernels
    (:func:`repro.queries.base.evaluate_query_batch`), chunked so one
    chunk's working set stays memory-bounded.  The batched path consumes
    the RNG stream exactly like the legacy per-world loop and the
    kernels are bit-identical, so results do not depend on ``batched``
    or ``batch_size``.

    With ``workers > 1`` the chunks are evaluated concurrently on a
    process pool (:class:`repro.sampling.parallel.ParallelBatchExecutor`
    in sequential-compatibility mode): the parent draws every chunk's
    masks from the single RNG stream in chunk order and workers only
    evaluate, so results are *also* independent of ``workers`` — the
    outcome matrix is bit-identical for any worker count under a fixed
    seed.  If the pool cannot start, evaluation falls back in-process
    with a warning but the same answer.

    Parameters
    ----------
    graph:
        The uncertain graph.
    n_samples:
        Number of worlds per run (the paper uses 500 for quality plots).
    batch_size:
        Worlds per chunk; ``None`` auto-sizes from ``N * m`` against a
        fixed memory budget (:func:`repro.sampling.batch.auto_chunk_size`).
    batched:
        ``False`` restores the legacy world-at-a-time loop (escape
        hatch, e.g. for queries whose per-world path is under test).
    workers:
        Process count for chunk evaluation; ``<= 1`` stays in-process,
        ``None`` uses one worker per CPU.  Ignored when ``batched`` is
        ``False``.
    dataset:
        Optional binary dataset path (or
        :class:`~repro.datasets.binary_io.BinaryDataset`) backing
        ``graph``: with ``workers > 1`` the pool workers ``mmap`` the
        edge arrays from it instead of receiving them pickled.  Results
        are unchanged — the sharded answer stays bit-identical.

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
        batched: bool = True,
        workers: int | None = 1,
        dataset=None,
    ) -> None:
        if n_samples < 1:
            raise EstimationError(f"n_samples must be positive, got {n_samples}")
        if batch_size is not None and batch_size < 1:
            raise EstimationError(f"batch_size must be positive, got {batch_size}")
        if workers is not None and workers < 0:
            raise EstimationError(f"workers must be non-negative, got {workers}")
        self.graph = graph
        self.n_samples = n_samples
        self.batch_size = batch_size
        self.batched = batched
        self.workers = workers
        self.dataset = dataset
        self.sampler = WorldSampler(graph)
        self._executor = None
        self._executor_query = None

    def _executor_for(self, query: "Query"):
        """The (cached) batch executor for ``query``.

        One executor — and hence one process pool — is reused across
        runs of the same query object, which is what the variance
        protocol and the adaptive stopping rule do in a loop.
        """
        from repro.sampling.parallel import ParallelBatchExecutor

        if self._executor is not None and self._executor_query is query:
            return self._executor
        self.close()
        self._executor = ParallelBatchExecutor(
            self.sampler,
            query,
            workers=self.workers,
            chunk_size=self.batch_size,
            rng_mode="sequential",
            dataset=self.dataset,
        )
        self._executor_query = query
        return self._executor

    def close(self) -> None:
        """Release the cached process pool (no-op for serial estimators)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
            self._executor_query = None

    def __enter__(self) -> "MonteCarloEstimator":
        return self

    def __exit__(self, *exc_info) -> bool:
        # Long-lived processes (the job server) scope each estimator to
        # one job batch; exit closes the cached pool deterministically
        # instead of leaning on __del__/GC timing.
        self.close()
        return False

    def run(self, query: "Query", rng: "int | np.random.Generator | None" = None) -> EstimationResult:
        """One Monte-Carlo run: the ``(N, units)`` outcome matrix."""
        rng = ensure_rng(rng)
        if not self.batched:
            outcomes = np.empty(
                (self.n_samples, query.unit_count()), dtype=np.float64
            )
            for i, world in enumerate(self.sampler.sample_many(self.n_samples, rng)):
                outcomes[i] = query.evaluate(world)
            return EstimationResult(outcomes=outcomes)
        return EstimationResult(
            outcomes=self._executor_for(query).run(self.n_samples, rng)
        )

    def estimate(self, query: "Query", rng: "int | np.random.Generator | None" = None) -> np.ndarray:
        """Convenience: per-unit point estimates of one run."""
        return self.run(query, rng=rng).unit_estimates()


def repeated_estimates(
    graph: UncertainGraph,
    query: "Query",
    runs: int = 100,
    n_samples: int = 200,
    rng: "int | np.random.Generator | None" = None,
    batch_size: int | None = None,
    batched: bool = True,
    workers: int | None = 1,
    dataset=None,
) -> np.ndarray:
    """Variance protocol: ``runs`` independent scalar estimates Phi_i(G).

    Paper section 6.3 re-runs each estimator 100 times and reports the
    unbiased variance of the results.  With ``workers > 1`` every run's
    chunks fan out over one shared process pool; per-run RNG streams are
    unchanged, so the estimates match the serial protocol bit for bit.
    """
    generators = spawn_rngs(rng, runs)
    estimator = MonteCarloEstimator(
        graph, n_samples=n_samples, batch_size=batch_size, batched=batched,
        workers=workers, dataset=dataset,
    )
    try:
        return np.array([
            estimator.run(query, rng=g).scalar_estimate() for g in generators
        ])
    finally:
        estimator.close()


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
