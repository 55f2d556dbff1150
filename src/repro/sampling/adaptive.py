"""Adaptive sample-size determination (the paper's N'/N argument, §6.3).

The practical payoff of entropy-reducing sparsification is that the
Monte-Carlo estimator on ``G'`` reaches a target confidence width with
fewer samples: ``N'/N = (sigma(G')/sigma(G))^2``.  This module makes
that claim executable:

- :func:`adaptive_estimate` — sequential MC that stops as soon as the
  95% confidence width of the scalar estimate drops below a target
  (with a minimum batch to stabilise the width estimate), and
- :func:`samples_to_width` — the measured sample count, so experiments
  can report measured ``N'`` vs ``N`` next to the variance-ratio
  prediction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import EstimationError
from repro.sampling.batch import evaluate_chunks
from repro.sampling.monte_carlo import _check_positive_int, warnings_suppressed
from repro.sampling.worlds import WorldSampler
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.base import Query


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of a sequential estimation run.

    Attributes
    ----------
    estimate:
        Final scalar estimate (mean of per-sample scalar outcomes).
    samples_used:
        Worlds drawn before the stopping rule fired.
    confidence_width:
        Final 95% CI width ``3.92 sigma / sqrt(N)``.
    converged:
        ``False`` when the sample cap was hit before the target width.
    """

    estimate: float
    samples_used: int
    confidence_width: float
    converged: bool


def adaptive_estimate(
    graph: UncertainGraph,
    query: "Query",
    target_width: float,
    rng: "int | np.random.Generator | None" = None,
    min_samples: int = 30,
    max_samples: int = 20_000,
    batch: int = 10,
) -> AdaptiveResult:
    """Sample worlds until the 95% CI width falls below ``target_width``.

    The scalar outcome of each world is the nan-mean of the query's unit
    vector (consistent with
    :meth:`repro.sampling.monte_carlo.EstimationResult.scalar_estimate`).

    Parameters
    ----------
    graph:
        The uncertain graph to estimate on.
    query:
        Any :class:`~repro.queries.base.Query`.
    target_width:
        Desired 95% confidence width of the scalar estimate.
    min_samples:
        Samples drawn before the width is first checked (a width
        estimated from too few samples is unreliable).
    max_samples:
        Hard cap; the result reports ``converged=False`` when hit.
    batch:
        Worlds per stopping-rule check.

    Raises
    ------
    EstimationError
        If ``target_width`` is not a positive finite real, a sample
        count is not a positive integer, or the bounds are inconsistent.
    """
    if (
        isinstance(target_width, bool)
        or not isinstance(target_width, numbers.Real)
        or not (target_width > 0 and math.isfinite(target_width))
    ):
        raise EstimationError(
            f"target_width must be a positive finite real, got {target_width!r}"
        )
    for name, value in (
        ("min_samples", min_samples), ("max_samples", max_samples), ("batch", batch)
    ):
        _check_positive_int(name, value)
    if min_samples < 2 or max_samples < min_samples:
        raise EstimationError("need max_samples >= min_samples >= 2")
    rng = ensure_rng(rng)
    sampler = WorldSampler(graph)

    values: list[float] = []

    def draw(count: int) -> None:
        # Chunks consume the RNG stream like one-world draws, so the
        # stopping point does not depend on the chunk size.
        outcomes = evaluate_chunks(sampler, query, count, rng)
        with warnings_suppressed():
            values.extend(float(v) for v in np.nanmean(outcomes, axis=1))

    draw(min_samples)
    while True:
        arr = np.asarray(values, dtype=np.float64)
        defined = arr[~np.isnan(arr)]
        if len(defined) >= 2:
            sigma = float(np.std(defined, ddof=1))
            width = 3.92 * sigma / np.sqrt(len(defined))
            if width <= target_width:
                return AdaptiveResult(
                    estimate=float(defined.mean()),
                    samples_used=len(values),
                    confidence_width=width,
                    converged=True,
                )
        if len(values) >= max_samples:
            defined = arr[~np.isnan(arr)]
            sigma = float(np.std(defined, ddof=1)) if len(defined) >= 2 else float("nan")
            return AdaptiveResult(
                estimate=float(defined.mean()) if len(defined) else float("nan"),
                samples_used=len(values),
                confidence_width=(
                    3.92 * sigma / np.sqrt(len(defined)) if len(defined) >= 2
                    else float("nan")
                ),
                converged=False,
            )
        draw(min(batch, max_samples - len(values)))


def samples_to_width(
    graph: UncertainGraph,
    query: "Query",
    target_width: float,
    rng: "int | np.random.Generator | None" = None,
    **kwargs,
) -> int:
    """Measured number of worlds needed to reach ``target_width``."""
    return adaptive_estimate(
        graph, query, target_width, rng=rng, **kwargs
    ).samples_used
