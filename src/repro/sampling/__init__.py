"""Possible-world semantics: sampling, exact enumeration, estimation.

One Monte-Carlo path serves every query: sampled edge masks become a
world ensemble, and the query evaluates the whole ensemble at once.

- :class:`~repro.sampling.worlds.WorldSampler` — vectorised mask
  sampling,
- :class:`~repro.sampling.batch.WorldBatch` — world *ensembles*: all
  sampled worlds evaluated at once as dense array programs, and
  :func:`~repro.sampling.batch.evaluate_chunks` — the in-process chunk
  loop every estimator runs,
- :mod:`~repro.sampling.kernels` — the traversal kernels underneath
  (bit-packed BFS, batched delta-stepping for ``-log p``
  most-probable-path distances),
- :mod:`~repro.sampling.exact` — exhaustive enumeration (Eq. 1),
- :class:`~repro.sampling.monte_carlo.MonteCarloEstimator` — the MC
  query engine + variance protocol,
- :class:`~repro.sampling.stratified.StratifiedEstimator` — stratified
  variant after [23].

The one-world-at-a-time references the kernels are tested against live
in ``tests/oracles/``.
"""

from repro.sampling.adaptive import AdaptiveResult, adaptive_estimate, samples_to_width
from repro.sampling.batch import (
    BatchTopology,
    WorldBatch,
    auto_chunk_size,
    chunk_counts,
    evaluate_chunks,
    kernel_world_bytes,
)
from repro.sampling.kernels import (
    delta_stepping_distances,
    most_probable_path_weights,
)
from repro.sampling.exact import (
    exact_connectivity_probability,
    exact_reliability,
)
from repro.sampling.monte_carlo import (
    EstimationResult,
    MonteCarloEstimator,
    repeated_estimates,
    required_sample_ratio,
    unbiased_variance,
)
from repro.sampling.stratified import StratifiedEstimator
from repro.sampling.worlds import WorldSampler

__all__ = [
    "AdaptiveResult",
    "BatchTopology",
    "delta_stepping_distances",
    "most_probable_path_weights",
    "EstimationResult",
    "adaptive_estimate",
    "auto_chunk_size",
    "evaluate_chunks",
    "kernel_world_bytes",
    "samples_to_width",
    "MonteCarloEstimator",
    "StratifiedEstimator",
    "WorldBatch",
    "WorldSampler",
    "chunk_counts",
    "exact_connectivity_probability",
    "exact_reliability",
    "repeated_estimates",
    "required_sample_ratio",
    "unbiased_variance",
]
