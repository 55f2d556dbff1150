"""Possible-world semantics: sampling, exact enumeration, estimation.

- :class:`~repro.sampling.worlds.WorldSampler` /
  :class:`~repro.sampling.worlds.World` — vectorised world sampling,
- :class:`~repro.sampling.batch.WorldBatch` — world *ensembles*: all
  sampled worlds evaluated at once as dense array programs, and
  :func:`~repro.sampling.batch.evaluate_chunks` — the in-process chunk
  loop every batched estimator runs,
- :mod:`~repro.sampling.kernels` — the swappable traversal kernels
  underneath (bit-packed BFS, batched delta-stepping for ``-log p``
  most-probable-path distances, the per-world Dijkstra reference),
- :mod:`~repro.sampling.exact` — exhaustive enumeration (Eq. 1),
- :class:`~repro.sampling.monte_carlo.MonteCarloEstimator` — the MC
  query engine + variance protocol (batched by default),
- :class:`~repro.sampling.stratified.StratifiedEstimator` — stratified
  variant after [23].
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
    BFS_KERNELS,
    DEFAULT_BFS_KERNEL,
    delta_stepping_distances,
    dijkstra_distances,
    most_probable_path_weights,
)
from repro.sampling.exact import (
    exact_connectivity_probability,
    exact_expectation,
    exact_query_probability,
    exact_reliability,
    iter_worlds,
)
from repro.sampling.monte_carlo import (
    EstimationResult,
    MonteCarloEstimator,
    repeated_estimates,
    required_sample_ratio,
    unbiased_variance,
)
from repro.sampling.stratified import StratifiedEstimator
from repro.sampling.worlds import World, WorldSampler

__all__ = [
    "AdaptiveResult",
    "BFS_KERNELS",
    "BatchTopology",
    "DEFAULT_BFS_KERNEL",
    "delta_stepping_distances",
    "dijkstra_distances",
    "most_probable_path_weights",
    "EstimationResult",
    "adaptive_estimate",
    "auto_chunk_size",
    "evaluate_chunks",
    "kernel_world_bytes",
    "samples_to_width",
    "MonteCarloEstimator",
    "StratifiedEstimator",
    "World",
    "WorldBatch",
    "WorldSampler",
    "chunk_counts",
    "exact_connectivity_probability",
    "exact_expectation",
    "exact_query_probability",
    "exact_reliability",
    "iter_worlds",
    "repeated_estimates",
    "required_sample_ratio",
    "unbiased_variance",
]
