"""Small self-contained data structures and numeric helpers.

Contents
--------
- :class:`repro.utils.heap.LazyMaxHeap` — EMD's vertex heap (paper
  section 4.3), with deferred updates over a live list of priorities.
- :class:`repro.utils.unionfind.ArrayUnionFind` — disjoint sets with
  batched finds and order-respecting batched unions, used by every
  spanning-forest routine.
- :func:`repro.utils.binomials.binomial_prefix_sum` — the paper's
  Sigma-binomial enumeration function (section 5).
- :func:`repro.utils.rng.ensure_rng` — normalises seeds / generators.
"""

from repro.utils.binomials import binomial_prefix_sum, cut_rule_coefficients
from repro.utils.rng import ensure_rng, spawn_rngs

__all__ = [
    "binomial_prefix_sum",
    "cut_rule_coefficients",
    "ensure_rng",
    "spawn_rngs",
]
