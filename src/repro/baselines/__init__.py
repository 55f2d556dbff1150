"""Benchmark sparsifiers adapted from the deterministic-graph literature.

- :func:`repro.baselines.ni.ni_sparsify` — Nagamochi–Ibaraki cut
  sparsifier (paper Algorithm 4 + section 3.2 adaptation).
- :func:`repro.baselines.spanner.spanner_sparsify` — Baswana–Sen
  ``(2t-1)``-spanner (Algorithm 5 + ``-log p`` weight transform).
- :func:`repro.baselines.effective_resistance.effective_resistance_sparsify`
  — Spielman–Srivastava leverage-score sparsifier (section 2.2).
- :func:`repro.baselines.random_sparsifier.random_sparsify` — plain MC
  edge sampling.
"""

from repro.baselines.effective_resistance import (
    effective_resistance_sparsify,
    effective_resistances,
)
from repro.baselines.ni import integer_weights, ni_sparsify
from repro.baselines.random_sparsifier import random_sparsify
from repro.baselines.spanner import baswana_sen_spanner, spanner_sparsify

__all__ = [
    "baswana_sen_spanner",
    "effective_resistance_sparsify",
    "effective_resistances",
    "integer_weights",
    "ni_sparsify",
    "random_sparsify",
    "spanner_sparsify",
]
