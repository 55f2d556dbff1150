"""t-bundle spanner backbone (Koutis [21], paper footnote 8).

The paper's Algorithm 1 peels *maximum spanning forests*; footnote 8
notes that other deterministic skeletons — notably the t-bundle of
spanner literature — could seed the backbone instead.  A t-bundle is a
union of ``t`` edge-disjoint spanners: each round computes a low-stretch
spanner of the remaining edges and removes it.  Compared with spanning
forests, the bundle preserves *short alternative paths* (not just
connectivity), which is exactly what spectral-sparsification theory
wants from a skeleton.

We reuse the Baswana–Sen implementation from
:mod:`repro.baselines.spanner` with ``-log p`` weights, so each bundle
layer keeps the most-probable paths available.  Exposed through
``build_backbone(..., method="t_bundle")`` for the backbone ablation;
:class:`~repro.core.backbone.BackbonePlan` calls it with its edge
arrays.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.spanner import baswana_sen_spanner
from repro.core.backbone import _mc_top_up_array, target_edge_count
from repro.utils.rng import ensure_rng


def t_bundle_backbone(
    n: int,
    edge_vertices: np.ndarray,
    probabilities: np.ndarray,
    alpha: float,
    rng: "int | np.random.Generator | None",
    stretch: int,
    max_layers: int,
) -> np.ndarray:
    """Backbone from edge-disjoint spanner layers + MC top-up.

    Layers are added while they fit within the ``alpha |E|`` budget
    (each layer is a ``(2 * stretch - 1)``-spanner of the edges not yet
    claimed); the remainder is filled by Monte-Carlo edge sampling like
    Algorithm 1's lines 7-11.  Returns the int64 edge ids, layers first
    (each in ascending id order), then the top-up picks.

    Parameters
    ----------
    n, edge_vertices, probabilities:
        The graph's vertex count, ``(m, 2)`` dense endpoint array and
        edge probabilities, in edge-id order.
    alpha:
        Sparsification ratio in ``(0, 1)``.
    rng:
        Seed / generator (spanner clustering and top-up are randomised).
    stretch:
        Stretch parameter ``t`` of each spanner layer.
    max_layers:
        Upper bound on bundle layers (the budget usually binds first).

    When even a single layer exceeds the budget, the layer's lightest
    (most probable) edges are kept up to the budget.
    """
    rng = ensure_rng(rng)
    m = len(probabilities)
    target = target_edge_count(m, alpha)
    weights = -np.log(np.clip(probabilities, 1e-15, 1.0))

    remaining = np.arange(m, dtype=np.int64)  # unclaimed ids, ascending
    parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    count = 0
    for _ in range(max_layers):
        if not len(remaining) or count >= target:
            break
        # Spanner over the residual subgraph: relabel edges into a
        # compact array for the spanner routine.
        layer_local = baswana_sen_spanner(
            n, edge_vertices[remaining], weights[remaining], stretch, rng
        )
        layer = remaining[np.asarray(layer_local, dtype=np.int64)]
        if not len(layer):
            break
        if count + len(layer) > target:
            if not count:
                # Even one layer overflows (small budgets on sparse
                # graphs): keep the layer's lightest — most probable —
                # edges, ties by ascending id, the same fallback as the
                # SP benchmark.  That fills the budget: no top-up.
                parts.append(layer[np.lexsort((layer, weights[layer]))[:target]])
                count = target
            break
        parts.append(layer)
        count += len(layer)
        remaining = np.setdiff1d(remaining, layer, assume_unique=True)

    _mc_top_up_array(parts, count, remaining, probabilities, target, rng)
    return np.concatenate(parts)
