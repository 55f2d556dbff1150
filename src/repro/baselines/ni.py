"""Nagamochi–Ibaraki cut-sparsifier adapted to uncertain graphs.

Benchmark ``NI`` of the paper (section 3.2 + appendix Algorithm 4):

1. **Transform** the uncertain graph into an integer-weighted
   deterministic graph: ``w_e = round(p_e / p_min)`` (probabilities are
   analogous to weights for expected cut sizes).
2. **Core NI** (Algorithm 4): iteratively peel spanning forests; an edge
   with weight ``w`` participates in ``w`` contiguous forests; when its
   weight is exhausted at round ``r`` it is sampled with probability
   ``l_e = min(log|V| / (eps^2 r), 1)`` and, if kept, re-weighted
   ``w'_e = w_e / l_e``.  Edges in dense regions survive many rounds and
   are sampled with low probability — the cut-sparsifier intuition.
3. **Calibrate** ``eps`` (seed ``sqrt(|V| log^2|V| / (alpha |E|))``,
   multiplied/divided by ``theta`` per retry) until the output first
   drops to at most ``alpha |E|`` edges; top up the deficit by
   Monte-Carlo sampling with the original probabilities.
4. **Back-transform** ``p'_e = min(w'_e * p_min, 1)`` — the bounded
   probability domain is exactly what the paper blames for NI's mild
   redistribution and poor degree/cut preservation.

Implementation note: raw ``p_e / p_min`` weights can be enormous when
one probability is tiny, making the forest-peeling loop quadratic.  We
clamp the weight scale at ``max_weight`` (default 128) — this only
coarsens the weight quantisation, not the method's structure — and
record the choice in DESIGN.md's deviations.

Peeling on the plan
-------------------
The forest-peeling trajectory of Algorithm 4 — which edges form each
forest, and the round at which each edge's weight exhausts — depends
only on the weights, *not* on ``epsilon`` or the RNG: sampling happens
at exhaustion time and never alters which edges stay alive.  The
algorithm is therefore split in two:

1. :func:`ni_peel_structure` — one structural pass running every peel as
   a batched Kruskal sweep on
   :class:`~repro.utils.unionfind.ArrayUnionFind`, producing the
   exhaustion order and per-edge exhaustion round; memoised on the
   graph's :class:`~repro.core.backbone.BackbonePlan` (key
   ``("ni_peel", max_weight)``), so NI shares its plan cache with BGI
   and repeated calls (the epsilon calibration loop, alpha ladders) pay
   for the peels once; and
2. :func:`ni_core_planned` — per calibration step, one vectorised
   sampling pass over the exhaustion order.

Together they are bit-identical to the scalar Algorithm 4 that
re-peels every forest per calibration step (``tests/oracles/ni.py``):
the batched Kruskal accepts exactly the sequential forest, a block
``rng.random(k)`` draw consumes the PCG64 stream exactly like ``k``
scalar draws, and the kept-edge dict preserves exhaustion order.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.backbone import BackbonePlan, target_edge_count
from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import CalibrationError
from repro.utils.rng import ensure_rng
from repro.utils.unionfind import ArrayUnionFind


def integer_weights(probabilities: np.ndarray, max_weight: int = 128) -> tuple[np.ndarray, float]:
    """Map probabilities to integer weights ``round(p / p_min)``.

    Returns ``(weights, scale)`` where ``scale`` is the effective
    ``p_min`` used for the inverse transform.  The scale is floored at
    ``p_max / max_weight`` to bound the largest weight.
    """
    if len(probabilities) == 0:
        return np.zeros(0, dtype=np.int64), 1.0
    p_min = float(probabilities.min())
    p_max = float(probabilities.max())
    scale = max(p_min, p_max / max_weight)
    weights = np.maximum(1, np.rint(probabilities / scale).astype(np.int64))
    return weights, scale


def ni_peel_structure(
    n: int,
    edge_vertices: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Epsilon/RNG-free peel trajectory of Algorithm 4.

    Each round peels one spanning forest, and an edge with weight ``w``
    takes part in ``w`` contiguous forests.  Contiguity — an edge of
    the previous forest that is still alive stays in the next one — is
    honoured by offering the previous forest's surviving edges to the
    union-find pass first (Algorithm 4, line 5), then the alive edges
    in ascending id.  Every pass is batched:
    :meth:`ArrayUnionFind.union_batch` accepts exactly the sequential
    Kruskal forest, and duplicates are rejected as cycles.

    Returns
    -------
    (order, rounds):
        ``order`` — edge ids in exhaustion order (the order Algorithm 4
        draws its sampling randoms); ``rounds`` — the 1-based round at
        which each edge of ``order`` exhausted.
    """
    m = len(weights)
    remaining = weights.astype(np.int64).copy()
    alive = np.ones(m, dtype=bool)
    us = edge_vertices[:, 0]
    vs = edge_vertices[:, 1]
    order_parts: list[np.ndarray] = []
    round_parts: list[np.ndarray] = []
    previous_forest = np.empty(0, dtype=np.int64)
    uf = ArrayUnionFind(n)
    r = 0
    while alive.any():
        r += 1
        uf.reset()
        candidates = np.concatenate(
            [previous_forest[alive[previous_forest]], np.flatnonzero(alive)]
        )
        accepted = uf.union_batch(us[candidates], vs[candidates])
        forest = candidates[accepted]
        if not len(forest):
            # Alive edges are all intra-component duplicates, which
            # cannot happen in a simple graph; never loop forever.
            break
        remaining[forest] -= 1
        exhausted = forest[remaining[forest] == 0]
        if len(exhausted):
            order_parts.append(exhausted)
            round_parts.append(np.full(len(exhausted), r, dtype=np.int64))
            alive[exhausted] = False
        previous_forest = forest
    order = (
        np.concatenate(order_parts) if order_parts
        else np.empty(0, dtype=np.int64)
    )
    rounds = (
        np.concatenate(round_parts) if round_parts
        else np.empty(0, dtype=np.int64)
    )
    order.setflags(write=False)
    rounds.setflags(write=False)
    return order, rounds


def ni_core_planned(
    n: int,
    weights: np.ndarray,
    structure: tuple[np.ndarray, np.ndarray],
    epsilon: float,
    rng: np.random.Generator,
) -> dict[int, float]:
    """One vectorised sampling pass over a precomputed peel structure:
    Algorithm 4's ``{edge_id: sampled_weight}`` for the kept edges.

    An edge exhausting at round ``r`` is kept with probability
    ``l_e = min(log|V| / (eps^2 r), 1)`` and re-weighted ``w_e / l_e``.
    The block ``rng.random(len(order))`` draw consumes the generator
    stream exactly like one scalar draw per edge in exhaustion order,
    so the output is bit-identical to the scalar Algorithm 4 for the
    same ``rng`` state; the returned dict lists kept edges in exhaustion
    order.
    """
    order, rounds = structure
    log_n = math.log(max(n, 2))
    epsilon_sq = epsilon * epsilon
    probabilities = np.minimum(log_n / (epsilon_sq * rounds), 1.0)
    draws = rng.random(len(order))
    keep = draws < probabilities
    kept_ids = order[keep]
    kept_weights = weights[kept_ids] / probabilities[keep]
    return dict(zip(kept_ids.tolist(), kept_weights.tolist()))


def ni_sparsify(
    graph: UncertainGraph,
    alpha: float,
    rng: "int | np.random.Generator | None" = None,
    theta: float = 1.2,
    max_calibration_steps: int = 60,
    max_weight: int = 128,
    name: str = "",
) -> UncertainGraph:
    """NI benchmark sparsifier: calibrated Algorithm 4 + MC top-up.

    Parameters
    ----------
    graph:
        The uncertain graph.
    alpha:
        Sparsification ratio in ``(0, 1)``.
    rng:
        Seed / generator.
    theta:
        Multiplicative calibration step for ``epsilon``.
    max_calibration_steps:
        Upper bound on calibration retries before giving up.
    max_weight:
        Weight-quantisation cap (see module docstring).

    Raises
    ------
    CalibrationError
        If no ``epsilon`` within the retry budget yields at most
        ``alpha |E|`` edges (practically unreachable: ``epsilon`` large
        enough keeps nothing).
    """
    rng = ensure_rng(rng)
    m = graph.number_of_edges()
    n = graph.number_of_vertices()
    target = target_edge_count(m, alpha)
    edge_vertices = graph.edge_index_array()
    probabilities = np.array(graph.probability_array())
    weights, scale = integer_weights(probabilities, max_weight=max_weight)

    structure = BackbonePlan.of(graph).cached(
        ("ni_peel", max_weight),
        lambda: ni_peel_structure(n, edge_vertices, weights),
    )

    def run_core(eps: float) -> dict[int, float]:
        return ni_core_planned(n, weights, structure, eps, rng)

    log_n = math.log(max(n, 2))
    epsilon = math.sqrt(max(n * log_n * log_n / (alpha * m), 1e-12))

    kept = run_core(epsilon)
    steps = 0
    if len(kept) > target:
        # Too many edges: grow epsilon until the output first fits.
        while len(kept) > target:
            steps += 1
            if steps > max_calibration_steps:
                raise CalibrationError(
                    f"NI failed to calibrate epsilon below budget {target}"
                )
            epsilon *= theta
            kept = run_core(epsilon)
    else:
        # Fewer: shrink epsilon while the output still fits; keep the last fit.
        best = kept
        while steps < max_calibration_steps:
            steps += 1
            epsilon /= theta
            candidate = run_core(epsilon)
            if len(candidate) > target:
                break
            best = candidate
        kept = best

    # Back-transform weights to probabilities, capped at 1 (section 3.2).
    edge_list = graph.edge_list()
    edges = [
        (edge_list[eid][0], edge_list[eid][1], min(w * scale, 1.0))
        for eid, w in kept.items()
    ]

    # Top up the deficit by MC sampling with original probabilities.
    chosen = set(kept)
    deficit = target - len(edges)
    if deficit > 0:
        pool = [eid for eid in range(m) if eid not in chosen]
        while deficit > 0 and pool:
            order = rng.permutation(len(pool))
            next_pool = []
            for idx in order:
                eid = pool[idx]
                if deficit > 0 and rng.random() < probabilities[eid]:
                    edges.append(
                        (edge_list[eid][0], edge_list[eid][1], float(probabilities[eid]))
                    )
                    deficit -= 1
                else:
                    next_pool.append(eid)
            pool = next_pool
    label = name or f"NI@{alpha:g}({graph.name})"
    return graph.subgraph_with_edges(edges, name=label)
