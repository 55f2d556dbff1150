"""Scalar Algorithm 4 (the Nagamochi–Ibaraki core of the NI baseline).

:func:`ni_core` re-peels every spanning forest with a scalar union-find
on each call.  :func:`repro.baselines.ni.ni_core_planned` over the
memoised :func:`repro.baselines.ni.ni_peel_structure` returns the same
dict, in the same order, and leaves the generator in the same state.
"""

from __future__ import annotations

import math

import numpy as np

from oracles.unionfind import UnionFind


def ni_core(
    n: int,
    edge_vertices: np.ndarray,
    weights: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> dict[int, float]:
    """Algorithm 4: returns ``{edge_id: sampled_weight}`` for kept edges.

    The contiguity requirement — an edge of the previous forest that is
    still alive must stay in the next forest — is honoured by seeding
    each round's union-find pass with the previous forest's surviving
    edges before scanning the rest.
    """
    m = len(weights)
    remaining = weights.astype(np.int64).copy()
    alive = set(range(m))
    log_n = math.log(max(n, 2))
    kept: dict[int, float] = {}
    previous_forest: list[int] = []
    r = 0
    while alive:
        r += 1
        uf = UnionFind(n)
        forest: list[int] = []
        # Contiguous forests: previous forest edges first (Algorithm 4 line 5).
        for eid in previous_forest:
            if eid in alive:
                u, v = edge_vertices[eid]
                if uf.union(int(u), int(v)):
                    forest.append(eid)
        for eid in list(alive):
            u, v = edge_vertices[eid]
            if uf.union(int(u), int(v)):
                forest.append(eid)
        if not forest:
            # Alive edges are all intra-component duplicates, which cannot
            # happen in a simple graph; guard against infinite loops anyway.
            break
        for eid in forest:
            remaining[eid] -= 1
            if remaining[eid] == 0:
                sampling_probability = min(log_n / (epsilon * epsilon * r), 1.0)
                if rng.random() < sampling_probability:
                    kept[eid] = float(weights[eid]) / sampling_probability
                alive.discard(eid)
        previous_forest = forest
    return kept
