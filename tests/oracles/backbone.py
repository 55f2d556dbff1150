"""Scalar Algorithm 1: per-call spanning-forest peels and MC top-up.

:func:`bgi_backbone_legacy` rebuilds each maximum spanning forest with a
scalar Kruskal (:func:`maximum_spanning_forest` on
:class:`oracles.unionfind.UnionFind`) and tops up with the set-based
:func:`_mc_top_up`.  :meth:`repro.core.backbone.BackbonePlan.backbone`
returns the same ids, in the same order, and leaves a generator in the
same state; its array top-up
(:func:`repro.core.backbone._mc_top_up_array`) draws over the ascending
ids this set iterates in.  :func:`local_degree_order` is the dict-based
Local Degree ranking the plan's array form
(:func:`repro.core.backbone._local_degree_order`) reproduces.
"""

from __future__ import annotations

import numpy as np

from oracles.unionfind import UnionFind
from repro.core.backbone import target_edge_count
from repro.exceptions import SparsificationError
from repro.utils.rng import ensure_rng


def _as_edge_ids(ids) -> np.ndarray:
    arr = np.array(ids, dtype=np.int64, copy=True)
    arr.setflags(write=False)
    return arr


def maximum_spanning_forest(
    n: int,
    candidate_ids: np.ndarray,
    edge_vertices: np.ndarray,
    probabilities: np.ndarray,
) -> np.ndarray:
    """Kruskal maximum spanning forest over a subset of edges.

    Parameters
    ----------
    n:
        Number of vertices (dense ids ``0..n-1``).
    candidate_ids:
        Edge ids eligible for the forest.
    edge_vertices:
        ``(m, 2)`` array of endpoints for *all* edges (indexed by id).
    probabilities:
        Weight of every edge (indexed by id); higher is kept first.

    Returns
    -------
    numpy.ndarray
        Read-only int64 ids of the forest edges in acceptance order
        (maximal: one tree per connected component of the candidate
        subgraph).
    """
    order = np.argsort(-probabilities[candidate_ids], kind="stable")
    uf = UnionFind(n)
    forest: list[int] = []
    for idx in order:
        eid = int(candidate_ids[idx])
        u, v = edge_vertices[eid]
        if uf.union(int(u), int(v)):
            forest.append(eid)
    return _as_edge_ids(forest)


def _mc_top_up(
    chosen: list[int],
    remaining: set[int],
    probabilities: np.ndarray,
    target: int,
    rng: np.random.Generator,
    max_passes: int = 10_000,
) -> None:
    """Fill ``chosen`` up to ``target`` by sampling ``remaining`` edges.

    Repeated passes over a random permutation, keeping each edge with
    its probability (Algorithm 1, lines 7-11).  Because every
    probability is strictly positive the loop terminates with
    probability 1; a deterministic fallback guards against pathological
    RNG streaks.
    """
    passes = 0
    while len(chosen) < target and remaining:
        passes += 1
        if passes > max_passes:
            # Deterministic fallback: take the highest-probability leftovers.
            leftovers = sorted(remaining, key=lambda e: -probabilities[e])
            for eid in leftovers[: target - len(chosen)]:
                chosen.append(eid)
                remaining.discard(eid)
            return
        order = rng.permutation(np.fromiter(remaining, dtype=np.int64, count=len(remaining)))
        draws = rng.random(len(order))
        for eid, draw in zip(order, draws):
            if draw < probabilities[eid]:
                chosen.append(int(eid))
                remaining.discard(int(eid))
                if len(chosen) >= target:
                    return


def bgi_backbone_legacy(
    graph,
    alpha: float,
    rng: "int | np.random.Generator | None" = None,
    spanning_fraction: float = 0.5,
    max_forests: int = 6,
) -> np.ndarray:
    """Per-call reference implementation of Algorithm 1.

    The scalar list-and-set construction the backbone plan is
    regression-pinned against.
    """
    rng = ensure_rng(rng)
    m = graph.number_of_edges()
    n = graph.number_of_vertices()
    target = target_edge_count(m, alpha)
    edge_vertices = graph.edge_index_array()
    probabilities = np.array(graph.probability_array())

    remaining = set(range(m))
    chosen: list[int] = []

    # First forest: a maximum spanning tree (of each component).
    first = maximum_spanning_forest(
        n, np.fromiter(remaining, dtype=np.int64, count=len(remaining)),
        edge_vertices, probabilities,
    )
    if len(first) > target:
        raise SparsificationError(
            f"alpha={alpha} keeps {target} edges but a spanning forest needs "
            f"{len(first)}; connectivity cannot be preserved "
            f"(require alpha >= (|V|-1)/|E|)"
        )
    chosen.extend(int(e) for e in first)
    remaining.difference_update(chosen)

    spanning_budget = int(spanning_fraction * alpha * m)
    forests_built = 1
    while (
        len(chosen) < spanning_budget
        and forests_built < max_forests
        and remaining
        and len(chosen) < target
    ):
        forest = [
            int(e) for e in maximum_spanning_forest(
                n, np.fromiter(remaining, dtype=np.int64, count=len(remaining)),
                edge_vertices, probabilities,
            )
        ]
        if not forest:
            break
        if len(chosen) + len(forest) > target:
            forest = forest[: target - len(chosen)]
        chosen.extend(forest)
        remaining.difference_update(forest)
        forests_built += 1

    _mc_top_up(chosen, remaining, probabilities, target, rng)
    return _as_edge_ids(chosen)


def local_degree_order(graph) -> np.ndarray:
    """Full Local-Degree nomination ranking of all edges (alpha-free),
    one vertex and one neighbour at a time."""
    m = graph.number_of_edges()
    indexer = graph.vertex_indexer()
    edge_list = graph.edge_list()
    edge_id_of: dict[tuple[int, int], int] = {}
    for eid, (u, v) in enumerate(edge_list):
        a, b = indexer[u], indexer[v]
        edge_id_of[(min(a, b), max(a, b))] = eid
    degrees = {v: graph.degree(v) for v in graph.vertices()}

    # rank[eid] = best (lowest) nomination position across both endpoints.
    # Ties between equal-degree neighbours break on dense vertex id.
    rank: dict[int, float] = {}
    for u in graph.vertices():
        nbrs = sorted(graph.neighbors(u),
                      key=lambda w: (-degrees[w], indexer[w]))
        for position, w in enumerate(nbrs):
            a, b = indexer[u], indexer[w]
            eid = edge_id_of[(min(a, b), max(a, b))]
            score = position / max(degrees[u], 1)
            if eid not in rank or score < rank[eid]:
                rank[eid] = score

    return np.array(
        sorted(range(m), key=lambda eid: (rank.get(eid, 1.0), eid)),
        dtype=np.int64,
    )
