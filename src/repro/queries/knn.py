"""k-nearest-neighbour queries in uncertain graphs (Potamias et al. [32]).

The paper borrows its spanner weight transform (``-log p``) from the
k-NN-in-uncertain-graphs line of work, which defines distances under
possible-world semantics.  Two standard notions are provided:

- **majority distance** ``d_maj(u, v)``: the most probable shortest-path
  distance over worlds (mode of the distance distribution, infinity
  counted as a value), and
- **median distance** ``d_med(u, v)``: the smallest ``d`` whose
  cumulative world-probability reaches 1/2.

Both are robust to the disconnection mass that breaks the naive
"expected distance".  :class:`SourceDistanceQuery` returns the
per-world distance vector from one source to all vertices; the
estimator-side helpers aggregate a matrix of such outcomes into
majority/median distances and a k-NN set — so the same MC machinery
(and the same sparsified graphs) answer k-NN queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.queries.base import is_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.batch import WorldBatch

#: Sentinel used in outcome matrices for "disconnected in this world".
UNREACHABLE = np.inf


class SourceDistanceQuery:
    """Per-world distances from a fixed source to every vertex.

    Disconnected vertices score ``inf`` (a real outcome value for the
    majority/median aggregations, unlike SP's nan-exclusion protocol).
    ``weighted=True`` reports most-probable-path distances on the
    ``-log p`` transform — the k-NN semantics of [32] — instead of hop
    counts.
    """

    def __init__(self, source: int, n: int, weighted: bool = False) -> None:
        if not is_index(source):
            raise ValueError(
                f"source must be a non-negative integer vertex id, got {source!r}"
            )
        if not is_index(n):
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        self.source = source
        self.n = n
        self.weighted = bool(weighted)
        self.name = "WKNN" if self.weighted else "KNN"

    def unit_count(self) -> int:
        return self.n

    def evaluate_batch(self, batch: "WorldBatch") -> np.ndarray:
        """Source-to-all distances of every world from one batched pass."""
        if self.weighted:
            return batch.weighted_distances(self.source)
        dist = batch.bfs_distances(self.source).astype(np.float64)
        dist[dist < 0] = UNREACHABLE
        return dist


def majority_distances(outcomes: np.ndarray) -> np.ndarray:
    """Mode of each vertex's distance distribution (ties -> smallest).

    Sort-based mode over the whole ``(samples, n)`` matrix: sort each
    column, find run boundaries on the column-major flattening, and pick
    each column's first longest run — runs are in ascending value order,
    so ties break towards the smallest value exactly like the old
    per-column ``np.unique`` loop.
    """
    samples, n = outcomes.shape
    if samples == 0:
        raise ValueError("majority_distances needs at least one sample")
    if n == 0:
        return np.empty(0, dtype=np.float64)
    flat = np.sort(outcomes, axis=0).T.ravel()
    is_start = np.empty(flat.shape, dtype=bool)
    is_start[0] = True
    # nans sort to the end of each column and must pool into one run,
    # matching np.unique's equal-nan behaviour.
    is_start[1:] = (flat[1:] != flat[:-1]) & ~(
        np.isnan(flat[1:]) & np.isnan(flat[:-1])
    )
    is_start[::samples] = True  # a new column always opens a new run
    run_idx = np.flatnonzero(is_start)
    counts = np.diff(np.append(run_idx, flat.size))
    run_col = run_idx // samples
    col_starts = np.searchsorted(run_col, np.arange(n))
    best = counts == np.maximum.reduceat(counts, col_starts)[run_col]
    best_runs = np.flatnonzero(best)
    first_best = best_runs[np.searchsorted(run_col[best_runs], np.arange(n))]
    return flat[run_idx[first_best]]


def median_distances(outcomes: np.ndarray) -> np.ndarray:
    """Median of each vertex's distance distribution (inf-aware)."""
    return np.median(outcomes, axis=0)


def k_nearest_neighbors(
    outcomes: np.ndarray,
    source: int,
    k: int,
    aggregate: str = "median",
) -> list[int]:
    """The ``k`` vertices closest to ``source`` under an aggregate distance.

    Parameters
    ----------
    outcomes:
        ``(samples, n)`` matrix from :class:`SourceDistanceQuery`.
    source:
        Source vertex id (excluded from its own neighbour list).
    k:
        Number of neighbours to return.
    aggregate:
        ``"median"`` (default) or ``"majority"``.

    Ties are broken by vertex id for determinism.  Vertices whose
    aggregate distance is infinite are never returned, so fewer than
    ``k`` ids may come back on fragmented graphs.
    """
    if aggregate == "median":
        distances = median_distances(outcomes)
    elif aggregate == "majority":
        distances = majority_distances(outcomes)
    else:
        raise ValueError(f"aggregate must be 'median' or 'majority', got {aggregate!r}")
    order = sorted(
        (float(d), v) for v, d in enumerate(distances)
        if v != source and np.isfinite(d)
    )
    return [v for _, v in order[:k]]
