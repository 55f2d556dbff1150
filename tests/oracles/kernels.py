"""Traversal references for the ensemble kernels.

- :func:`bfs_distances_boolean` — the ``(worlds, vertices)``
  boolean-frontier BFS, one scatter per level across every world.  BFS
  levels do not depend on the frontier representation, so the
  bit-packed production kernel must return exactly its matrices,
  ``targets`` early exit included.  :class:`BooleanBFSBatch` runs it
  behind :meth:`WorldBatch.bfs_distances`, so whole queries can be
  evaluated on it.
- :func:`dijkstra_distances` — single-source Dijkstra on one world's
  CSR, the reference for batched delta-stepping (equal up to float
  addition reordering).
"""

from __future__ import annotations

import numpy as np

from oracles.heap import IndexedMaxHeap
from repro.sampling.batch import WorldBatch
from repro.sampling.kernels import _csr_segment_indices


def bfs_distances_boolean(
    batch, source: int, targets: "np.ndarray | list[int] | None" = None
) -> np.ndarray:
    """BFS distances from ``source`` in every world (-1 unreachable).

    Each level expands the frontier of *all still-growing worlds* at
    once: activate the directed edges leaving any frontier vertex,
    scatter their targets through one flat ``bincount``, and retire
    worlds whose frontier emptied.

    Returns the ``(N, n)`` matrix, or with ``targets`` the
    ``(N, len(targets))`` columns of the listed vertices in the order
    given.  A targeted call also retires a world as soon as every
    listed vertex has a distance (the point-to-point query
    optimisation); BFS levels are deterministic, so the early exit
    never changes a returned column.
    """
    N, n = batch.n_worlds, batch.n
    if targets is not None:
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size == 0:
            return np.empty((N, 0), dtype=np.int64)
    dist = np.full((N, n), -1, dtype=np.int64)
    dist[:, source] = 0
    reached = np.zeros((N, n), dtype=bool)
    reached[:, source] = True
    alive = batch.alive_directed()
    src, dst = batch.topology.dir_source, batch.topology.indices
    indptr = batch.topology.indptr
    rows = np.arange(N)
    if targets is not None:
        rows = rows[~reached[:, targets].all(axis=1)]
    frontier = np.zeros((N, n), dtype=bool)
    frontier[:, source] = True
    frontier = frontier[rows]
    level = 0
    while rows.size:
        level += 1
        # Hybrid expansion: wide frontiers activate edges with one
        # contiguous pass; narrow ones gather only the CSR segments
        # of vertices that front in *some* world, so the long tail
        # of levels costs almost nothing.
        cols = np.flatnonzero(frontier.any(axis=0))
        lengths = indptr[cols + 1] - indptr[cols]
        total = int(lengths.sum())
        if total == 0:
            break
        if total * 4 >= alive.shape[1]:
            active = alive[rows] & frontier[:, src]
            w_loc, e_loc = np.nonzero(active)
            if w_loc.size == 0:
                break
            flat = w_loc * n + dst[e_loc]
        else:
            e_sub = _csr_segment_indices(indptr, cols, lengths, total)
            src_sub = np.repeat(cols, lengths)
            active = alive[np.ix_(rows, e_sub)] & frontier[:, src_sub]
            w_loc, e_loc = np.nonzero(active)
            if w_loc.size == 0:
                break
            flat = w_loc * n + dst[e_sub[e_loc]]
        hit = np.bincount(flat, minlength=rows.size * n)
        hit = hit.reshape(rows.size, n).astype(bool)
        new = hit & ~reached[rows]
        w_new, v_new = np.nonzero(new)
        if w_new.size == 0:
            break
        dist[rows[w_new], v_new] = level
        reached[rows[w_new], v_new] = True
        keep = new.any(axis=1)
        if targets is not None:
            keep &= ~reached[np.ix_(rows, targets)].all(axis=1)
        rows = rows[keep]
        frontier = new[keep]
    return dist if targets is None else dist[:, targets]


class BooleanBFSBatch(WorldBatch):
    """A :class:`WorldBatch` whose BFS runs :func:`bfs_distances_boolean`."""

    __slots__ = ()

    def bfs_distances(self, source, targets=None):
        source, targets = self._check_ids(source, targets)
        return bfs_distances_boolean(self, source, targets)


def dijkstra_distances(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    source: int,
) -> np.ndarray:
    """Single-source weighted distances on one world's CSR (``inf`` = cut off).

    The reference the batched delta-stepping kernel is tested against:
    Dijkstra on an indexed binary heap
    (:class:`oracles.heap.IndexedMaxHeap` with negated keys, so
    decrease-key is a real ``update`` instead of lazy deletion).
    ``weights`` is aligned with the CSR's directed edges.
    """
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap = IndexedMaxHeap({int(source): 0.0})
    while heap:
        u, negative = heap.pop()
        d = -negative
        for slot in range(int(indptr[u]), int(indptr[u + 1])):
            v = int(indices[slot])
            candidate = d + float(weights[slot])
            if candidate < dist[v]:
                dist[v] = candidate
                heap.update(v, -candidate)
    return dist
