"""Pagerank query (paper section 6.3, query PR).

Per-world pagerank by power iteration on the world's adjacency.
Dangling vertices (degree 0 in the world) redistribute their mass
uniformly, the standard convention.  The uncertain-graph pagerank of a
vertex is the expectation of its per-world score.

:func:`batch_pagerank` iterates a whole world ensemble with array
operations; row for row it returns the bytes of iterating each world on
its own CSR (the reference in ``tests/oracles/``).
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING

import numpy as np

from repro.queries.base import is_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.batch import WorldBatch


def batch_pagerank(
    batch: "WorldBatch",
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iterations: int = 100,
) -> np.ndarray:
    """``(N, n)`` pagerank matrix: power iteration over the whole ensemble.

    Bit-identical to power-iterating each world on its own CSR.  Each
    step pushes every world's mass through one flat ``bincount`` whose
    weights list exactly the alive directed edges in the per-world CSR
    order (dead edges never enter the pair lists); the same gather
    indices, counted, give the degrees.  A world's dangling mass is the
    row sum of a ``(worlds, count)`` gather over the worlds that share
    its dangling-vertex count, which numpy sums with the same pairwise
    grouping as a one-world ``pr[dangling].sum()``.  The rest of a
    step is whole-block arithmetic in the per-world operation order.

    Each world freezes exactly when its own L1 delta drops below
    ``tol``.  While every world of the working block is running, the
    new iterate simply replaces the old; once some have frozen, only
    the running rows are written back.  The block compacts once more
    than half its worlds have frozen, bounding wasted work on converged
    worlds.
    """
    N, n = batch.n_worlds, batch.n
    if n == 0:
        return np.zeros((N, 0))
    alive = batch.alive_directed()
    dir_source = batch.topology.dir_source
    dir_target = batch.topology.indices
    two_m = alive.shape[1]

    def build_pairs(alive_rows: np.ndarray):
        """Flat (world, alive-edge) gather/scatter indices for a block."""
        # Row-major like ``np.nonzero`` on the 2-D rows at a fraction of
        # its cost, then split in place into edge id and row offset.
        edge = np.flatnonzero(alive_rows)
        offset = edge // two_m
        edge -= offset * two_m
        offset *= n
        gather = dir_source[edge]   # index into shares
        gather += offset
        scatter = dir_target[edge]  # index into pushed
        scatter += offset
        return gather, scatter

    def dangling_groups(dangling: np.ndarray):
        """``(rows, flat (rows, count) indices)`` per dangling count > 0."""
        counts = dangling.sum(axis=1)
        groups = []
        for count in np.unique(counts[counts > 0]):
            rows = np.flatnonzero(counts == count)
            cols = np.flatnonzero(dangling[rows]).reshape(rows.size, count) % n
            groups.append((rows, rows[:, None] * n + cols))
        return groups

    gather_idx, scatter_idx = build_pairs(alive)
    degrees = np.bincount(gather_idx, minlength=N * n).reshape(N, n)
    dangling = degrees == 0
    safe_degrees = np.where(dangling, 1.0, degrees)
    groups = dangling_groups(dangling)
    teleport = (1.0 - damping) / n

    pr = np.empty((N, n))
    block = np.arange(N)              # global world ids of the working block
    cur = np.full((N, n), 1.0 / n)    # the block's iterates, row per world
    work = np.empty_like(cur)
    running = np.ones(N, dtype=bool)  # per-block-row: not yet converged
    for _ in range(max_iterations):
        k = block.size
        np.divide(cur, safe_degrees, out=work)
        # (An empty bincount comes back int64, whatever the weights.)
        pushed = np.bincount(
            scatter_idx, weights=work.ravel()[gather_idx], minlength=k * n
        ).astype(np.float64, copy=False).reshape(k, n)
        # Rows without dangling vertices keep the exact 0.0 an empty
        # selection would sum to.
        mass = np.zeros(k)
        flat = cur.ravel()
        for rows, idx in groups:
            mass[rows] = flat[idx].sum(axis=1)
        mass /= n
        # (1 - d) / n + d * (pushed + mass / n), operation for operation.
        pushed += mass[:, None]
        pushed *= damping
        pushed += teleport
        np.subtract(pushed, cur, out=work)
        np.abs(work, out=work)
        deltas = work.sum(axis=1)
        if running.all():
            cur = pushed
            running = deltas >= tol
        else:
            live = np.flatnonzero(running)
            cur[live] = pushed[live]
            running[live] = deltas[live] >= tol
        still = int(running.sum())
        if still == 0:
            break
        if still * 2 <= k:
            pr[block] = cur
            block = block[running]
            cur = cur[running]
            work = np.empty_like(cur)
            safe_degrees = safe_degrees[running]
            dangling = dangling[running]
            running = np.ones(block.size, dtype=bool)
            gather_idx, scatter_idx = build_pairs(alive[block])
            groups = dangling_groups(dangling)
    pr[block] = cur
    return pr


class PageRankQuery:
    """Per-vertex pagerank outcomes across possible worlds.

    ``n`` must be a non-negative integer, ``damping`` a real in
    ``[0, 1]`` and ``max_iterations`` a positive integer (booleans are
    rejected for all three); anything else raises ``ValueError`` here
    rather than a wrong estimate later.
    """

    name = "PR"

    def __init__(self, n: int, damping: float = 0.85, max_iterations: int = 60) -> None:
        if not is_index(n):
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        if (
            isinstance(damping, bool)
            or not isinstance(damping, numbers.Real)
            or not 0 <= damping <= 1
        ):
            raise ValueError(
                f"damping must be a finite real in [0, 1], got {damping!r}"
            )
        if not is_index(max_iterations) or max_iterations < 1:
            raise ValueError(
                f"max_iterations must be a positive integer, got {max_iterations!r}"
            )
        self.n = n
        self.damping = damping
        self.max_iterations = max_iterations

    def unit_count(self) -> int:
        return self.n

    def evaluate_batch(self, batch: "WorldBatch") -> np.ndarray:
        """Power-iterate every world at once; see :func:`batch_pagerank`."""
        return batch_pagerank(
            batch, damping=self.damping, max_iterations=self.max_iterations
        )
