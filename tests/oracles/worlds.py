"""One possible world at a time: the per-world protocol.

:class:`World` materialises one deterministic world as its own CSR and
walks it with plain per-world graph routines (BFS, reachability,
connectivity, degrees, clustering coefficients, Dijkstra).  The
functions below draw and build such worlds from a
:class:`~repro.sampling.worlds.WorldSampler` — one ``rng.random(m)``
per world, the stream one ``sample_mask_matrix`` row consumes — or pull
them out of a :class:`~repro.sampling.batch.WorldBatch`, so every
ensemble kernel can be checked world by world.

Worlds index vertices densely ``0..n-1`` in the order of
``graph.vertex_indexer()``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.sampling.batch import WorldBatch
from repro.sampling.worlds import WorldSampler, check_vertex
from repro.utils.rng import ensure_rng


class World:
    """One deterministic possible world in CSR form.

    Parameters
    ----------
    n:
        Vertex count.
    edge_vertices:
        ``(m, 2)`` endpoints of the *parent* uncertain graph.
    mask:
        Boolean array choosing which parent edges exist here.
    edge_weights:
        Optional ``(m,)`` weights per *parent* edge (the helpers below
        attach the sampler's ``-log p`` most-probable-path transform);
        stored aligned with this world's CSR so
        :meth:`weighted_distances` works.
    """

    __slots__ = ("n", "mask", "indptr", "indices", "edge_weights", "_edge_count")

    def __init__(
        self,
        n: int,
        edge_vertices: np.ndarray,
        mask: np.ndarray,
        edge_weights: np.ndarray | None = None,
    ) -> None:
        self.n = n
        self.mask = mask
        alive = np.flatnonzero(mask)
        self._edge_count = len(alive)
        u = edge_vertices[alive, 0]
        v = edge_vertices[alive, 1]
        sources = np.concatenate([u, v])
        targets = np.concatenate([v, u])
        order = np.argsort(sources, kind="stable")
        sources = sources[order]
        self.indices = targets[order]
        counts = np.bincount(sources, minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        if edge_weights is None:
            self.edge_weights = None
        else:
            self.edge_weights = np.asarray(edge_weights, dtype=np.float64)[
                np.concatenate([alive, alive])[order]
            ]

    # -- basic structure ----------------------------------------------------
    def number_of_edges(self) -> int:
        """Edges present in this world."""
        return self._edge_count

    def degrees(self) -> np.ndarray:
        """Degree vector of the world."""
        return np.diff(self.indptr)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Neighbour ids of ``vertex``."""
        return self.indices[self.indptr[vertex]:self.indptr[vertex + 1]]

    # -- traversal -----------------------------------------------------------
    def bfs_distances(self, source: int) -> np.ndarray:
        """Unweighted shortest-path distances from ``source`` (-1 unreachable)."""
        source = check_vertex(source, self.n)
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        indptr, indices = self.indptr, self.indices
        while len(frontier):
            level += 1
            # Gather all neighbours of the frontier in one shot.
            starts = indptr[frontier]
            ends = indptr[frontier + 1]
            total = int((ends - starts).sum())
            if total == 0:
                break
            nxt = np.empty(total, dtype=np.int64)
            pos = 0
            for s, e in zip(starts, ends):
                nxt[pos:pos + (e - s)] = indices[s:e]
                pos += e - s
            nxt = nxt[dist[nxt] == -1]
            if len(nxt) == 0:
                break
            nxt = np.unique(nxt)
            dist[nxt] = level
            frontier = nxt
        return dist

    def weighted_distances(self, source: int) -> np.ndarray:
        """Weighted shortest-path distances from ``source`` (``inf`` unreachable).

        Binary-heap Dijkstra over this world's CSR using the attached
        parent-edge weights (the ``-log p`` transform when the world
        came from a sampler): the per-world reference for the batched
        delta-stepping kernel.
        """
        if self.edge_weights is None:
            raise ValueError(
                "world has no edge weights: pass edge_weights= to World()"
            )
        from oracles.kernels import dijkstra_distances

        return dijkstra_distances(
            self.n, self.indptr, self.indices, self.edge_weights,
            check_vertex(source, self.n),
        )

    def reachable_from(self, source: int) -> np.ndarray:
        """Boolean reachability vector from ``source``."""
        return self.bfs_distances(source) >= 0

    def is_connected(self) -> bool:
        """True when the world forms a single connected component."""
        if self.n <= 1:
            return True
        return bool(self.reachable_from(0).all())

    def connected_component_count(self) -> int:
        """Number of connected components."""
        remaining = np.ones(self.n, dtype=bool)
        components = 0
        while remaining.any():
            source = int(np.argmax(remaining))
            reach = self.reachable_from(source)
            remaining &= ~reach
            components += 1
        return components

    # -- local structure -------------------------------------------------------
    def clustering_coefficients(self) -> np.ndarray:
        """Local clustering coefficient of every vertex (0 for degree < 2)."""
        n = self.n
        coefficients = np.zeros(n, dtype=np.float64)
        indptr, indices = self.indptr, self.indices
        marker = np.zeros(n, dtype=bool)
        for u in range(n):
            nbrs = indices[indptr[u]:indptr[u + 1]]
            d = len(nbrs)
            if d < 2:
                continue
            marker[nbrs] = True
            links = 0
            for w in nbrs:
                w_nbrs = indices[indptr[w]:indptr[w + 1]]
                links += int(marker[w_nbrs].sum())
            marker[nbrs] = False
            # Each triangle edge counted twice (once from each endpoint).
            coefficients[u] = links / (d * (d - 1))
        return coefficients


def sample_mask(
    sampler: WorldSampler, rng: "int | np.random.Generator | None" = None
) -> np.ndarray:
    """One boolean edge-presence mask: one ``rng.random(m)`` draw."""
    rng = ensure_rng(rng)
    return rng.random(sampler.m) < sampler.probabilities


def world_from_mask(sampler: WorldSampler, mask: np.ndarray) -> World:
    """Materialise the world a ``(m,)`` mask selects, weights attached."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (sampler.m,):
        raise ValueError(f"mask must have shape ({sampler.m},), got {mask.shape}")
    return World(
        sampler.n, sampler.edge_vertices, mask, edge_weights=sampler.edge_weights
    )


def sample(
    sampler: WorldSampler, rng: "int | np.random.Generator | None" = None
) -> World:
    """One possible world."""
    return world_from_mask(sampler, sample_mask(sampler, rng))


def sample_many(
    sampler: WorldSampler,
    count: int,
    rng: "int | np.random.Generator | None" = None,
) -> Iterator[World]:
    """Yield ``count`` independent worlds from one generator."""
    rng = ensure_rng(rng)
    for _ in range(count):
        yield sample(sampler, rng)


def log_world_probability(sampler: WorldSampler, mask: np.ndarray) -> float:
    """Log-probability of a specific world under edge independence."""
    p = sampler.probabilities
    mask = np.asarray(mask, dtype=bool)
    with np.errstate(divide="ignore"):
        present = np.log(p[mask]).sum()
        absent = np.log1p(-p[~mask]).sum()
    return float(present + absent)


def batch_worlds(batch: WorldBatch) -> Iterator[World]:
    """Every world of an ensemble, in row order, with the batch's weights."""
    for mask in batch.masks:
        yield World(
            batch.n, batch.topology.edge_vertices, mask,
            edge_weights=batch.edge_weights,
        )
