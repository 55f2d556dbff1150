"""Possible-world sampling (the Monte-Carlo substrate, paper section 1).

An uncertain graph denotes ``2^|E|`` deterministic *possible worlds*;
every query is an expectation over them.  This module provides:

- :class:`WorldSampler` — samples worlds by flipping all edge coins at
  once (one vectorised ``rng.random(m) < p`` per world, the O(|E|)
  sampling cost the paper's running-time argument is built on), and
- :class:`World` — a deterministic instantiation with a compact CSR
  adjacency and the graph primitives every query needs (BFS distances,
  reachability, connectivity, degrees, clustering coefficients).

Worlds index vertices densely ``0..n-1`` in the order of
``graph.vertex_indexer()``.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from repro.utils.rng import ensure_rng


def is_index(value) -> bool:
    """``value`` is a non-negative integer (booleans excluded)."""
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and value >= 0
    )


def check_vertex(vertex, n: int) -> int:
    """``vertex`` as an ``int``; ``ValueError`` unless it is an integer in ``[0, n)``.

    numpy would otherwise wrap ``-1`` round to the last vertex and read
    ``True`` as vertex 1.
    """
    if not (is_index(vertex) and vertex < n):
        raise ValueError(f"vertex id {vertex!r} is not an integer in [0, {n})")
    return int(vertex)


def check_vertices(vertices: "np.ndarray | Iterable[int]", n: int) -> np.ndarray:
    """:func:`check_vertex` for a sequence: the ids as a 1-D int64 array."""
    if isinstance(vertices, np.ndarray) and vertices.dtype.kind in "iu":
        if vertices.ndim != 1:
            raise ValueError(f"vertex ids must be 1-D, got shape {vertices.shape}")
        outside = (vertices < 0) | (vertices >= n)
        if outside.any():
            check_vertex(int(vertices[outside][0]), n)
        return vertices.astype(np.int64, copy=False)
    if isinstance(vertices, np.ndarray):
        vertices = vertices.tolist()
    return np.array([check_vertex(v, n) for v in vertices], dtype=np.int64)


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
        Optional ``(m,)`` weights per *parent* edge (the samplers pass
        the ``-log p`` most-probable-path transform); stored aligned
        with this world's CSR so :meth:`weighted_distances` works.
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
        came from a :class:`WorldSampler`): the per-world reference for
        the batched delta-stepping kernel.
        """
        if self.edge_weights is None:
            raise ValueError(
                "world has no edge weights: build it through a WorldSampler "
                "or pass edge_weights= to World()"
            )
        from repro.sampling.kernels import dijkstra_distances

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


class WorldSampler:
    """Vectorised Monte-Carlo possible-world sampler for a graph.

    Precomputes the edge arrays once; each draw costs one ``m``-vector
    of uniforms plus the CSR build.

    Examples
    --------
    >>> from repro.core import UncertainGraph
    >>> g = UncertainGraph([(0, 1, 0.5), (1, 2, 1.0)])
    >>> sampler = WorldSampler(g)
    >>> world = sampler.sample(rng=0)
    >>> world.n
    3
    """

    def __init__(self, graph: UncertainGraph) -> None:
        self.graph = graph
        self.n = graph.number_of_vertices()
        self.edge_vertices = graph.edge_index_array()
        self.probabilities = np.array(graph.probability_array())
        self.m = len(self.probabilities)
        self._topology = None  # shared BatchTopology, built on first batch
        self._edge_weights = None  # -log p transform, built on first use

    @property
    def edge_weights(self) -> np.ndarray:
        """``(m,)`` most-probable-path weights ``-log p`` (cached, read-only).

        Attached to every sampled :class:`World` / batch so weighted
        queries work on any evaluation path without extra plumbing.
        """
        if self._edge_weights is None:
            from repro.sampling.kernels import most_probable_path_weights

            self._edge_weights = most_probable_path_weights(self.probabilities)
            self._edge_weights.setflags(write=False)
        return self._edge_weights

    def sample_mask(self, rng: "int | np.random.Generator | None" = None) -> np.ndarray:
        """One boolean edge-presence mask."""
        rng = ensure_rng(rng)
        return rng.random(self.m) < self.probabilities

    def sample(self, rng: "int | np.random.Generator | None" = None) -> World:
        """One possible world."""
        return World(
            self.n, self.edge_vertices, self.sample_mask(rng),
            edge_weights=self.edge_weights,
        )

    def sample_many(
        self, count: int, rng: "int | np.random.Generator | None" = None
    ) -> Iterator[World]:
        """Yield ``count`` independent worlds from one generator."""
        rng = ensure_rng(rng)
        weights = self.edge_weights
        for _ in range(count):
            yield World(
                self.n, self.edge_vertices, self.sample_mask(rng),
                edge_weights=weights,
            )

    def sample_mask_matrix(
        self, count: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        """``(count, m)`` Bernoulli mask matrix from one vectorised RNG call.

        Row ``i`` consumes exactly the uniforms that the ``i``-th
        sequential :meth:`sample_mask` call would — ``Generator.random``
        fills row-major from the same stream — so batched and per-world
        sampling are seeded-identical.
        """
        rng = ensure_rng(rng)
        return rng.random((count, self.m)) < self.probabilities

    def sample_batch(
        self,
        count: int,
        rng: "int | np.random.Generator | None" = None,
    ) -> "WorldBatch":
        """Sample ``count`` worlds as one :class:`~repro.sampling.batch.WorldBatch`."""
        return self.batch_from_masks(self.sample_mask_matrix(count, rng))

    def batch_from_masks(self, masks: np.ndarray) -> "WorldBatch":
        """Wrap an explicit ``(N, m)`` mask matrix, sharing the parent CSR."""
        from repro.sampling.batch import BatchTopology, WorldBatch

        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.m:
            raise ValueError(
                f"masks must have shape (N, {self.m}), got {masks.shape}"
            )
        if self._topology is None:
            self._topology = BatchTopology(self.n, self.edge_vertices)
        return WorldBatch(
            self.n, self.edge_vertices, masks, topology=self._topology,
            edge_weights=self.edge_weights,
        )

    def world_from_mask(self, mask: np.ndarray) -> World:
        """Materialise a specific world (used by exact enumeration / strata)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.m,):
            raise ValueError(f"mask must have shape ({self.m},), got {mask.shape}")
        return World(
            self.n, self.edge_vertices, mask, edge_weights=self.edge_weights
        )

    def log_world_probability(self, mask: np.ndarray) -> float:
        """Log-probability of a specific world under edge independence."""
        p = self.probabilities
        mask = np.asarray(mask, dtype=bool)
        with np.errstate(divide="ignore"):
            present = np.log(p[mask]).sum()
            absent = np.log1p(-p[~mask]).sum()
        return float(present + absent)
