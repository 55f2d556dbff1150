"""Batched world ensembles: all Monte-Carlo worlds as one array program.

A :class:`WorldBatch` holds an ``(N, m)`` Bernoulli mask matrix over one
shared parent CSR (:class:`BatchTopology`), and each graph primitive
runs over *all* worlds simultaneously as dense NumPy kernels —

- degrees via one ``bincount`` of the alive edges' endpoints,
- BFS through the bit-packed uint64 frontier kernel of
  :mod:`repro.sampling.kernels`,
- *weighted* distances (the ``-log p`` most-probable-path transform)
  via the bucketed delta-stepping kernel,
- connected components via one ``scipy.sparse.csgraph`` pass over the
  block-diagonal graph of all worlds, its CSR built straight from the
  alive (world, edge) pairs,
- triangle counting from a precomputed parent triangle table.

Every kernel returns exactly what building each world's own CSR and
walking it would: the alive directed edges of a world appear in the
shared CSR in the order that world's CSR lists them (a stable sort
restricted to a subsequence preserves order), and dead edges only ever
contribute exact no-ops (``+0.0``, ``| False``, ``min(.., n)``).  The
seeded property tests in ``tests/test_batch.py`` hold the kernels to the
one-world-at-a-time references in ``tests/oracles/``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import EstimationError
from repro.sampling import kernels
from repro.sampling.worlds import check_vertex, check_vertices
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.base import Query
    from repro.sampling.worlds import WorldSampler

#: Default memory budget (bytes) for one batch chunk's working arrays.
DEFAULT_BATCH_BYTES = 64 * 1024 * 1024

#: Environment override for the default chunk working-set budget (bytes).
#: Only consulted when no explicit ``budget_bytes`` is passed.
BATCH_BYTES_ENV = "REPRO_BATCH_BYTES"


def kernel_world_bytes(n_edges: int, n_vertices: int) -> int:
    """Per-world working-set estimate (bytes) of the packed BFS kernel.

    Packed frontiers carry 1 *bit* per (world, directed edge) plus the
    uint64 word matrices, so the edge term is ``4m`` bytes per world
    (packed liveness + packed mask layout); the ``(B, n)`` vertex-state
    term covers the distance matrix, reached/frontier rows and bincount
    scratch.
    """
    return 2 * max(2 * n_edges, 1) + 32 * max(n_vertices, 1)


def _env_batch_bytes() -> int | None:
    """The ``REPRO_BATCH_BYTES`` budget, or ``None`` when unset.

    Anything but a positive integer is rejected here, at the boundary,
    rather than failing deep inside an estimate (``"64MB"``) or silently
    forcing one-world chunks (``"0"``, ``"-5"``).
    """
    raw = os.environ.get(BATCH_BYTES_ENV, "").strip()
    if not raw:
        return None
    if not (raw.isascii() and raw.isdigit()) or int(raw) == 0:
        raise EstimationError(
            f"{BATCH_BYTES_ENV} must be a positive integer byte count, "
            f"got {raw!r}"
        )
    return int(raw)


def auto_chunk_size(
    n_samples: int,
    n_edges: int,
    n_vertices: int = 0,
    budget_bytes: int | None = None,
) -> int:
    """Chunk size keeping one chunk's working set near the byte budget.

    Budget resolution, in priority order: an explicit ``budget_bytes``;
    the ``REPRO_BATCH_BYTES`` environment variable (a positive integer,
    else :class:`~repro.exceptions.EstimationError`); else
    :data:`DEFAULT_BATCH_BYTES`.

    The per-world footprint is :func:`kernel_world_bytes`.

    Chunk boundaries remain a pure function of the problem shape and the
    resolved budget — estimates are chunk-invariant by the row-major
    stream contract, so re-budgeting never changes results.
    """
    if budget_bytes is None:
        budget_bytes = _env_batch_bytes()
    if budget_bytes is None:
        budget_bytes = DEFAULT_BATCH_BYTES
    per_world = kernel_world_bytes(n_edges, n_vertices)
    return int(max(1, min(n_samples, budget_bytes // max(per_world, 1))))


def _label_index_dtype(nodes: int, entries: int) -> type:
    """Index dtype of a component-labelling CSR with ``nodes`` rows and
    ``entries`` stored entries: int32 while every column index
    (``< nodes``) and row pointer (``<= entries``) fits, else int64."""
    fits = max(nodes, entries) <= np.iinfo(np.int32).max
    return np.int32 if fits else np.int64


def chunk_counts(n_samples: int, chunk: int) -> list[int]:
    """Chunk boundaries of a run: full chunks, then the remainder."""
    if n_samples < 0:
        raise EstimationError(f"n_samples must be non-negative, got {n_samples}")
    if chunk < 1:
        raise EstimationError(f"chunk must be positive, got {chunk}")
    counts = [chunk] * (n_samples // chunk)
    if n_samples % chunk:
        counts.append(n_samples % chunk)
    return counts


def evaluate_chunks(
    sampler: "WorldSampler",
    query: "Query",
    n_samples: int,
    rng: "int | np.random.Generator | None" = None,
    chunk_size: int | None = None,
    fixed_edges: "tuple[np.ndarray, tuple[bool, ...]] | None" = None,
) -> np.ndarray:
    """Sample and evaluate ``n_samples`` worlds chunk by chunk: ``(N, units)``.

    Each chunk's masks come from one
    :meth:`~repro.sampling.worlds.WorldSampler.sample_mask_matrix` call,
    drawn in chunk order, so the run consumes ``rng`` exactly like
    ``n_samples`` sequential one-world draws and the outcome matrix does
    not depend on ``chunk_size`` (``None`` sizes chunks with
    :func:`auto_chunk_size`).  ``fixed_edges=(columns, values)``
    overwrites those mask columns in every chunk before it is evaluated
    — the stratified estimator's conditioned edges.

    A query without a callable ``evaluate_batch`` raises
    :class:`~repro.exceptions.EstimationError` before any world is
    drawn.
    """
    # Imported per call: the query modules import this package, and a
    # wrapper installed on the module attribute sees every chunk.
    from repro.queries.base import check_batch_query, evaluate_query_batch

    check_batch_query(query)
    rng = ensure_rng(rng)
    if chunk_size is None:
        chunk_size = auto_chunk_size(n_samples, sampler.m, n_vertices=sampler.n)
    rows = []
    for count in chunk_counts(n_samples, chunk_size):
        masks = sampler.sample_mask_matrix(count, rng)
        if fixed_edges is not None:
            columns, values = fixed_edges
            masks[:, columns] = values
        rows.append(evaluate_query_batch(query, sampler.batch_from_masks(masks)))
    if not rows:
        return np.empty((0, query.unit_count()), dtype=np.float64)
    return np.concatenate(rows, axis=0)


class BatchTopology:
    """Shared parent-graph CSR reused by every chunk of a sampling run.

    Directed edges are sorted by source with a stable sort, so
    restricting the directed arrays to one world's alive edges gives
    exactly the CSR that world's own stable sort would build.

    Attributes
    ----------
    indptr, indices:
        Parent CSR over all ``2m`` directed edges.
    dir_source:
        Source vertex of each directed edge (sorted, ascending).
    dir_edge:
        Undirected parent-edge id of each directed edge — the column to
        consult in a mask matrix.
    tail_order:
        ``None`` when the parent edges' first endpoints ascend (every
        parsed or generated graph's canonical rows), else the stable
        column order that makes them ascend (a binary file's stored
        rows): :meth:`WorldBatch.component_labels` reads the mask
        columns in this order.
    """

    __slots__ = (
        "n", "m", "edge_vertices", "indptr", "indices", "dir_source",
        "dir_edge", "tail_order", "_triangles", "_target_grouping",
    )

    def __init__(self, n: int, edge_vertices: np.ndarray) -> None:
        self.n = int(n)
        edge_vertices = np.asarray(edge_vertices, dtype=np.int64)
        self.edge_vertices = edge_vertices
        self.m = len(edge_vertices)
        u = edge_vertices[:, 0]
        v = edge_vertices[:, 1]
        sources = np.concatenate([u, v])
        targets = np.concatenate([v, u])
        order = np.argsort(sources, kind="stable")
        self.dir_source = sources[order]
        self.indices = targets[order]
        self.dir_edge = np.concatenate(
            [np.arange(self.m), np.arange(self.m)]
        )[order]
        counts = np.bincount(sources, minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.tail_order = (
            None if bool(np.all(u[1:] >= u[:-1]))
            else np.argsort(u, kind="stable")
        )
        self._triangles: tuple[np.ndarray, np.ndarray] | None = None
        self._target_grouping: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def target_grouping(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed edges grouped by *target*: ``(order, starts, empty)``.

        ``order`` stably sorts the directed edges by target vertex,
        ``starts`` gives each vertex's segment offset (for ``reduceat``
        over arrays padded with one identity column), and ``empty``
        flags vertices with no incident edges (whose ``reduceat`` slot
        must be overwritten with the identity).  Built lazily and
        cached — the traversal kernels scatter into targets every
        level/relaxation.
        """
        if self._target_grouping is None:
            order = np.argsort(self.indices, kind="stable")
            counts = np.bincount(self.indices, minlength=self.n)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
            self._target_grouping = (order, starts, counts == 0)
        return self._target_grouping

    def triangle_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Parent triangles as ``(corners (T, 3), edge_ids (T, 3))``.

        Each triangle is listed once (``u < v < w``); built lazily and
        cached since it only depends on the parent graph.

        Every wedge ``a - b - w`` with ``a < b < w`` is enumerated at
        once: each edge ``(a, b)`` expands the CSR segment of its higher
        endpoint ``b`` restricted to neighbours ``w > b`` (an "upward"
        CSR, so a hub pays only for its higher-id neighbours), and one
        ``searchsorted`` over the sorted endpoint keys closes the wedges
        whose ``(a, w)`` edge exists.  Rows come out in edge-id order,
        each edge's wedges in CSR order, so a triangle anchors at its
        lexicographically smallest edge.
        """
        if self._triangles is None:
            self._triangles = self._enumerate_triangles()
        return self._triangles

    def _enumerate_triangles(self) -> tuple[np.ndarray, np.ndarray]:
        n, m = self.n, self.m
        none = (np.empty((0, 3), dtype=np.int64), np.empty((0, 3), dtype=np.int64))
        if m == 0:
            return none
        u, v = self.edge_vertices[:, 0], self.edge_vertices[:, 1]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        # Sorted key table for (endpoint pair) -> undirected edge id.
        keys = lo * n + hi
        key_order = np.argsort(keys, kind="stable")
        sorted_keys = keys[key_order]
        # Upward CSR: the directed edges pointing to a higher id, in the
        # parent CSR's order.
        upward = np.flatnonzero(self.indices > self.dir_source)
        up_indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self.dir_source[upward], minlength=n))]
        )
        lengths = up_indptr[hi + 1] - up_indptr[hi]
        total = int(lengths.sum())
        if total == 0:
            return none
        slots = upward[kernels._csr_segment_indices(up_indptr, hi, lengths, total)]
        anchor = np.repeat(np.arange(m), lengths)
        w = self.indices[slots]
        wanted = lo[anchor] * n + w
        probe = np.minimum(np.searchsorted(sorted_keys, wanted), m - 1)
        closed = sorted_keys[probe] == wanted
        anchor, w = anchor[closed], w[closed]
        corners = np.stack([lo[anchor], hi[anchor], w], axis=1)
        edge_ids = np.stack(
            [anchor, key_order[probe[closed]], self.dir_edge[slots[closed]]],
            axis=1,
        )
        return corners.astype(np.int64), edge_ids.astype(np.int64)


class WorldBatch:
    """An ensemble of ``N`` possible worlds evaluated as array programs.

    Parameters
    ----------
    n:
        Vertex count of the parent graph.
    edge_vertices:
        ``(m, 2)`` dense endpoint ids of the parent edges.
    masks:
        ``(N, m)`` boolean matrix; row ``i`` selects the alive edges of
        world ``i``.
    topology:
        Optional precomputed :class:`BatchTopology` (one per graph —
        the samplers cache and share it across chunks).
    edge_weights:
        Optional ``(m,)`` non-negative weights per parent edge (the
        samplers attach the ``-log p`` most-probable-path transform);
        required by :meth:`weighted_distances`.

    Examples
    --------
    >>> from repro.core import UncertainGraph
    >>> from repro.sampling import WorldSampler
    >>> g = UncertainGraph([(0, 1, 0.5), (1, 2, 1.0)])
    >>> batch = WorldSampler(g).sample_batch(8, rng=0)
    >>> batch.degrees().shape
    (8, 3)
    """

    __slots__ = (
        "n", "m", "n_worlds", "masks", "topology", "edge_weights",
        "_alive_directed", "_labels",
        "_packed_masks", "_packed_alive", "_alive_ordered",
    )

    def __init__(
        self,
        n: int,
        edge_vertices: np.ndarray,
        masks: np.ndarray,
        topology: BatchTopology | None = None,
        edge_weights: np.ndarray | None = None,
    ) -> None:
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2:
            raise ValueError(f"masks must be 2-D (worlds, edges), got {masks.shape}")
        self.n = int(n)
        self.n_worlds, self.m = masks.shape
        if len(edge_vertices) != self.m:
            raise ValueError(
                f"masks have {self.m} columns but the graph has "
                f"{len(edge_vertices)} edges"
            )
        if edge_weights is not None:
            edge_weights = np.asarray(edge_weights, dtype=np.float64)
            if edge_weights.shape != (self.m,):
                raise ValueError(
                    f"edge_weights must have shape ({self.m},), "
                    f"got {edge_weights.shape}"
                )
        self.masks = masks
        self.topology = topology if topology is not None else BatchTopology(
            n, edge_vertices
        )
        self.edge_weights = edge_weights
        self._alive_directed: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._packed_masks = None
        self._packed_alive = None
        self._alive_ordered = None

    # -- basic structure ----------------------------------------------------
    def alive_directed(self) -> np.ndarray:
        """``(N, 2m)`` liveness of each directed CSR edge per world (cached)."""
        if self._alive_directed is None:
            self._alive_directed = self.masks[:, self.topology.dir_edge]
        return self._alive_directed

    def degrees(self) -> np.ndarray:
        """``(N, n)`` int64 degree matrix.

        One ``bincount`` per endpoint column over the alive (world,
        edge) pairs, taken from ``flatnonzero`` of the mask matrix.
        """
        N, n, m = self.n_worlds, self.n, self.m
        if N * m == 0:
            return np.zeros((N, n), dtype=np.int64)
        world, edge = np.divmod(np.flatnonzero(self.masks), m)
        offset = world * n
        ends = self.topology.edge_vertices
        degrees = np.bincount(offset + ends[edge, 0], minlength=N * n)
        degrees += np.bincount(offset + ends[edge, 1], minlength=N * n)
        return degrees.reshape(N, n)

    # -- traversal -----------------------------------------------------------
    def bfs_distances(
        self,
        source: int,
        targets: "np.ndarray | list[int] | None" = None,
    ) -> np.ndarray:
        """BFS distances from ``source`` in every world (-1 unreachable).

        Returns the ``(N, n)`` matrix, or with ``targets`` the
        ``(N, len(targets))`` columns of the listed vertices in the
        order given.  A targeted call also retires a world as soon as
        every listed vertex has a distance; BFS levels are
        deterministic, so the early exit never changes a returned
        column.  Runs the bit-packed kernel
        :func:`repro.sampling.kernels.bfs_distances_packed`.

        ``source`` and every target must be integers in ``[0, n)``
        (booleans rejected); anything else raises ``ValueError``.
        """
        source, targets = self._check_ids(source, targets)
        return kernels.bfs_distances_packed(self, source, targets)

    def weighted_distances(
        self,
        source: int,
        targets: "np.ndarray | list[int] | None" = None,
        weights: np.ndarray | None = None,
        delta: "float | None" = None,
    ) -> np.ndarray:
        """Weighted distances in every world (``inf`` unreachable).

        Weights default to the batch's attached ``edge_weights`` (the
        samplers supply the ``-log p`` most-probable-path transform, so
        the result is ``-log`` of each pair's most probable path
        probability).  Computed by the batched delta-stepping kernel
        (:func:`repro.sampling.kernels.delta_stepping_distances`), with
        the same column contract, early exit and id checks as
        :meth:`bfs_distances`.
        """
        if weights is None:
            weights = self.edge_weights
        if weights is None:
            raise ValueError(
                "no edge weights: pass weights= or build the batch through "
                "a WorldSampler (which attaches the -log p transform)"
            )
        source, targets = self._check_ids(source, targets)
        return kernels.delta_stepping_distances(
            self, source, weights, delta=delta, targets=targets
        )

    def _check_ids(self, source, targets):
        """The traversal ids as ``(int, int64 array or None)``, checked."""
        source = check_vertex(source, self.n)
        if targets is not None:
            targets = check_vertices(targets, self.n)
        return source, targets

    def is_connected(self) -> np.ndarray:
        """``(N,)`` booleans: world forms a single connected component."""
        if self.n <= 1:
            return np.ones(self.n_worlds, dtype=bool)
        return self.connected_component_count() == 1

    def component_labels(self) -> np.ndarray:
        """``(N, n)`` int32 labels: each vertex mapped to its component's min id.

        One :func:`scipy.sparse.csgraph.connected_components` pass over
        the block-diagonal union of all worlds: vertex ``v`` of world
        ``w`` is node ``w * n + v``, with one entry per alive edge of
        the mask matrix.  The CSR is built straight from the alive
        pairs: ``flatnonzero`` lists them world-major, so once the
        parent edges' first endpoints ascend (the topology's
        ``tail_order``) they are already in row order and the row
        pointer is one ``bincount``.  Node ids ascend inside a world's
        block, so a component's smallest node is its smallest vertex id
        plus the block offset — the label is that node mod ``n``, which
        depends on the masks alone.  Cached: every
        connectivity-flavoured query on the batch shares one pass.
        """
        if self._labels is not None:
            return self._labels
        # Imported on first use: scipy.sparse and its csgraph add ~28 MB
        # of resident memory to processes that never label components.
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        N, n, m = self.n_worlds, self.n, self.m
        size = N * n
        if size == 0:
            self._labels = np.empty((N, n), dtype=np.int32)
            return self._labels
        masks, ends = self.masks, self.topology.edge_vertices
        order = self.topology.tail_order
        if order is not None:
            masks, ends = masks[:, order], ends[order]
        # Each temporary is dropped once consumed: the labelling pass,
        # which adds the transposed CSR, holds the peak memory.
        world, edge = np.divmod(np.flatnonzero(masks), m)
        del masks
        index = _label_index_dtype(size, len(edge))
        world *= n
        tails = ends[:, 0].astype(index)[edge]
        tails += world
        heads = ends[:, 1].astype(index)[edge]
        heads += world
        del world, edge
        indptr = np.zeros(size + 1, dtype=index)
        np.cumsum(np.bincount(tails, minlength=size), out=indptr[1:])
        del tails
        graph = csr_matrix(
            (np.ones(len(heads)), heads, indptr), shape=(size, size)
        )
        del heads, indptr
        count, component = connected_components(graph, directed=False)
        del graph
        first = np.full(count, size, dtype=index)
        np.minimum.at(first, component, np.arange(size, dtype=index))
        labels = first[component]
        del first, component
        labels %= n
        self._labels = labels.astype(np.int32, copy=False).reshape(N, n)
        return self._labels

    def connected_component_count(self) -> np.ndarray:
        """``(N,)`` number of connected components per world."""
        labels = self.component_labels()
        roots = labels == np.arange(self.n, dtype=np.int32)
        return roots.sum(axis=1)

    # -- local structure -----------------------------------------------------
    def triangle_counts(self) -> np.ndarray:
        """``(N, n)`` triangles through each vertex in each world."""
        N, n = self.n_worlds, self.n
        corners, edge_ids = self.topology.triangle_table()
        counts = np.zeros((N, n), dtype=np.int64)
        if len(corners) == 0:
            return counts
        masks = self.masks
        tri_alive = (
            masks[:, edge_ids[:, 0]]
            & masks[:, edge_ids[:, 1]]
            & masks[:, edge_ids[:, 2]]
        )
        w_idx, t_idx = np.divmod(np.flatnonzero(tri_alive), len(corners))
        if w_idx.size == 0:
            return counts
        for corner in range(3):
            flat = w_idx * n + corners[t_idx, corner]
            counts += np.bincount(flat, minlength=N * n).reshape(N, n)
        return counts

    def clustering_coefficients(self) -> np.ndarray:
        """``(N, n)`` local clustering coefficients (0 for degree < 2)."""
        degrees = self.degrees()
        triangles = self.triangle_counts()
        denom = degrees * (degrees - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            coefficients = (2 * triangles) / denom
        return np.where(denom > 0, coefficients, 0.0)
