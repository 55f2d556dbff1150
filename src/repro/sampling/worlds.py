"""Possible-world sampling (the Monte-Carlo substrate, paper section 1).

An uncertain graph denotes ``2^|E|`` deterministic *possible worlds*;
every query is an expectation over them.  :class:`WorldSampler` draws
worlds as Bernoulli edge masks (``rng.random < p`` per edge, the O(|E|)
sampling cost the paper's running-time argument is built on) and wraps
them as :class:`~repro.sampling.batch.WorldBatch` ensembles, which the
queries evaluate all at once.

Worlds index vertices densely ``0..n-1`` in the order of
``graph.vertex_indexer()``.  The vertex-id checks shared by every
traversal entry point live here too.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable

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


#: Bytes of the uniform block :meth:`WorldSampler.sample_mask_matrix`
#: refills: small enough to stay in a core's L2 cache while it is
#: compared with ``p``.
_UNIFORM_BLOCK_BYTES = 1 << 20


class WorldSampler:
    """Vectorised Monte-Carlo possible-world sampler for a graph.

    Precomputes the edge arrays once; each draw costs one ``m``-vector
    of uniforms per world, and every batch shares one parent CSR.

    Examples
    --------
    >>> from repro.core import UncertainGraph
    >>> g = UncertainGraph([(0, 1, 0.5), (1, 2, 1.0)])
    >>> sampler = WorldSampler(g)
    >>> batch = sampler.sample_batch(4, rng=0)
    >>> batch.n_worlds, batch.n
    (4, 3)
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

        Attached to every sampled batch so weighted queries work without
        extra plumbing.
        """
        if self._edge_weights is None:
            from repro.sampling.kernels import most_probable_path_weights

            self._edge_weights = most_probable_path_weights(self.probabilities)
            self._edge_weights.setflags(write=False)
        return self._edge_weights

    def sample_mask_matrix(
        self, count: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        """``(count, m)`` Bernoulli mask matrix: ``rng.random((count, m)) < p``.

        ``Generator.random`` fills row-major from the stream, so row
        ``i`` consumes exactly the uniforms of the ``i``-th world drawn
        one ``rng.random(m)`` at a time, and a run split into chunks
        draws the same worlds as one call.  The uniforms are drawn a
        few rows at a time into one reused block of
        :data:`_UNIFORM_BLOCK_BYTES` (at least one row), so the
        ``(count, m)`` float matrix is never built; the stream is
        consumed exactly as one ``rng.random((count, m))`` call would.
        """
        rng = ensure_rng(rng)
        masks = np.empty((count, self.m), dtype=bool)
        rows = max(1, _UNIFORM_BLOCK_BYTES // (8 * max(self.m, 1)))
        block = np.empty((min(rows, count), self.m))
        for start in range(0, count, rows):
            uniforms = block[:min(rows, count - start)]
            rng.random(out=uniforms)
            np.less(uniforms, self.probabilities,
                    out=masks[start:start + len(uniforms)])
        return masks

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
