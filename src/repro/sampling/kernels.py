"""Ensemble traversal kernels: the compute layer under WorldBatch.

:class:`~repro.sampling.batch.WorldBatch` is the *data* layout of a
world ensemble — an ``(N, m)`` mask matrix over one shared parent CSR.
This module holds the *traversal* kernels that run over that layout:

- :func:`bfs_distances_packed` — BFS with worlds bit-packed into uint64
  words: frontier / visited sets are ``(vertices, words)`` matrices and
  each level expands all 64 worlds of a word with single bitwise AND/OR
  passes over the shared CSR;
- :func:`delta_stepping_distances` — batched bucketed delta-stepping
  for *weighted* distances (the paper's ``-log p`` most-probable-path
  transform, after Potamias et al. [32]): one shared bucket schedule,
  a per-world tentative-distance matrix, and settled worlds dropping
  out of the working set.

``tests/test_kernels.py`` holds them to the references in
``tests/oracles/``: the packed BFS bit for bit to a boolean-frontier
BFS, delta-stepping within float tolerance to per-world Dijkstra.

Kernels are deliberately ignorant of :class:`WorldBatch` itself; they
consume the duck-typed surface (``n``, ``n_worlds``, ``masks``,
``topology``, ``alive_directed()``) so they never import the batch
module and the dependency points one way only.  They trust the source
and target ids they are given: the ``WorldBatch`` entry points check
them.  Every traversal returns the ``(N, n)`` matrix, or with
``targets`` the ``(N, len(targets))`` target columns in the order
given.
"""

from __future__ import annotations

import numpy as np

#: Bits per packed frontier word.
WORD_BITS = 64


# ----------------------------------------------------------------------
# Weight transform
# ----------------------------------------------------------------------
def most_probable_path_weights(probabilities: np.ndarray) -> np.ndarray:
    """``w_e = -log p_e``: most-probable paths become shortest paths [32].

    Probabilities above 1 are clipped (``w >= 0`` always, and ``p = 1``
    maps to exactly ``+0.0``); non-positive probabilities — impossible
    in an :class:`UncertainGraph` but representable in raw arrays — map
    to ``inf``, i.e. an edge no shortest path may use.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    weights = np.full(p.shape, np.inf, dtype=np.float64)
    positive = p > 0.0
    weights[positive] = -np.log(np.minimum(p[positive], 1.0))
    return np.maximum(weights, 0.0)


# ----------------------------------------------------------------------
# Shared frontier plumbing
# ----------------------------------------------------------------------
def _csr_segment_indices(
    indptr: np.ndarray, cols: np.ndarray, lengths: np.ndarray, total: int
) -> np.ndarray:
    """Directed-edge positions of the CSR segments of vertices ``cols``.

    The narrow-frontier gather every kernel shares: concatenate the
    half-open CSR ranges ``[indptr[c], indptr[c+1])`` of the frontier
    vertices without a Python loop.
    """
    return np.repeat(
        indptr[cols] - np.concatenate([[0], np.cumsum(lengths)[:-1]]),
        lengths,
    ) + np.arange(total)


# ----------------------------------------------------------------------
# Bit-packed BFS
# ----------------------------------------------------------------------
def _pack_world_columns(matrix: np.ndarray) -> np.ndarray:
    """Pack a ``(N, cols)`` boolean matrix into ``(cols, W)`` uint64 words.

    World ``i`` lands in bit ``i % 8`` of byte ``i // 8`` of each
    column; viewing 8 consecutive bytes as one machine word keeps the
    pack/unpack mapping consistent on any endianness (all kernel
    operations in between are pure bitwise AND/OR, which never look at
    bit positions).
    """
    packed = np.packbits(
        np.ascontiguousarray(matrix.T), axis=1, bitorder="little"
    )
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros((packed.shape[0], pad), dtype=np.uint8)], axis=1
        )
    return packed.view(np.uint64)


def _world_word_mask(n_worlds: int) -> np.ndarray:
    """``(W,)`` uint64 with exactly the worlds ``0..n_worlds-1`` set.

    Built through the same packbits pipeline as the data matrices so
    the bit <-> world mapping matches on any endianness.
    """
    return _pack_world_columns(np.ones((n_worlds, 1), dtype=bool))[0]


def _batch_cached(batch, slot: str, build):
    """Per-batch kernel cache: queries traverse from many sources, so
    layout transforms of the (immutable) mask matrix are built once."""
    cached = getattr(batch, slot, None)
    if cached is not None:
        return cached
    value = build()
    try:
        setattr(batch, slot, value)
    except AttributeError:  # duck-typed batch without the cache slot
        pass
    return value


def _packed_masks(batch) -> np.ndarray:
    """The batch's ``(m, W)`` packed mask matrix (cached on the batch)."""
    return _batch_cached(
        batch, "_packed_masks", lambda: _pack_world_columns(batch.masks)
    )


def _packed_alive_ordered(batch, order: np.ndarray) -> np.ndarray:
    """``(2m, W)`` packed directed-edge liveness, target-sorted (cached)."""
    return _batch_cached(
        batch,
        "_packed_alive",
        lambda: _packed_masks(batch)[batch.topology.dir_edge[order]],
    )


def _alive_target_ordered(batch, order: np.ndarray) -> np.ndarray:
    """``(N, 2m)`` boolean liveness in target-sorted order (cached)."""
    return _batch_cached(
        batch, "_alive_ordered", lambda: batch.alive_directed()[:, order]
    )


def bfs_distances_packed(
    batch, source: int, targets: "np.ndarray | list[int] | None" = None
) -> np.ndarray:
    """BFS distances from ``source`` in every world (-1 unreachable).

    Frontier and visited sets live as ``(vertices, W)`` uint64 matrices
    with the ensemble's worlds packed along the bits (``W = ceil(N/64)``
    words), so one AND over the alive-edge words expands a level for 64
    worlds at a time and the level loop moves ~8x fewer bytes than a
    boolean ``(worlds, vertices)`` frontier.  Wide frontiers AND the
    cached target-sorted liveness words with the frontier and group them
    by target vertex with a single ``bitwise_or.reduceat``; narrow
    frontiers gather only the touched CSR segments and scatter with
    ``bitwise_or.at``.  Word
    rows are gathered with ``np.take(..., axis=0)``, which copies whole
    rows where fancy indexing walks them element by element.

    Each level is recorded in binary across packed bit-planes and the
    distances are decoded once, after the loop.  With ``targets`` the
    planes hold only the target rows, so the decode touches
    ``(len(targets), W)`` words and the result is the
    ``(N, len(targets))`` block of target columns in the order given
    (repeats included).  A targeted call also retires a world as soon
    as every listed vertex has a distance; BFS levels are
    deterministic, so the early exit never changes a returned column.
    """
    N, n = batch.n_worlds, batch.n
    if targets is not None:
        targets = np.asarray(targets, dtype=np.int64)
    width = n if targets is None else len(targets)
    if N == 0 or width == 0:
        return np.full((N, width), -1, dtype=np.int64)
    topology = batch.topology
    indptr, dst, dir_edge = topology.indptr, topology.indices, topology.dir_edge
    order, starts, empty = topology.target_grouping()
    source_ordered = topology.dir_source[order]
    alive_ordered = _packed_alive_ordered(batch, order)
    packed_masks = _packed_masks(batch)
    words = (N + WORD_BITS - 1) // WORD_BITS
    world_mask = _world_word_mask(N)

    visited = np.zeros((n, words), dtype=np.uint64)
    visited[source] = world_mask
    # The rows whose levels are recorded: every vertex, or the targets.
    reached = visited if targets is None else np.take(visited, targets, axis=0)
    active = world_mask.copy()
    if targets is not None:
        active &= ~np.bitwise_and.reduce(reached, axis=0)
    frontier = np.zeros((n, words), dtype=np.uint64)
    frontier[source] = active
    cols = np.array([source])  # the vertices fronting in some world
    two_m = len(dst)
    # Activated edge words in target order, plus one zero row that
    # keeps reduceat well-defined for trailing empty segments.
    activated = np.zeros((two_m + 1, words), dtype=np.uint64)
    # planes[j] holds bit j of every recorded entry's level.
    planes: list[np.ndarray] = []
    level = 0
    while active.any():
        level += 1
        lengths = indptr[cols + 1] - indptr[cols]
        total = int(lengths.sum())
        if total == 0:
            break
        if total * 4 >= two_m:
            np.bitwise_and(
                alive_ordered,
                np.take(frontier, source_ordered, axis=0),
                out=activated[:two_m],
            )
            hit = np.bitwise_or.reduceat(activated, starts, axis=0)
            hit[empty] = 0
        else:
            e_sub = _csr_segment_indices(indptr, cols, lengths, total)
            words_sub = np.take(packed_masks, dir_edge[e_sub], axis=0)
            words_sub &= np.take(frontier, np.repeat(cols, lengths), axis=0)
            hit = np.zeros((n, words), dtype=np.uint64)
            np.bitwise_or.at(hit, dst[e_sub], words_sub)
        new = hit & ~visited & active
        # Reductions across a short word row are slow in numpy; on the
        # worlds-major copy they run along contiguous vertex rows.
        new_by_word = np.ascontiguousarray(new.T)
        grew = np.bitwise_or.reduce(new_by_word, axis=1)
        if not grew.any():
            break
        visited |= new
        recorded = new
        if targets is not None:
            recorded = np.take(new, targets, axis=0)
            reached |= recorded
        if level == 1 << len(planes):
            planes.append(np.zeros_like(reached))
        for j, plane in enumerate(planes):
            if level >> j & 1:
                plane |= recorded
        active &= grew
        if targets is not None:
            active &= ~np.bitwise_and.reduce(reached, axis=0)
        frontier = new & active
        cols = np.flatnonzero(
            np.bitwise_or.reduce(new_by_word & active[:, None], axis=0)
        )
    return _decode_levels(planes, reached, N)


def _decode_levels(
    planes: "list[np.ndarray]", reached: np.ndarray, n_worlds: int
) -> np.ndarray:
    """``(N, rows)`` int64 distances from packed level bit-planes.

    ``planes[j]`` holds bit ``j`` of each reached (row, world)'s BFS
    level; entries not in ``reached`` read ``-1``.  Levels are
    assembled in the narrowest type that holds them (int16 unless a BFS
    ran 2**15 levels deep) and widened once at the end.
    """
    level_type = np.int16 if len(planes) < 16 else np.int64

    def unpack(plane: np.ndarray) -> np.ndarray:
        return np.unpackbits(
            plane.view(np.uint8), axis=1, count=n_worlds, bitorder="little"
        ).astype(level_type)

    dist = unpack(reached)
    dist -= 1
    for j, plane in enumerate(planes):
        dist += unpack(plane) << j
    return dist.T.astype(np.int64, order="C")


# ----------------------------------------------------------------------
# Batched weighted distances: bucketed delta-stepping
# ----------------------------------------------------------------------
def default_bucket_width(weights: np.ndarray) -> float:
    """Coarse default: the maximum finite edge weight.

    Any positive width is correct (the tests sweep several); the choice
    only moves work between the bucket schedule and the light-phase
    re-relaxations.  The classic scalar heuristic
    (``max_w / avg_degree``) minimises *re-relaxation work*, but for a
    vectorised ensemble the dominant cost is the number of full-width
    relaxation passes, so coarse buckets win decisively: on a 5k-edge /
    256-world benchmark, ``max_w`` runs ~5x faster than
    ``max_w / avg_degree`` (95 buckets collapse to ~5).  ``max_w``
    keeps every edge light while still producing a real multi-bucket
    schedule whenever distances exceed one edge weight — which is what
    the settled-world / target early exits prune on.  Graphs whose
    finite weights are all zero (every ``p = 1``) get width 1: a single
    bucket, degenerating to frontier-based batched relaxation.
    """
    weights = np.asarray(weights, dtype=np.float64)
    finite = weights[np.isfinite(weights) & (weights > 0)]
    if finite.size == 0:
        return 1.0
    return float(finite.max())


def delta_stepping_distances(
    batch,
    source: int,
    weights: np.ndarray,
    delta: "float | None" = None,
    targets: "np.ndarray | list[int] | None" = None,
) -> np.ndarray:
    """Weighted shortest-path distances in every world at once.

    ``weights`` holds one non-negative weight per *parent* undirected
    edge (``inf`` marks an unusable edge, e.g. the ``-log p`` image of a
    zero-probability edge); unreachable vertices score ``inf``.

    The kernel is classic delta-stepping lifted to the ensemble: a
    ``(N, n)`` tentative-distance matrix, light/heavy edge classes split
    at the bucket width ``delta``, and one **shared bucket schedule** —
    the outer loop jumps to the smallest nonempty bucket over all still-
    running worlds, and each relaxation is a masked gather + per-target
    ``minimum.reduceat`` over the shared CSR.  Worlds contribute only
    their own rows to every relaxation, so a world's result never
    depends on its chunk-mates (rounds where a world's bucket is empty
    reduce with ``inf`` and are exact no-ops); worlds whose pending set
    empties — or, with ``targets``, whose target distances are all
    final — retire from the working set.  Like the BFS kernels it
    returns the ``(N, n)`` matrix, or the ``(N, len(targets))`` target
    columns in the order given.

    Relaxation order differs from Dijkstra's, so agreement with a
    per-world Dijkstra is up to float addition reordering (the seeded
    property tests bound it at ``rtol = 1e-9``).
    """
    N, n = batch.n_worlds, batch.n
    topology = batch.topology
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (batch.m,):
        raise ValueError(
            f"weights must have shape ({batch.m},), got {weights.shape}"
        )
    if np.any(weights < 0):
        raise ValueError("edge weights must be non-negative")
    if delta is None:
        delta = default_bucket_width(weights)
    delta = float(delta)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")

    if targets is not None:
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size == 0:
            return np.empty((N, 0), dtype=np.float64)
    tent = np.full((N, n), np.inf, dtype=np.float64)
    tent[:, source] = 0.0
    if N == 0 or n == 0:
        return tent if targets is None else tent[:, targets]
    order, starts, empty = topology.target_grouping()
    indptr, src, dst = topology.indptr, topology.dir_source, topology.indices
    weight_dir = weights[topology.dir_edge]
    alive = batch.alive_directed()
    # Directed-edge arrays pre-permuted into target-sorted order so a
    # wide relaxation is gather -> add -> one reduceat, no per-round
    # reshuffle.
    weight_ordered = weight_dir[order]
    source_ordered = src[order]
    alive_ordered = _alive_target_ordered(batch, order)
    light_dir = weight_dir <= delta
    light_ordered = light_dir[order]
    two_m = len(weight_dir)

    def relax(rows: np.ndarray, frontier: np.ndarray, want_light: bool) -> np.ndarray:
        """Min candidate distance per (world row, vertex) via ``frontier``.

        Hybrid like the BFS kernel: wide frontiers take one contiguous
        pass over all directed edges (per-target ``minimum.reduceat``);
        narrow ones gather only the frontier vertices' CSR segments and
        scatter with ``minimum.at``.  Minimum is exact in floating
        point, so both branches return bitwise-identical rows — the
        branch choice can never leak between worlds.
        """
        cols = np.flatnonzero(frontier.any(axis=0))
        lengths = indptr[cols + 1] - indptr[cols]
        total = int(lengths.sum())
        relaxed = np.full((len(rows), n), np.inf)
        if total == 0:
            return relaxed
        if total * 4 >= two_m:
            edge_class = light_ordered if want_light else ~light_ordered
            activated = alive_ordered[rows] & frontier[:, source_ordered] & edge_class
            candidates = np.where(
                activated, tent[rows][:, source_ordered] + weight_ordered, np.inf
            )
            padded = np.concatenate(
                [candidates, np.full((len(rows), 1), np.inf)], axis=1
            )
            relaxed = np.minimum.reduceat(padded, starts, axis=1)
            relaxed[:, empty] = np.inf
            return relaxed
        e_sub = _csr_segment_indices(indptr, cols, lengths, total)
        edge_class = light_dir[e_sub] if want_light else ~light_dir[e_sub]
        activated = (
            alive[np.ix_(rows, e_sub)]
            & frontier[:, np.repeat(cols, lengths)]
            & edge_class
        )
        w_loc, e_loc = np.nonzero(activated)
        if w_loc.size == 0:
            return relaxed
        hits = e_sub[e_loc]
        values = tent[rows[w_loc], src[hits]] + weight_dir[hits]
        np.minimum.at(relaxed, (w_loc, dst[hits]), values)
        return relaxed

    rows = np.arange(N)
    bucket = 0
    while rows.size:
        tentative = tent[rows]
        lower = bucket * delta
        pending = np.isfinite(tentative) & (tentative >= lower)
        keep = pending.any(axis=1)
        if targets is not None:
            keep &= ~(tentative[:, targets] < lower).all(axis=1)
        rows = rows[keep]
        if rows.size == 0:
            break
        tentative = tentative[keep]
        pending = pending[keep]
        # Shared schedule: jump to the smallest nonempty bucket anywhere.
        bucket = int(np.where(pending, tentative, np.inf).min() // delta)
        upper = (bucket + 1) * delta
        current = pending & (tentative < upper)
        settled = np.zeros_like(current)
        while current.any():
            settled |= current
            relaxed = relax(rows, current, want_light=True)
            tentative = tent[rows]
            improved = relaxed < tentative
            tentative = np.minimum(tentative, relaxed)
            tent[rows] = tentative
            # Re-insertions: improvements always land at >= bucket*delta
            # (weights are non-negative), so < upper pins them to this
            # bucket — including vertices already settled this phase.
            current = improved & (tentative < upper)
        tent[rows] = np.minimum(tent[rows], relax(rows, settled, want_light=False))
        bucket += 1
    return tent if targets is None else tent[:, targets]

