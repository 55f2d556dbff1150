"""Edge delta batches for streaming / drifting uncertain graphs.

ROADMAP item 3 opens the dynamic scenario: edge probabilities drift and
edges appear/disappear while sparsifiers stay live.  This module defines
the unit of change — :class:`EdgeDeltaBatch`, a canonicalised bundle of
probability updates, insertions and deletions expressed against the
*current* edge ids of a graph — and :func:`apply_delta`, which applies a
batch to a graph and returns an :class:`AppliedDelta` carrying the
old-id → new-id mapping every downstream incremental structure
(``BackbonePlan.repair``, ``SparsificationState.apply_delta``,
sweep-plan extension) keys on.

Id semantics
------------
Edge ids are positions in the graph's edge enumeration.  A delta batch
names updates/deletes by *old* ids and insertions by canonical dense
endpoint pairs.  After application:

- pure probability updates keep every id (``id_map`` is the identity);
- structural batches renumber: survivors keep their *relative* order,
  which is exactly the invariant the stable-sort tie-breaking of
  ``BackbonePlan`` repair relies on, and each inserted edge lands right
  after the surviving edges of its lower endpoint (the graph's one
  insert rule, see :mod:`repro.core.uncertain_graph`).

Insertions are restricted to *existing* vertices (dense ids below
``n``): probability drift rewires a fixed population; growing the
vertex set remains a rebuild.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import GraphError, ProbabilityError


def _checked_shape(values, field: str, pairs: bool = False) -> np.ndarray:
    """``values`` as an array of the field's shape: 1-D, or ``(k, 2)``
    for insert endpoints (an empty sequence also means no inserts).

    Without this, a scalar or a nested list would be flattened into a
    batch the caller never wrote.
    """
    if not isinstance(values, np.ndarray):
        values = np.asarray(values, dtype=object)
    shape = values.shape
    if pairs:
        if not (len(shape) == 2 and shape[1] == 2) and shape != (0,):
            raise GraphError(f"{field} must be shaped (k, 2), got shape {shape}")
    elif len(shape) != 1:
        raise GraphError(f"{field} must be 1-D, got shape {shape}")
    return values


def _as_int_ids(ids, what: str) -> np.ndarray:
    """``ids`` (already shape-checked) as a new flat int64 array.

    numpy would truncate ``1.7`` to 1 and read ``True`` as 1, so any
    value that is not an integer (booleans included) is an error.
    """
    if ids.dtype.kind in "iu":
        return ids.astype(np.int64).reshape(-1)
    values = np.asarray(ids, dtype=object).reshape(-1).tolist()
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise GraphError(f"{what} must be an integer, got {value!r}")
    return np.array(values, dtype=np.int64)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _label_kind(label) -> type:
    """The kind a vertex label must share with the vertex it names:
    integers of any width match each other, as do reals."""
    if isinstance(label, (bool, np.bool_)):
        return bool
    if isinstance(label, numbers.Integral):
        return numbers.Integral
    if isinstance(label, numbers.Real):
        return numbers.Real
    return type(label)


def _as_probs(ps, what: str) -> np.ndarray:
    if ps.dtype.kind == "f":
        arr = ps.astype(np.float64)
    else:
        values = np.asarray(ps, dtype=object).reshape(-1).tolist()
        for value in values:
            if not _is_real(value):
                raise ProbabilityError(
                    f"{what} probability must be a real number, got {value!r}"
                )
        arr = np.array(values, dtype=np.float64)
    if len(arr):
        bad = np.flatnonzero(~((arr > 0.0) & (arr <= 1.0)))
        if len(bad):
            raise ProbabilityError(
                f"{what} probability must be in (0, 1], got {arr[bad[0]]!r}"
            )
    return arr


@dataclass(frozen=True)
class EdgeDeltaBatch:
    """One canonicalised batch of edge changes.

    Parameters name updates and deletes by edge id (positions in the
    target graph's current edge enumeration) and insertions by dense
    endpoint pairs.  The constructor canonicalises everything into
    ascending edge-id / lexicographic pair order so two batches with the
    same content compare (and replay) identically regardless of how they
    were assembled.
    """

    update_eids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    update_ps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))
    delete_eids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    insert_endpoints: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )
    insert_ps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))

    def __post_init__(self) -> None:
        update_eids = _as_int_ids(
            _checked_shape(self.update_eids, "update_eids"), "update edge id"
        )
        update_ps = _as_probs(_checked_shape(self.update_ps, "update_ps"), "update")
        if update_eids.shape != update_ps.shape:
            raise GraphError(
                f"update eids/probabilities length mismatch: "
                f"{len(update_eids)} vs {len(update_ps)}"
            )
        order = np.argsort(update_eids, kind="stable")
        update_eids = update_eids[order]
        update_ps = update_ps[order]
        if len(update_eids) and np.any(np.diff(update_eids) == 0):
            raise GraphError("duplicate edge ids in delta updates")

        raw_deletes = _as_int_ids(
            _checked_shape(self.delete_eids, "delete_eids"), "delete edge id"
        )
        delete_eids = np.unique(raw_deletes)
        if len(delete_eids) != len(raw_deletes):
            raise GraphError("duplicate edge ids in delta deletes")
        if len(update_eids) and len(delete_eids) and len(
            np.intersect1d(update_eids, delete_eids)
        ):
            raise GraphError("an edge cannot be both updated and deleted")
        if (len(update_eids) and update_eids[0] < 0) or (
            len(delete_eids) and delete_eids[0] < 0
        ):
            raise GraphError("negative edge id in delta batch")

        pairs = _as_int_ids(
            _checked_shape(self.insert_endpoints, "insert_endpoints", pairs=True),
            "insert vertex id",
        ).reshape(-1, 2)
        insert_ps = _as_probs(_checked_shape(self.insert_ps, "insert_ps"), "insert")
        if len(pairs) != len(insert_ps):
            raise GraphError(
                f"insert endpoints/probabilities length mismatch: "
                f"{len(pairs)} vs {len(insert_ps)}"
            )
        if len(pairs):
            if pairs.min() < 0:
                raise GraphError("negative vertex id in delta inserts")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise GraphError("self-loops are not allowed")
            pairs = np.sort(pairs, axis=1)  # canonical (min, max) per row
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))
            pairs = pairs[order]
            insert_ps = insert_ps[order]
            if len(np.unique(pairs, axis=0)) != len(pairs):
                raise GraphError("duplicate endpoint pairs in delta inserts")

        object.__setattr__(self, "update_eids", update_eids)
        object.__setattr__(self, "update_ps", update_ps)
        object.__setattr__(self, "delete_eids", delete_eids)
        object.__setattr__(self, "insert_endpoints", pairs)
        object.__setattr__(self, "insert_ps", insert_ps)
        for arr in (update_eids, update_ps, delete_eids, pairs, insert_ps):
            arr.setflags(write=False)

    # -- views -----------------------------------------------------------
    @property
    def is_structural(self) -> bool:
        """Whether the batch changes the edge *set* (ids renumber)."""
        return bool(len(self.delete_eids) or len(self.insert_ps))

    @property
    def size(self) -> int:
        """Total number of touched edges."""
        return len(self.update_eids) + len(self.delete_eids) + len(self.insert_ps)

    # -- construction from label pairs -----------------------------------
    @classmethod
    def from_pairs(cls, graph, updates=(), inserts=(), deletes=()) -> "EdgeDeltaBatch":
        """Build a batch from ``(u, v, p)`` / ``(u, v)`` vertex-label tuples.

        Labels are resolved through ``graph.vertex_indexer()`` and pairs
        through the current edge enumeration, so this is the natural
        constructor for external callers (the server's ``/update``
        endpoint, replay scripts) that speak vertex labels rather than
        edge ids.  Updated/deleted pairs must exist; inserted pairs must
        not.  Every row must be a list or tuple of exactly that shape,
        with ``p`` a real number (not a boolean or a string); a
        malformed row is an error that names it.
        """
        indexer = graph.vertex_indexer()
        vertex_of = graph.vertices()
        n = graph.number_of_vertices()
        keys = _pair_keys(graph.edge_index_array(), n)
        order = np.argsort(keys)
        sorted_keys = keys[order]

        def dense(label):
            # A label names only a vertex of its own kind: dict equality
            # alone would let True and 1.0 name vertex 1.
            if isinstance(label, (bool, np.bool_)):
                raise GraphError(f"vertex label must not be a boolean: {label!r}")
            try:
                index = indexer[label]
            except (KeyError, TypeError):
                pass
            else:
                vertex = vertex_of[index]
                if type(vertex) is not type(label) and (
                    _label_kind(vertex) != _label_kind(label)
                ):
                    raise GraphError(
                        f"vertex label {label!r} is a {type(label).__name__}, "
                        f"but the graph's vertex {vertex!r} is a "
                        f"{type(vertex).__name__}"
                    )
                return index
            # Fall back to the string form, so JSON clients can address
            # parsed edge lists (whose labels are strings) with bare
            # integers.
            try:
                return indexer[str(label)]
            except KeyError:
                raise GraphError(f"vertex not in graph: {label!r}") from None

        def resolve(row, what: str, width: int):
            """``(dense pair, edge id or -1)`` of a checked row."""
            if not isinstance(row, (list, tuple)) or len(row) != width:
                shape = "[u, v, p]" if width == 3 else "[u, v]"
                raise GraphError(
                    f"{what} row must be a list {shape}, got {row!r}"
                )
            if width == 3 and not _is_real(row[2]):
                raise GraphError(
                    f"{what} row {row!r}: probability must be a real number"
                )
            u, v = row[0], row[1]
            a, b = dense(u), dense(v)
            if a == b:
                raise GraphError(f"self-loops are not allowed: {u!r}")
            pair = (a, b) if a < b else (b, a)
            key = pair[0] * n + pair[1]
            i = int(np.searchsorted(sorted_keys, key))
            found = i < len(sorted_keys) and sorted_keys[i] == key
            return pair, int(order[i]) if found else -1

        update_eids, update_ps = [], []
        for row in updates:
            _, eid = resolve(row, "update", 3)
            if eid < 0:
                raise GraphError(f"edge not in graph: ({row[0]!r}, {row[1]!r})")
            update_eids.append(eid)
            update_ps.append(float(row[2]))
        delete_eids = []
        for row in deletes:
            _, eid = resolve(row, "delete", 2)
            if eid < 0:
                raise GraphError(f"edge not in graph: ({row[0]!r}, {row[1]!r})")
            delete_eids.append(eid)
        insert_pairs, insert_ps = [], []
        for row in inserts:
            pair, eid = resolve(row, "insert", 3)
            if eid >= 0:
                raise GraphError(
                    f"insert of an existing edge: ({row[0]!r}, {row[1]!r})"
                )
            insert_pairs.append(pair)
            insert_ps.append(float(row[2]))
        return cls(
            update_eids=np.array(update_eids, dtype=np.int64),
            update_ps=np.array(update_ps, dtype=np.float64),
            delete_eids=np.array(delete_eids, dtype=np.int64),
            insert_endpoints=np.array(insert_pairs, dtype=np.int64).reshape(-1, 2),
            insert_ps=np.array(insert_ps, dtype=np.float64),
        )


@dataclass
class AppliedDelta:
    """Result of applying an :class:`EdgeDeltaBatch` to a graph.

    Bundles everything the incremental consumers need: the post-delta
    graph, the old-id → new-id map (``-1`` for deleted edges; strictly
    increasing on survivors), the new ids of inserted edges, and the
    pre-delta probabilities of updated edges (repair distinguishes
    increases from decreases).
    """

    batch: EdgeDeltaBatch
    graph: UncertainGraph
    id_map: np.ndarray          # (old_m,) int64, -1 for deleted edges
    old_m: int
    new_m: int
    structural: bool
    old_update_ps: np.ndarray   # aligned with batch.update_eids
    insert_eids: np.ndarray     # new ids aligned with batch.insert_endpoints


def _check_eid_range(batch: EdgeDeltaBatch, m: int) -> None:
    for eids, what in ((batch.update_eids, "update"), (batch.delete_eids, "delete")):
        if len(eids) and eids[-1] >= m:
            raise GraphError(
                f"{what} edge id {int(eids[-1])} out of range for {m} edges"
            )


def _check_insert_range(batch: EdgeDeltaBatch, n: int) -> None:
    pairs = batch.insert_endpoints
    if len(pairs) and pairs.max() >= n:
        raise GraphError(
            "insert endpoint outside the vertex range: probability drift "
            "rewires existing vertices only (growing |V| is a rebuild)"
        )


def _pair_keys(endpoints: np.ndarray, n: int) -> np.ndarray:
    """Canonical ``min * n + max`` key per endpoint row."""
    lo = np.minimum(endpoints[:, 0], endpoints[:, 1])
    hi = np.maximum(endpoints[:, 0], endpoints[:, 1])
    return lo * np.int64(n) + hi


def _existing_insert(batch: EdgeDeltaBatch, edge_keys: np.ndarray, n: int) -> int:
    """Position of the first insert whose pair key is in ``edge_keys``
    (the keys of the edges that survive the batch), or ``-1``."""
    if not len(edge_keys):
        return -1
    edge_keys = np.sort(edge_keys)
    inserts = _pair_keys(batch.insert_endpoints, n)
    at = np.minimum(np.searchsorted(edge_keys, inserts), len(edge_keys) - 1)
    clash = np.flatnonzero(edge_keys[at] == inserts)
    return int(clash[0]) if len(clash) else -1


def apply_delta(
    graph: UncertainGraph, batch: EdgeDeltaBatch, in_place: bool = True
) -> AppliedDelta:
    """Apply ``batch`` to ``graph`` and return the :class:`AppliedDelta`.

    This is the one way to change a graph.  It replaces ``graph``'s
    arrays by default; ``in_place=False`` works on a copy (what the
    server uses so registered graphs shared with running jobs stay
    frozen).  A probability-only batch patches a copy of the probability
    array and keeps every structural view.  Otherwise deleted rows drop
    out, survivors keep their relative order, and each inserted edge
    goes right after the surviving edges of its lower endpoint, ranked
    after every existing edge.  A batch that fails a check leaves
    ``graph`` untouched.
    """
    m = graph.number_of_edges()
    n = graph.number_of_vertices()
    _check_eid_range(batch, m)
    _check_insert_range(batch, n)
    if len(batch.insert_endpoints):
        # Refuse an insert of a surviving edge before anything mutates
        # (keys are >= 0, so -1 marks the deleted edges).
        keys = _pair_keys(graph.edge_index_array(), n)
        keys[batch.delete_eids] = -1
        clash = _existing_insert(batch, keys, n)
        if clash >= 0:
            vertex_of = graph.vertices()
            u, v = (vertex_of[i] for i in batch.insert_endpoints[clash].tolist())
            raise GraphError(f"insert of an existing edge: ({u!r}, {v!r})")
    old_update_ps = graph.probability_array()[batch.update_eids]
    if not in_place:
        graph = graph.copy()
    id_map, insert_eids = graph._apply_batch(batch)
    return AppliedDelta(
        batch=batch, graph=graph, id_map=id_map, old_m=m,
        new_m=graph.number_of_edges(), structural=batch.is_structural,
        old_update_ps=old_update_ps, insert_eids=insert_eids,
    )
