"""The uncertain (probabilistic) graph data structure.

An uncertain graph ``G = (V, E, p)`` is an undirected simple graph whose
edges carry an independent existence probability ``p(u, v) in (0, 1]``
(paper section 3).  Under possible-world semantics it denotes the
distribution over the ``2^|E|`` deterministic subgraphs obtained by
keeping each edge independently with its probability.

Design
------
One array-native class.  A graph stores its vertex labels (a list, or a
``range`` when the labels are the dense ids themselves) and three edge
arrays in edge-id order: the dense endpoint ids ``src``/``dst`` and the
probabilities, plus each edge's creation rank.  Everything else is
derived on first use and cached: the ``(m, 2)`` endpoint view, the
``(u, v)`` label tuples of :meth:`edge_list`, the label → id indexer, and
a CSR (compressed sparse row) adjacency behind :meth:`neighbors` and
:meth:`degree`.

Edge order
----------
Vertex ids are first-touch positions.  Each edge row is written
``(lower id, higher id)`` and rows are sorted by ``(lower id, creation
rank)``; a repeated pair keeps its first rank and its last probability.
:meth:`neighbors` lists a vertex's incident edges by rank.  A graph
opened from a binary dataset keeps its rows as stored (rank = row
position).

A graph is built once: by the constructor, :meth:`from_edge_arrays`,
the text parser or the binary loader.  After that only
:func:`repro.core.delta.apply_delta` changes it, and it never writes an
array in place: updates patch a copy of the probability array, and a
structural batch drops deleted rows and puts each inserted edge right
after the surviving edges of its lower endpoint (one row splice).  An
array a caller obtained earlier keeps its values, and the labels never
change, so copies share them.
"""

from __future__ import annotations

import types
from collections.abc import Hashable, Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import GraphError, ProbabilityError

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


def _validate_probability(p: float) -> float:
    p = float(p)
    if not (0.0 < p <= 1.0):
        raise ProbabilityError(f"edge probability must be in (0, 1], got {p}")
    return p


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def validate_edge_arrays(
    n: int, src: np.ndarray, dst: np.ndarray, probabilities: np.ndarray
) -> None:
    """Array-level well-formedness checks of dense-id edge rows.

    Ids in ``[0, n)``, no self-loops, probabilities in ``(0, 1]`` and no
    duplicate undirected edges; one O(m log m) pass.
    """
    if not len(probabilities):
        return
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    if int(lo.min()) < 0 or int(hi.max()) >= n:
        raise GraphError("endpoint id outside the vertex range")
    if bool(np.any(lo == hi)):
        raise GraphError("self-loops are not allowed")
    if not (float(probabilities.min()) > 0.0 and float(probabilities.max()) <= 1.0):
        raise ProbabilityError("edge probabilities must be in (0, 1]")
    if len(np.unique(lo * np.int64(n) + hi)) != len(probabilities):
        raise GraphError("duplicate undirected edges in edge arrays")


def _canonical_rows(
    a: np.ndarray, b: np.ndarray, probabilities: np.ndarray, n: int,
    dedupe: bool = False,
) -> tuple[np.ndarray, np.ndarray, "np.ndarray | None"]:
    """Rows given in creation order as ``(ends, prob, rank)`` in edge order.

    Each row is written ``(lower, higher)`` and rows are stably sorted by
    the lower id, so edges of one lower endpoint keep creation order.
    With ``dedupe``, a repeated pair keeps its first row's rank and its
    last row's probability (an overwrite).  ``rank`` is ``None`` when it
    equals the row position.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    if dedupe and len(lo) > 1:
        key = lo * np.int64(n) + hi
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
        if len(starts) < len(key):
            last = order[np.r_[starts[1:], len(key)] - 1]
            first = order[starts]
            by_rank = np.argsort(first)
            rows = first[by_rank]
            lo, hi = lo[rows], hi[rows]
            probabilities = probabilities[last[by_rank]]
    rank = None
    if len(lo) > 1 and not bool(np.all(lo[1:] >= lo[:-1])):
        rank = np.argsort(lo, kind="stable")
        lo, hi, probabilities = lo[rank], hi[rank], probabilities[rank]
    ends = np.empty((len(lo), 2), dtype=np.int64)
    ends[:, 0] = lo
    ends[:, 1] = hi
    return ends, np.array(probabilities, dtype=np.float64), rank


class UncertainGraph:
    """Undirected uncertain graph with independent edge probabilities.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v, p)`` triples.  A repeated pair
        keeps its first position and its last probability; the first
        self-loop or probability outside ``(0, 1]`` raises.
    vertices:
        Optional iterable of vertices to register before the edges'
        endpoints (isolated vertices must be listed here).
    name:
        Optional label used in ``repr`` and experiment tables.

    Examples
    --------
    >>> g = UncertainGraph([("a", "b", 0.5), ("b", "c", 0.25)])
    >>> g.number_of_edges()
    2
    >>> round(g.expected_degree("b"), 2)
    0.75
    """

    def __init__(
        self,
        edges: Iterable[tuple[Vertex, Vertex, float]] | None = None,
        vertices: Iterable[Vertex] | None = None,
        name: str = "",
    ) -> None:
        ids: dict = {}
        if vertices is not None:
            for v in vertices:
                ids.setdefault(v, len(ids))
        a: list = []
        b: list = []
        probs: list = []
        if edges is not None:
            for u, v, p in edges:
                a.append(ids.setdefault(u, len(ids)))
                b.append(ids.setdefault(v, len(ids)))
                if a[-1] == b[-1]:
                    raise GraphError(f"self-loops are not allowed: {u!r}")
                probs.append(_validate_probability(p))
        ends, prob, rank = _canonical_rows(
            np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
            np.array(probs, dtype=np.float64), len(ids), dedupe=True,
        )
        self._init(list(ids), ids, ends, prob, rank, name)

    # ------------------------------------------------------------------
    # Internal state
    # ------------------------------------------------------------------
    def _init(
        self, labels: "list | range", ids: "dict | None",
        ends: np.ndarray, prob: np.ndarray, rank: "np.ndarray | None",
        name: str,
    ) -> None:
        self.name = name
        self._labels = labels
        self._ids = ids
        rank = None if rank is None else _read_only(rank)
        self._set_rows(_read_only(ends), _read_only(prob), rank)

    def _set_rows(
        self, ends: "np.ndarray | None", prob: np.ndarray,
        rank: "np.ndarray | None", src: "np.ndarray | None" = None,
        dst: "np.ndarray | None" = None,
    ) -> None:
        """Install read-only edge arrays in edge-id order and drop every
        view derived from the old ones.  ``ends`` may be ``None`` when
        ``src``/``dst`` are given (stacked on first use)."""
        if ends is not None:
            src, dst = ends[:, 0], ends[:, 1]
        self._ends = ends
        self._src = src
        self._dst = dst
        self._prob = prob
        self._rank = rank
        self._edge_list = None
        self._pairs = None
        self._csr = None

    @classmethod
    def _from_parts(
        cls, labels: "list | range", ids: "dict | None", ends: np.ndarray,
        prob: np.ndarray, rank: "np.ndarray | None", name: str = "",
    ) -> "UncertainGraph":
        out = cls.__new__(cls)
        out._init(labels, ids, ends, prob, rank, name)
        return out

    @classmethod
    def _from_creation_rows(
        cls, labels: "list | range", ids: "dict | None", a: np.ndarray,
        b: np.ndarray, probabilities: np.ndarray, name: str = "",
    ) -> "UncertainGraph":
        """Graph from dense-id rows given in creation order, where a
        repeated pair is an overwrite (see :func:`_canonical_rows`)."""
        ends, prob, rank = _canonical_rows(
            a, b, probabilities, len(labels), dedupe=True
        )
        return cls._from_parts(labels, ids, ends, prob, rank, name=name)

    @classmethod
    def _from_stored_rows(
        cls, n: int, src: np.ndarray, dst: np.ndarray, prob: np.ndarray,
        name: str = "",
    ) -> "UncertainGraph":
        """Wrap stored edge arrays as they are: labels ``range(n)``, rows
        in stored order and orientation, rank = row position.  No copy
        and no check (the binary writer validated, the digest pins the
        bytes), so wrapping memory-mapped arrays stays O(1)."""
        for array in (src, dst, prob):
            if array.flags.writeable and array.flags.owndata:
                array.setflags(write=False)
        out = cls.__new__(cls)
        out.name = name
        out._labels = range(int(n))
        out._ids = None
        out._set_rows(None, prob, None, src=src, dst=dst)
        return out

    def _index(self) -> dict:
        if self._ids is None:
            self._ids = {v: i for i, v in enumerate(self._labels)}
        return self._ids

    def _splice(
        self, prob: np.ndarray, keep: np.ndarray, inserts: np.ndarray,
        insert_ps: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop the rows where ``keep`` is False and insert new edges.

        ``inserts`` holds ``(lower, higher)`` dense pairs in creation
        order; they are ranked after every existing edge.  Each goes
        right after the last surviving row whose lower endpoint is at
        most its own (on rows in edge order: after the surviving edges
        of its lower endpoint), inserts sharing a lower endpoint in
        creation order.  Returns the old → new id map (``-1`` for
        dropped rows) and the new ids of the inserts.
        """
        rank = self._rank if self._rank is not None else np.arange(
            len(prob), dtype=np.int64
        )
        next_rank = int(rank.max()) + 1 if len(rank) else 0
        src, dst = np.asarray(self._src), np.asarray(self._dst)
        kept_src, kept_dst = src[keep], dst[keep]
        order = np.argsort(inserts[:, 0], kind="stable")
        low = np.minimum(kept_src, kept_dst)
        floor = np.minimum.accumulate(low[::-1])[::-1]
        slots = np.searchsorted(floor, inserts[order, 0], side="right")
        slots += np.arange(len(order), dtype=np.int64)
        total = len(kept_src) + len(order)
        placed = np.zeros(total, dtype=bool)
        placed[slots] = True
        kept_slots = np.flatnonzero(~placed)

        ends = np.empty((total, 2), dtype=np.int64)
        ends[kept_slots, 0] = kept_src
        ends[kept_slots, 1] = kept_dst
        ends[slots] = inserts[order]
        new_prob = np.empty(total, dtype=np.float64)
        new_prob[kept_slots] = prob[keep]
        new_prob[slots] = insert_ps[order]
        new_rank = np.empty(total, dtype=np.int64)
        new_rank[kept_slots] = rank[keep]
        new_rank[slots] = next_rank + order
        if total < 2 or bool(np.all(new_rank[1:] > new_rank[:-1])):
            new_rank = None  # ranks follow the rows
        else:
            new_rank.setflags(write=False)

        id_map = np.full(len(prob), -1, dtype=np.int64)
        id_map[keep] = kept_slots
        insert_eids = np.empty(len(order), dtype=np.int64)
        insert_eids[order] = slots
        self._set_rows(_read_only(ends), _read_only(new_prob), new_rank)
        return id_map, insert_eids

    def _apply_batch(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """Apply a checked :class:`EdgeDeltaBatch` in place; returns
        ``(id_map, insert_eids)`` (see :meth:`_splice`).

        A probability-only batch patches a copy of the probability array
        and keeps every structural view: the endpoint arrays, the edge
        list, the indexer and the CSR.
        """
        prob = self._prob
        if len(batch.update_eids):
            prob = prob.copy()
            prob[batch.update_eids] = batch.update_ps
            prob.setflags(write=False)
        if not batch.is_structural:
            self._prob = prob
            return (np.arange(len(prob), dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        keep = np.ones(len(prob), dtype=bool)
        keep[batch.delete_eids] = False
        return self._splice(prob, keep, batch.insert_endpoints, batch.insert_ps)

    def _pair_map(self) -> dict:
        """``(lower id, higher id) -> edge id`` of the arrays' rows."""
        if self._pairs is None:
            lo = np.minimum(self._src, self._dst).tolist()
            hi = np.maximum(self._src, self._dst).tolist()
            self._pairs = dict(zip(zip(lo, hi), range(len(lo))))
        return self._pairs

    def _key(self, u: Vertex, v: Vertex) -> "tuple[int, int] | None":
        ids = self._index()
        a = ids.get(u)
        b = ids.get(v)
        if a is None or b is None:
            return None
        return (a, b) if a < b else (b, a)

    def _slot(self, key: "tuple[int, int] | None") -> "int | None":
        """The edge id of a dense pair; ``None`` when the graph has no
        such edge."""
        return None if key is None else self._pair_map().get(key)

    def _adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(indptr, neighbour ids, edge ids)``, each vertex's
        incident edges in creation-rank order."""
        if self._csr is None:
            ends = self.edge_index_array()
            flat = ends.reshape(-1)
            if self._rank is None:
                order = np.argsort(flat, kind="stable")
            else:
                order = np.lexsort((np.repeat(self._rank, 2), flat))
            indptr = np.zeros(self.number_of_vertices() + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(flat, minlength=self.number_of_vertices()),
                out=indptr[1:],
            )
            self._csr = (
                _read_only(indptr),
                _read_only(ends[:, ::-1].reshape(-1)[order]),
                _read_only(order // 2),
            )
        return self._csr

    def _incident(self, vertex: Vertex) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour ids and edge ids of ``vertex`` in rank order."""
        i = self.vertex_id(vertex)
        indptr, neighbours, eids = self._adjacency()
        start, stop = indptr[i], indptr[i + 1]
        return neighbours[start:stop], eids[start:stop]

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<UncertainGraph{label} |V|={self.number_of_vertices()} "
            f"|E|={self.number_of_edges()}>"
        )

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._index()

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._labels)

    def number_of_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._labels)

    def number_of_edges(self) -> int:
        """Number of edges ``|E|``."""
        return len(self._prob)

    def vertices(self) -> "list[Vertex] | range":
        """Vertices in id (first-touch) order: a new list, or the ``range``
        of a graph whose labels are its dense ids."""
        labels = self._labels
        return labels if isinstance(labels, range) else list(labels)

    def vertex_id(self, vertex: Vertex) -> int:
        """Dense id of ``vertex``; :class:`GraphError` names a vertex
        that is not in the graph."""
        try:
            return self._index()[vertex]
        except KeyError:
            raise GraphError(f"vertex not in graph: {vertex!r}") from None

    def edges(self) -> Iterator[tuple[Vertex, Vertex, float]]:
        """Iterate over ``(u, v, p)`` triples in edge-id order."""
        return (
            (u, v, p) for (u, v), p in
            zip(self.edge_list(), self.probability_array().tolist())
        )

    def neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]:
        """Read-only mapping ``neighbor -> probability`` for ``vertex``.

        Incident edges are listed by creation rank.  The mapping is a
        snapshot: a later in-place delta does not show through it.
        """
        neighbours, eids = self._incident(vertex)
        labels = self._labels
        return types.MappingProxyType(dict(zip(
            map(labels.__getitem__, neighbours.tolist()),
            self._prob[eids].tolist(),
        )))

    def degree(self, vertex: Vertex) -> int:
        """Number of incident edges (topological degree)."""
        return len(self._incident(vertex)[0])

    def expected_degree(self, vertex: Vertex) -> float:
        """Expected degree: sum of incident edge probabilities."""
        eids = self._incident(vertex)[1]
        return sum(self._prob[eids].tolist())

    def expected_degrees(self) -> dict[Vertex, float]:
        """Expected degree of every vertex."""
        indptr, _, eids = self._adjacency()
        probs = self._prob[eids].tolist()
        bounds = indptr.tolist()
        return {
            v: sum(probs[bounds[i]:bounds[i + 1]])
            for i, v in enumerate(self._labels)
        }

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        return self._slot(self._key(u, v)) is not None

    def probability(self, u: Vertex, v: Vertex) -> float:
        """Existence probability of edge ``(u, v)``."""
        eid = self._slot(self._key(u, v))
        if eid is None:
            raise GraphError(f"edge not in graph: ({u!r}, {v!r})")
        return float(self._prob[eid])

    def expected_number_of_edges(self) -> float:
        """Expected edge count ``sum_e p_e`` of the possible worlds."""
        return float(sum(self.probability_array().tolist()))

    # ------------------------------------------------------------------
    # Vectorised views
    # ------------------------------------------------------------------
    def vertex_indexer(self) -> dict[Vertex, int]:
        """Map each vertex to its dense integer id (first-touch order).

        Cached; treat the returned dict as read-only (it is shared
        between callers and with the graph's copies).
        """
        return self._index()

    def edge_list(self) -> list[Edge]:
        """Stable list of undirected edges ``(u, v)`` in edge-id order."""
        if self._edge_list is None:
            label = self._labels.__getitem__
            self._edge_list = list(zip(
                map(label, np.asarray(self._src).tolist()),
                map(label, np.asarray(self._dst).tolist()),
            ))
        return self._edge_list

    def probability_array(self) -> np.ndarray:
        """Probabilities aligned with :meth:`edge_list` (read-only)."""
        return self._prob

    def edge_index_array(self) -> np.ndarray:
        """``(m, 2)`` int array of dense vertex ids aligned with :meth:`edge_list`.

        Read-only; stacked once from the stored columns of a graph
        opened from a binary dataset.
        """
        if self._ends is None:
            ends = np.empty((len(self._prob), 2), dtype=np.int64)
            ends[:, 0] = self._src
            ends[:, 1] = self._dst
            self._ends = _read_only(ends)
        return self._ends

    def expected_degree_array(self) -> np.ndarray:
        """Expected degrees as a vector aligned with :meth:`vertex_indexer`.

        Accumulated in edge-id order (one ``bincount`` over the
        interleaved endpoint ids): float summation order is part of the
        bit-identity contract, and every consumer of the edge arrays —
        ``D_1``, GDB objectives, the samplers — sums in this order.
        """
        ends = self.edge_index_array()
        return np.bincount(
            ends.reshape(-1),
            weights=np.repeat(self._prob, 2),
            minlength=self.number_of_vertices(),
        )

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def _component_labels(self) -> np.ndarray:
        """Connected-component label of every vertex id."""
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        n = self.number_of_vertices()
        ends = self.edge_index_array()
        adjacency = coo_matrix(
            (np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n)
        )
        return connected_components(adjacency, directed=False)[1]

    def is_connected(self) -> bool:
        """Topological connectivity of the support graph (ignoring probabilities)."""
        if self.number_of_vertices() <= 1:
            return True
        return bool(np.all(self._component_labels() == 0))

    def connected_components(self) -> list[set[Vertex]]:
        """Connected components of the support graph, ordered by their
        first vertex."""
        groups: dict[int, set[Vertex]] = {}
        if not self.number_of_vertices():
            return []
        for vertex, label in zip(self._labels, self._component_labels().tolist()):
            groups.setdefault(label, set()).add(vertex)
        return list(groups.values())

    def density(self) -> float:
        """``|E|`` divided by the complete-graph edge count."""
        n = self.number_of_vertices()
        if n < 2:
            return 0.0
        return self.number_of_edges() / (n * (n - 1) / 2)

    def expected_cut_size(self, subset: Iterable[Vertex]) -> float:
        """Expected cut size ``C_G(S)`` of a vertex set (Definition 1).

        Sum of probabilities of edges with exactly one endpoint in
        ``subset``, added up in vertex-id order and each vertex's
        neighbour order, so the float result does not depend on how
        ``subset`` is ordered or on string hashing.
        """
        inside = {self.vertex_id(v) for v in subset}
        indptr, neighbours, eids = self._adjacency()
        total = 0.0
        for i in sorted(inside):
            start, stop = indptr[i], indptr[i + 1]
            for j, p in zip(neighbours[start:stop].tolist(),
                            self._prob[eids[start:stop]].tolist()):
                if j not in inside:
                    total += p
        return total

    # ------------------------------------------------------------------
    # Copies / conversions
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "UncertainGraph":
        """A second graph object with this graph's content.

        It shares the labels, the indexer, the edge arrays and every
        cached view: none of them is ever written in place, so the
        copy's first consumer pays no O(m) rebuild, and an in-place
        :func:`~repro.core.delta.apply_delta` on either graph leaves the
        other as it was.  The copy starts without a
        :class:`~repro.core.backbone.BackbonePlan` of its own.
        """
        clone = UncertainGraph.__new__(UncertainGraph)
        clone.__dict__.update(self.__dict__)
        clone.name = self.name if name is None else name
        return clone

    def subgraph_with_edges(
        self, edges: Iterable[tuple[Vertex, Vertex, float]], name: str = ""
    ) -> "UncertainGraph":
        """New graph on the *same vertex set* with the given edges.

        This is the shape every sparsifier produces: ``V`` is kept in
        full (paper section 3: sparsified graphs keep all vertices) and
        only the edge set shrinks.  Edges keep the order given (a
        repeated edge keeps its first position and its last
        probability).
        """
        rows: list[tuple[int, int]] = []
        probs: list[float] = []
        for u, v, p in edges:
            key = self._key(u, v)
            if self._slot(key) is None:
                raise GraphError(f"edge not in parent graph: ({u!r}, {v!r})")
            rows.append(key)
            probs.append(_validate_probability(p))
        rows_array = np.array(rows, dtype=np.int64).reshape(-1, 2)
        return UncertainGraph._from_creation_rows(
            self._labels, self._ids, rows_array[:, 0], rows_array[:, 1],
            np.array(probs, dtype=np.float64), name=name,
        )

    def induced_subgraph(self, vertices: Iterable[Vertex], name: str = "") -> "UncertainGraph":
        """Induced subgraph on ``vertices`` (edges with both endpoints kept).

        Vertices keep this graph's id order and edges its edge order, so
        the result does not depend on how ``vertices`` is ordered or on
        string hashing.  :class:`GraphError` names a vertex that is not
        in the graph.
        """
        new_id = np.full(self.number_of_vertices(), -1, dtype=np.int64)
        new_id[np.fromiter(map(self.vertex_id, vertices), np.int64)] = 0
        kept = np.flatnonzero(new_id == 0)
        new_id[kept] = np.arange(len(kept))
        labels = list(map(self._labels.__getitem__, kept.tolist()))
        ids = dict(zip(labels, range(len(labels))))
        ends = self.edge_index_array()
        a, b = new_id[ends[:, 0]], new_id[ends[:, 1]]
        inside = (a >= 0) & (b >= 0)
        rows, prob, rank = _canonical_rows(
            a[inside], b[inside], self._prob[inside], len(labels)
        )
        return UncertainGraph._from_parts(labels, ids, rows, prob, rank, name=name)

    def relabel_to_integers(self) -> tuple["UncertainGraph", dict[Vertex, int]]:
        """Return an isomorphic copy on vertices ``0..n-1`` plus the mapping."""
        # Copy: the caller owns the returned mapping, not the cache.
        mapping = dict(self._index())
        out = UncertainGraph._from_parts(
            list(range(len(mapping))), None, self.edge_index_array(),
            self._prob, None, name=self.name,
        )
        return out, mapping

    @classmethod
    def from_edge_arrays(
        cls,
        vertices: Iterable[Vertex],
        endpoints: np.ndarray,
        probabilities: np.ndarray,
        name: str = "",
    ) -> "UncertainGraph":
        """Bulk constructor from dense-id edge arrays.

        Builds the graph with array ops from the layout the vectorised
        algorithms already hold (``SparsificationState.build_graph``, the
        samplers' edge views), validating everything at once.  Rows are
        taken in creation order: each is written ``(lower, higher)`` and
        rows are sorted by lower id, so rows already in that order are
        kept as given and any other order is re-sorted (edge ids then
        follow the canonical order, not the input's).  A ``range`` of
        vertices is kept as is, without a label list.

        Parameters
        ----------
        vertices:
            Full vertex set in the order that defines the dense ids
            (duplicates are rejected).
        endpoints:
            ``(m, 2)`` integer array of dense vertex ids; no self-loops,
            no duplicate undirected edges.
        probabilities:
            ``(m,)`` array of edge probabilities in ``(0, 1]``.
        name:
            Optional label for the new graph.
        """
        labels = vertices if isinstance(vertices, range) else list(vertices)
        n = len(labels)
        endpoints = np.asarray(endpoints, dtype=np.int64).reshape(-1, 2)
        probabilities = np.asarray(probabilities, dtype=np.float64).reshape(-1)
        m = len(probabilities)
        if len(endpoints) != m:
            raise GraphError(
                f"endpoints/probabilities length mismatch: {len(endpoints)} vs {m}"
            )
        validate_edge_arrays(n, endpoints[:, 0], endpoints[:, 1], probabilities)
        ids = None
        if not isinstance(labels, range):
            ids = {v: i for i, v in enumerate(labels)}
            if len(ids) != n:
                raise GraphError("duplicate vertices in vertex list")
        ends, prob, rank = _canonical_rows(
            endpoints[:, 0], endpoints[:, 1], probabilities, n
        )
        return cls._from_parts(labels, ids, ends, prob, rank, name=name)

    # ------------------------------------------------------------------
    # Equality (structural, probability-tolerant)
    # ------------------------------------------------------------------
    def isomorphic_probabilities(self, other: "UncertainGraph", tol: float = 1e-9) -> bool:
        """Same vertex set, same edges, probabilities equal within ``tol``."""
        if set(self._labels) != set(other._labels):
            return False
        if self.number_of_edges() != other.number_of_edges():
            return False
        for u, v, p in self.edges():
            if not other.has_edge(u, v):
                return False
            if abs(other.probability(u, v) - p) > tol:
                return False
        return True
