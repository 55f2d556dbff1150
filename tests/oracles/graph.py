"""The dict-of-dicts uncertain graph and its delta application.

This is the graph class the library used before the array-native
:class:`repro.core.uncertain_graph.UncertainGraph`, kept verbatim as the
reference for edge order: vertex ids are first-touch positions, each
edge enumerates as ``(lower id, higher id)`` in its lower endpoint's
adjacency row, and rows hold their entries in creation order
(overwriting keeps the position, removing and re-adding moves the entry
to the end).  :func:`_apply_to_uncertain` is the matching
``apply_delta`` body: updates, then deletes and inserts one edge at a
time, with the id map read back from the mutated enumeration.

``tests/test_uncertain_graph.py`` builds both classes from the same
triples, drives random ``apply_delta`` sequences through both and
compares every view (:func:`views`) after every step.
"""

from __future__ import annotations

import types
from collections.abc import Hashable, Iterable, Iterator, Mapping
import numpy as np

from oracles.unionfind import UnionFind
from repro.core.delta import (
    AppliedDelta,
    EdgeDeltaBatch,
    _check_eid_range,
    _check_insert_range,
    _existing_insert,
    _pair_keys,
)
from repro.datasets.io import format_edge_list
from repro.exceptions import GraphError, ProbabilityError

Vertex = Hashable
Edge = tuple[Vertex, Vertex]

_PROB_EPS = 1e-12


def _validate_probability(p: float) -> float:
    p = float(p)
    if not (0.0 < p <= 1.0):
        raise ProbabilityError(f"edge probability must be in (0, 1], got {p}")
    return p


class UncertainGraph:
    """Undirected uncertain graph with independent edge probabilities.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v, p)`` triples.
    vertices:
        Optional iterable of isolated vertices to pre-register (vertices
        that appear in ``edges`` need not be listed).
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
        self._adj: dict[Vertex, dict[Vertex, float]] = {}
        self.name = name
        self._edge_cache: tuple[list[Edge], np.ndarray] | None = None
        self._indexer_cache: dict[Vertex, int] | None = None
        self._edge_index_cache: np.ndarray | None = None
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v, p in edges:
                self.add_edge(u, v, p)

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
        return vertex in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def number_of_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._adj)

    def number_of_edges(self) -> int:
        """Number of edges ``|E|``."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def vertices(self) -> list[Vertex]:
        """List of vertices in insertion order."""
        return list(self._adj)

    def edges(self) -> Iterator[tuple[Vertex, Vertex, float]]:
        """Iterate over ``(u, v, p)`` triples, each undirected edge once."""
        seen: set[Vertex] = set()
        for u, nbrs in self._adj.items():
            seen.add(u)
            for v, p in nbrs.items():
                if v not in seen:
                    yield u, v, p

    def neighbors(self, vertex: Vertex) -> Mapping[Vertex, float]:
        """Read-only mapping ``neighbor -> probability`` for ``vertex``.

        The returned proxy is a live *view* of the adjacency — it
        reflects later mutations but cannot be written through, so
        callers can't corrupt the graph's internal state.
        """
        try:
            return types.MappingProxyType(self._adj[vertex])
        except KeyError:
            raise GraphError(f"vertex not in graph: {vertex!r}") from None

    def degree(self, vertex: Vertex) -> int:
        """Number of incident edges (topological degree)."""
        return len(self.neighbors(vertex))

    def expected_degree(self, vertex: Vertex) -> float:
        """Expected degree: sum of incident edge probabilities."""
        return sum(self.neighbors(vertex).values())

    def expected_degrees(self) -> dict[Vertex, float]:
        """Expected degree of every vertex."""
        return {v: sum(nbrs.values()) for v, nbrs in self._adj.items()}

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        return u in self._adj and v in self._adj[u]

    def probability(self, u: Vertex, v: Vertex) -> float:
        """Existence probability of edge ``(u, v)``."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"edge not in graph: ({u!r}, {v!r})") from None

    def expected_number_of_edges(self) -> float:
        """Expected edge count ``sum_e p_e`` of the possible worlds."""
        return float(sum(p for _, _, p in self.edges()))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _invalidate_caches(self) -> None:
        self._edge_cache = None
        self._indexer_cache = None
        self._edge_index_cache = None

    def add_vertex(self, vertex: Vertex) -> None:
        """Register a vertex (no-op if already present)."""
        if vertex not in self._adj:
            self._adj[vertex] = {}
            self._invalidate_caches()

    def add_edge(self, u: Vertex, v: Vertex, p: float) -> None:
        """Add (or overwrite) the undirected edge ``(u, v)`` with probability ``p``."""
        if u == v:
            raise GraphError(f"self-loops are not allowed: {u!r}")
        p = _validate_probability(p)
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u][v] = p
        self._adj[v][u] = p
        self._invalidate_caches()

    def set_probability(self, u: Vertex, v: Vertex, p: float) -> None:
        """Update the probability of an existing edge."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge not in graph: ({u!r}, {v!r})")
        p = _validate_probability(p)
        self._adj[u][v] = p
        self._adj[v][u] = p
        self._invalidate_caches()

    def set_probabilities(self, eids: np.ndarray, probabilities: np.ndarray) -> None:
        """Update the probabilities of existing edges named by edge id.

        Ids are positions in :meth:`edge_list`.  A probability change
        leaves the edge set and its order alone, so the edge list, the
        vertex indexer and :meth:`edge_index_array` stay cached.  The
        probability array is replaced by a patched copy: an array a
        caller obtained from :meth:`probability_array` earlier keeps its
        values.
        """
        eids = np.asarray(eids)
        probabilities = np.asarray(probabilities)
        if (eids.size and eids.dtype.kind not in "iu") or (
            probabilities.size and probabilities.dtype.kind not in "iuf"
        ):
            raise GraphError(
                f"edge ids must be integers and probabilities real numbers, "
                f"got {eids.dtype} and {probabilities.dtype}"
            )
        eids = eids.astype(np.int64).reshape(-1)
        probabilities = probabilities.astype(np.float64).reshape(-1)
        if len(eids) != len(probabilities):
            raise GraphError(
                f"eids/probabilities length mismatch: "
                f"{len(eids)} vs {len(probabilities)}"
            )
        edge_list, old = self._build_edge_cache()
        if not len(eids):
            return
        if eids.min() < 0 or eids.max() >= len(edge_list):
            raise GraphError(f"edge id outside [0, {len(edge_list)})")
        bad = np.flatnonzero(~((probabilities > 0.0) & (probabilities <= 1.0)))
        if len(bad):
            _validate_probability(probabilities[bad[0]])
        new = old.copy()
        new[eids] = probabilities
        new.setflags(write=False)
        adj = self._adj
        for eid, p in zip(eids.tolist(), new[eids].tolist()):
            u, v = edge_list[eid]
            adj[u][v] = p
            adj[v][u] = p
        self._edge_cache = (edge_list, new)

    def remove_edge(self, u: Vertex, v: Vertex) -> float:
        """Remove edge ``(u, v)``; returns its probability."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge not in graph: ({u!r}, {v!r})")
        p = self._adj[u].pop(v)
        self._adj[v].pop(u)
        self._invalidate_caches()
        return p

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove a vertex and all incident edges."""
        nbrs = self.neighbors(vertex)
        for other in list(nbrs):
            self._adj[other].pop(vertex)
        del self._adj[vertex]
        self._invalidate_caches()

    # ------------------------------------------------------------------
    # Vectorised views
    # ------------------------------------------------------------------
    def vertex_indexer(self) -> dict[Vertex, int]:
        """Map each vertex to a dense integer id (insertion order).

        Cached until the vertex set mutates; treat the returned dict as
        read-only (it is shared between callers).
        """
        if self._indexer_cache is None:
            self._indexer_cache = {v: i for i, v in enumerate(self._adj)}
        return self._indexer_cache

    def _build_edge_cache(self) -> tuple[list[Edge], np.ndarray]:
        if self._edge_cache is None:
            edge_list: list[Edge] = []
            probs: list[float] = []
            for u, v, p in self.edges():
                edge_list.append((u, v))
                probs.append(p)
            self._edge_cache = (edge_list, np.asarray(probs, dtype=np.float64))
        return self._edge_cache

    def edge_list(self) -> list[Edge]:
        """Stable list of undirected edges (cached until mutation)."""
        return self._build_edge_cache()[0]

    def probability_array(self) -> np.ndarray:
        """Probabilities aligned with :meth:`edge_list` (cached, read-only)."""
        arr = self._build_edge_cache()[1]
        arr.setflags(write=False)
        return arr

    def edge_index_array(self) -> np.ndarray:
        """``(m, 2)`` int array of dense vertex ids aligned with :meth:`edge_list`.

        Cached until mutation (the samplers and every sparsifier request
        it repeatedly) and returned read-only.
        """
        if self._edge_index_cache is None:
            indexer = self.vertex_indexer()
            edge_list = self.edge_list()
            out = np.empty((len(edge_list), 2), dtype=np.int64)
            for i, (u, v) in enumerate(edge_list):
                out[i, 0] = indexer[u]
                out[i, 1] = indexer[v]
            out.setflags(write=False)
            self._edge_index_cache = out
        return self._edge_index_cache

    def expected_degree_array(self) -> np.ndarray:
        """Expected degrees as a vector aligned with :meth:`vertex_indexer`.

        Accumulated in :meth:`edge_list` order (one ``bincount`` over the
        interleaved endpoint ids), *not* per-row insertion order: float
        summation order is part of the bit-identity contract, and this is
        the one order every graph representation shares —
        ``EdgeArrayGraph`` views, worker processes rebuilding the graph
        from shipped arrays or an mmap'd dataset, and this class — so
        expected degrees (and everything downstream: ``D_1``, GDB
        objectives) agree bit for bit across all of them.
        """
        return np.bincount(
            self.edge_index_array().reshape(-1),
            weights=np.repeat(self.probability_array(), 2),
            minlength=self.number_of_vertices(),
        )

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Topological connectivity of the support graph (ignoring probabilities)."""
        n = self.number_of_vertices()
        if n <= 1:
            return True
        indexer = self.vertex_indexer()
        uf = UnionFind(n)
        for u, v, _ in self.edges():
            uf.union(indexer[u], indexer[v])
        return uf.components == 1

    def connected_components(self) -> list[set[Vertex]]:
        """Connected components of the support graph."""
        indexer = self.vertex_indexer()
        vertices = list(self._adj)
        uf = UnionFind(len(vertices))
        for u, v, _ in self.edges():
            uf.union(indexer[u], indexer[v])
        groups: dict[int, set[Vertex]] = {}
        for vertex, idx in indexer.items():
            groups.setdefault(uf.find(idx), set()).add(vertex)
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
        ``subset``.
        """
        inside = set(subset)
        for v in inside:
            if v not in self._adj:
                raise GraphError(f"vertex not in graph: {v!r}")
        total = 0.0
        for u in inside:
            for v, p in self._adj[u].items():
                if v not in inside:
                    total += p
        return total

    # ------------------------------------------------------------------
    # Copies / conversions
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "UncertainGraph":
        """Independent copy: same vertices, edges, probabilities and orders.

        The adjacency rows are copied dict by dict, and the cached views
        come along as new objects, so the copy's first consumer pays no
        O(m) rebuild.  Only the read-only endpoint array is shared.
        """
        clone = UncertainGraph(name=self.name if name is None else name)
        clone._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        if self._edge_cache is not None:
            edge_list, probs = self._edge_cache
            clone._edge_cache = (list(edge_list), probs.copy())
        if self._indexer_cache is not None:
            clone._indexer_cache = dict(self._indexer_cache)
        clone._edge_index_cache = self._edge_index_cache
        return clone

    def subgraph_with_edges(
        self, edges: Iterable[tuple[Vertex, Vertex, float]], name: str = ""
    ) -> "UncertainGraph":
        """New graph on the *same vertex set* with the given edges.

        This is the shape every sparsifier produces: ``V`` is kept in
        full (paper section 3: sparsified graphs keep all vertices) and
        only the edge set shrinks.
        """
        out = UncertainGraph(vertices=self._adj, name=name)
        for u, v, p in edges:
            if not self.has_edge(u, v):
                raise GraphError(f"edge not in parent graph: ({u!r}, {v!r})")
            out.add_edge(u, v, p)
        return out

    def induced_subgraph(self, vertices: Iterable[Vertex], name: str = "") -> "UncertainGraph":
        """Induced subgraph on ``vertices`` (edges with both endpoints kept)."""
        keep = set(vertices)
        out = UncertainGraph(vertices=keep, name=name)
        for u, v, p in self.edges():
            if u in keep and v in keep:
                out.add_edge(u, v, p)
        return out

    def relabel_to_integers(self) -> tuple["UncertainGraph", dict[Vertex, int]]:
        """Return an isomorphic copy on vertices ``0..n-1`` plus the mapping."""
        # Copy: the caller owns the returned mapping, not the cache.
        mapping = dict(self.vertex_indexer())
        out = UncertainGraph(vertices=range(len(mapping)), name=self.name)
        for u, v, p in self.edges():
            out.add_edge(mapping[u], mapping[v], p)
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

        Builds the graph in one pass from the array layout the vectorised
        algorithms already hold (``SparsificationState.build_graph``, the
        samplers' edge views), validating everything with array ops
        instead of per-edge calls.  When the input rows are already in
        the canonical edge order — each row ``(u, v)`` with ``u < v`` as
        dense ids, sorted by ``u`` — the cached edge views
        (:meth:`edge_list` / :meth:`probability_array` /
        :meth:`edge_index_array`) are pre-seeded so the first consumer
        pays nothing; that is exactly the order
        ``SparsificationState.build_graph`` supplies.  Other input
        orders are accepted but the views are built lazily in canonical
        order, so edge ids stay stable across later cache
        invalidations (a pre-seeded non-canonical order would silently
        renumber edges on the first mutation).

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
        vertex_list = list(vertices)
        n = len(vertex_list)
        endpoints = np.asarray(endpoints, dtype=np.int64).reshape(-1, 2)
        probabilities = np.asarray(probabilities, dtype=np.float64).reshape(-1)
        m = len(probabilities)
        if len(endpoints) != m:
            raise GraphError(
                f"endpoints/probabilities length mismatch: {len(endpoints)} vs {m}"
            )
        if m:
            if endpoints.min() < 0 or endpoints.max() >= n:
                raise GraphError("endpoint id outside the vertex range")
            if np.any(endpoints[:, 0] == endpoints[:, 1]):
                raise GraphError("self-loops are not allowed")
            lo = float(probabilities.min())
            if not (lo > 0.0 and float(probabilities.max()) <= 1.0):
                raise ProbabilityError(
                    "edge probabilities must be in (0, 1]"
                )
            canonical = np.sort(endpoints, axis=1)
            if len(np.unique(canonical, axis=0)) != m:
                raise GraphError("duplicate undirected edges in edge arrays")

        out = cls(name=name)
        adj = out._adj
        for v in vertex_list:
            adj[v] = {}
        if len(adj) != n:
            raise GraphError("duplicate vertices in vertex list")

        edge_list: list[Edge] = []
        for (ui, vi), p in zip(endpoints.tolist(), probabilities.tolist()):
            u = vertex_list[ui]
            v = vertex_list[vi]
            adj[u][v] = p
            adj[v][u] = p
            edge_list.append((u, v))

        # Pre-seed the cached views only when the input order is the
        # order :meth:`edges` would reproduce from the adjacency
        # (rows ``u < v`` sorted by ``u``): then a later cache rebuild
        # yields identical edge ids.  Non-canonical orders leave the
        # caches lazy instead of pinning an order that the first
        # mutation would silently renumber.
        canonical_order = m == 0 or (
            bool(np.all(endpoints[:, 0] < endpoints[:, 1]))
            and bool(np.all(np.diff(endpoints[:, 0]) >= 0))
        )
        if canonical_order:
            out._edge_cache = (edge_list, probabilities.copy())
            out._indexer_cache = {v: i for i, v in enumerate(vertex_list)}
            index_cache = endpoints.copy()
            index_cache.setflags(write=False)
            out._edge_index_cache = index_cache
        return out

    # ------------------------------------------------------------------
    # Equality (structural, probability-tolerant)
    # ------------------------------------------------------------------
    def isomorphic_probabilities(self, other: "UncertainGraph", tol: float = 1e-9) -> bool:
        """Same vertex set, same edges, probabilities equal within ``tol``."""
        if set(self._adj) != set(other._adj):
            return False
        if self.number_of_edges() != other.number_of_edges():
            return False
        for u, v, p in self.edges():
            if not other.has_edge(u, v):
                return False
            if abs(other.probability(u, v) - p) > tol:
                return False
        return True


def _apply_to_uncertain(
    graph: UncertainGraph, batch: EdgeDeltaBatch, in_place: bool
) -> AppliedDelta:
    old_ps = graph.probability_array()
    old_index = graph.edge_index_array()
    m = len(old_ps)
    n = graph.number_of_vertices()
    _check_eid_range(batch, m)
    _check_insert_range(batch, n)
    vertex_of = graph.vertices()
    if len(batch.insert_endpoints):
        # Refuse an insert of a surviving edge before anything mutates,
        # so a failing batch leaves the graph as it was (keys are >= 0,
        # so -1 marks the deleted edges).
        keys = _pair_keys(old_index, n)
        keys[batch.delete_eids] = -1
        clash = _existing_insert(batch, keys, n)
        if clash >= 0:
            u, v = (vertex_of[i] for i in batch.insert_endpoints[clash].tolist())
            raise GraphError(f"insert of an existing edge: ({u!r}, {v!r})")
    old_update_ps = old_ps[batch.update_eids]
    if not in_place:
        graph = graph.copy()
    # Read the edge list before any structural mutation drops the cache.
    edge_list = graph.edge_list()
    graph.set_probabilities(batch.update_eids, batch.update_ps)
    if not batch.is_structural:
        return AppliedDelta(
            batch=batch, graph=graph, id_map=np.arange(m, dtype=np.int64),
            old_m=m, new_m=m, structural=False, old_update_ps=old_update_ps,
            insert_eids=np.empty(0, dtype=np.int64),
        )

    for eid in batch.delete_eids.tolist():
        u, v = edge_list[eid]
        graph.remove_edge(u, v)
    for (a, b), p in zip(batch.insert_endpoints.tolist(), batch.insert_ps.tolist()):
        graph.add_edge(vertex_of[a], vertex_of[b], p)

    # Derive the id map from the post-mutation enumeration itself: the
    # dict adjacency interleaves inserted edges (an edge enumerates at
    # its first endpoint's adjacency position), so positions are matched
    # by canonical endpoint pair rather than assumed.
    new_index = graph.edge_index_array()
    new_keys = _pair_keys(new_index, n)
    order = np.argsort(new_keys)
    alive = np.ones(m, dtype=bool)
    alive[batch.delete_eids] = False
    id_map = np.full(m, -1, dtype=np.int64)
    if alive.any():
        old_keys = _pair_keys(old_index[alive], n)
        id_map[alive] = order[np.searchsorted(new_keys[order], old_keys)]
    insert_keys = _pair_keys(batch.insert_endpoints, n)
    insert_eids = (
        order[np.searchsorted(new_keys[order], insert_keys)]
        if len(insert_keys) else np.empty(0, dtype=np.int64)
    )
    return AppliedDelta(
        batch=batch, graph=graph, id_map=id_map, old_m=m,
        new_m=len(new_keys), structural=True, old_update_ps=old_update_ps,
        insert_eids=insert_eids,
    )


def views(graph) -> tuple:
    """Every order-carrying view the two graph classes must agree on:
    vertices, edges, endpoint and probability bytes, each vertex's
    neighbours in order, and the serialisation."""
    return (
        list(graph.vertices()),
        list(graph.edge_list()),
        graph.edge_index_array().tobytes(),
        graph.probability_array().tobytes(),
        [(v, list(graph.neighbors(v).items())) for v in graph.vertices()],
        format_edge_list(graph),
    )
