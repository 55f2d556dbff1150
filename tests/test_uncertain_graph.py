"""UncertainGraph: construction, deltas, views, invariants."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.graph import UncertainGraph as DictGraph
from oracles.graph import _apply_to_uncertain, views as _oracle_views
from repro.core import UncertainGraph
from repro.core.delta import EdgeDeltaBatch, apply_delta
from repro.exceptions import GraphError, ProbabilityError


def _update(graph, eids, ps, in_place=True):
    """A probability-only delta; returns the graph it produced."""
    return apply_delta(
        graph, EdgeDeltaBatch(update_eids=eids, update_ps=ps),
        in_place=in_place,
    ).graph


def _eid(graph, u, v):
    return graph.edge_list().index((u, v))


class TestConstruction:
    def test_empty(self):
        g = UncertainGraph()
        assert g.number_of_vertices() == 0
        assert g.number_of_edges() == 0

    def test_from_triples(self, triangle):
        assert triangle.number_of_vertices() == 3
        assert triangle.number_of_edges() == 3

    def test_isolated_vertices(self):
        g = UncertainGraph(vertices=["x", "y"])
        assert g.number_of_vertices() == 2
        assert g.number_of_edges() == 0

    def test_repr_contains_counts(self, triangle):
        assert "|V|=3" in repr(triangle)
        assert "|E|=3" in repr(triangle)

    def test_repeated_pair_keeps_first_position_and_last_probability(self):
        g = UncertainGraph([("a", "b", 0.5), ("b", "c", 0.25),
                            ("b", "a", 0.75)], vertices=["z"])
        assert g.vertices() == ["z", "a", "b", "c"]
        assert g.edge_list() == [("a", "b"), ("b", "c")]
        assert g.probability_array().tolist() == [0.75, 0.25]

    @pytest.mark.parametrize("edges, error, match", [
        ([(1, 2, 0.5), (3, 3, 0.5), (4, 5, 2.0)], GraphError, "self-loops"),
        ([(1, 2, 0.5), (4, 5, 2.0), (3, 3, 0.5)], ProbabilityError, "2.0"),
        ([(3, 3, "x")], GraphError, "self-loops"),
        ([(1, 2, "x")], ValueError, "could not convert"),
        # A NaN label is not equal to itself, but it names one vertex.
        ([(float("nan"),) * 2 + (0.5,)], GraphError, "self-loops"),
    ])
    def test_first_bad_triple_raises(self, edges, error, match):
        with pytest.raises(error, match=match):
            UncertainGraph(edges)


class TestEdges:
    def test_probability_symmetric(self, triangle):
        assert triangle.probability("a", "b") == triangle.probability("b", "a")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            UncertainGraph([(1, 1, 0.5)])

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.1, float("nan")])
    def test_invalid_probability_rejected(self, p):
        with pytest.raises(ProbabilityError):
            UncertainGraph([(1, 2, p)])

    def test_probability_one_allowed(self):
        g = UncertainGraph([(1, 2, 1.0)])
        assert g.probability(1, 2) == 1.0

    def test_set_probability(self, triangle):
        batch = EdgeDeltaBatch.from_pairs(triangle, updates=[("a", "b", 0.9)])
        apply_delta(triangle, batch)
        assert triangle.probability("a", "b") == 0.9
        assert triangle.probability("b", "a") == 0.9

    def test_set_probability_missing_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            EdgeDeltaBatch.from_pairs(triangle, updates=[("a", "zzz", 0.5)])

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            EdgeDeltaBatch.from_pairs(triangle, deletes=[("a", "nope")])

    def test_edges_iterates_each_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        keys = {frozenset((u, v)) for u, v, _ in edges}
        assert len(keys) == 3


class TestDegrees:
    def test_expected_degree(self, triangle):
        assert triangle.expected_degree("a") == pytest.approx(1.5)
        assert triangle.expected_degree("b") == pytest.approx(0.75)

    def test_expected_degrees_map(self, triangle):
        degrees = triangle.expected_degrees()
        assert degrees["c"] == pytest.approx(1.25)

    def test_degree_counts_edges(self, triangle):
        assert triangle.degree("a") == 2

    def test_missing_vertex_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.expected_degree("missing")

    def test_sum_expected_degrees_is_twice_mass(self, small_power_law):
        total = sum(small_power_law.expected_degrees().values())
        assert total == pytest.approx(2 * small_power_law.expected_number_of_edges())


class TestVectorViews:
    def test_probability_array_aligned_with_edge_list(self, triangle):
        edges = triangle.edge_list()
        probs = triangle.probability_array()
        for (u, v), p in zip(edges, probs):
            assert triangle.probability(u, v) == p

    def test_probability_array_is_readonly(self, triangle):
        arr = triangle.probability_array()
        with pytest.raises(ValueError):
            arr[0] = 0.1

    def test_cache_invalidated_on_mutation(self, triangle):
        before = len(triangle.edge_list())
        apply_delta(triangle, EdgeDeltaBatch(
            delete_eids=[_eid(triangle, "a", "b")]
        ))
        assert len(triangle.edge_list()) == before - 1
        assert not triangle.has_edge("a", "b")

    def test_edge_index_array_shape(self, small_power_law):
        arr = small_power_law.edge_index_array()
        assert arr.shape == (small_power_law.number_of_edges(), 2)
        assert arr.min() >= 0
        assert arr.max() < small_power_law.number_of_vertices()

    def test_expected_degree_array_matches_map(self, small_power_law):
        array = small_power_law.expected_degree_array()
        indexer = small_power_law.vertex_indexer()
        for vertex, idx in indexer.items():
            assert array[idx] == pytest.approx(
                small_power_law.expected_degree(vertex)
            )


class TestStructure:
    def test_connected(self, path4):
        assert path4.is_connected()

    def test_disconnected(self):
        g = UncertainGraph([(0, 1, 0.5), (2, 3, 0.5)])
        assert not g.is_connected()
        components = g.connected_components()
        assert sorted(len(c) for c in components) == [2, 2]

    def test_single_vertex_is_connected(self):
        assert UncertainGraph(vertices=[0]).is_connected()

    def test_density_triangle(self, triangle):
        assert triangle.density() == pytest.approx(1.0)

    def test_expected_cut_size_singleton_is_degree(self, triangle):
        assert triangle.expected_cut_size(["a"]) == pytest.approx(
            triangle.expected_degree("a")
        )

    def test_expected_cut_size_pair(self, triangle):
        # S = {a, b}: crossing edges are (a,c)=1.0 and (b,c)=0.25
        assert triangle.expected_cut_size(["a", "b"]) == pytest.approx(1.25)

    def test_expected_cut_full_set_is_zero(self, triangle):
        assert triangle.expected_cut_size(["a", "b", "c"]) == 0.0

    def test_cut_unknown_vertex_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.expected_cut_size(["nope"])

    def test_expected_cut_size_sums_in_id_order(self):
        """The float sum runs over the subset in vertex-id order (then
        each vertex's neighbours in order), whatever order ``subset`` or
        a set of it has: vertex 8's ten tiny edges vanish only when
        added after vertex 1's 1.0."""
        edges = [(1, 0, 1.0)] + [(8, 10 + k, 1e-16) for k in range(10)]
        graph = UncertainGraph(edges, vertices=range(20))
        tiny = 0.0
        for _ in range(10):
            tiny += 1e-16
        assert graph.expected_cut_size([8]) == tiny
        assert tiny + 1.0 > 1.0  # vertex 8 first would not give 1.0
        for subset in ([8, 1], [1, 8]):
            assert graph.expected_cut_size(subset) == 1.0

    def test_induced_subgraph_unknown_vertex_raises(self, triangle):
        with pytest.raises(GraphError, match="'nope'"):
            triangle.induced_subgraph(["a", "nope"])

    def test_induced_subgraph_keeps_id_order(self, triangle):
        sub = triangle.induced_subgraph(["c", "a", "c"])
        assert sub.vertices() == ["a", "c"]
        assert sub.edge_list() == [("a", "c")]


class TestCopiesAndConversions:
    def test_copy_is_deep(self, triangle):
        clone = triangle.copy()
        _update(clone, [_eid(clone, "a", "b")], [0.99])
        assert clone.probability("a", "b") == 0.99
        assert triangle.probability("a", "b") == 0.5

    def test_subgraph_with_edges_keeps_vertices(self, triangle):
        sub = triangle.subgraph_with_edges([("a", "b", 0.7)])
        assert sub.number_of_vertices() == 3
        assert sub.number_of_edges() == 1
        assert sub.probability("a", "b") == 0.7

    def test_subgraph_with_foreign_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.subgraph_with_edges([("a", "zzz", 0.5)])

    def test_induced_subgraph(self, triangle):
        sub = triangle.induced_subgraph(["a", "b"])
        assert sub.number_of_vertices() == 2
        assert sub.number_of_edges() == 1

    def test_relabel_to_integers_isomorphic(self, triangle):
        relabeled, mapping = triangle.relabel_to_integers()
        assert set(mapping.values()) == {0, 1, 2}
        assert relabeled.number_of_edges() == 3
        assert relabeled.probability(mapping["a"], mapping["b"]) == 0.5

    def test_isomorphic_probabilities_tolerance(self, triangle):
        eid = _eid(triangle, "a", "b")
        other = _update(triangle, [eid], [0.5 + 1e-12], in_place=False)
        assert triangle.isomorphic_probabilities(other)
        other = _update(triangle, [eid], [0.6], in_place=False)
        assert not triangle.isomorphic_probabilities(other)


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(0, 15),
            st.integers(0, 15),
            st.floats(min_value=0.01, max_value=1.0),
        ),
        max_size=60,
    )
)
def test_property_edge_count_consistent(edges):
    edges = [(u, v, p) for u, v, p in edges if u != v]
    g = UncertainGraph(edges)
    expected = {}
    for u, v, p in edges:
        expected[frozenset((u, v))] = p
    assert g.number_of_edges() == len(expected)
    for key, p in expected.items():
        u, v = tuple(key)
        assert g.probability(u, v) == pytest.approx(p)
    # Total expected degree equals twice the probability mass.
    assert sum(g.expected_degrees().values()) == pytest.approx(
        2 * sum(expected.values())
    )


class TestReadOnlyViews:
    def test_neighbors_is_read_only(self, triangle):
        nbrs = triangle.neighbors("a")
        with pytest.raises(TypeError):
            nbrs["b"] = 0.1
        with pytest.raises(TypeError):
            del nbrs["b"]
        # The mapping is a snapshot: a later delta shows in a new call.
        _update(triangle, [_eid(triangle, "a", "b")], [0.75])
        assert nbrs["b"] == 0.5
        assert triangle.neighbors("a")["b"] == 0.75

    def test_neighbors_missing_vertex(self, triangle):
        with pytest.raises(GraphError):
            triangle.neighbors("zzz")

    def test_edge_index_array_cached_and_read_only(self, triangle):
        first = triangle.edge_index_array()
        assert triangle.edge_index_array() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 99
        apply_delta(triangle, EdgeDeltaBatch(delete_eids=[1]))
        second = triangle.edge_index_array()
        assert second is not first
        assert len(second) == 2
        assert len(first) == 3  # a held array keeps its values


class TestFromEdgeArrays:
    def make_arrays(self):
        vertices = ["a", "b", "c", "d"]
        endpoints = np.array([[0, 1], [1, 2], [2, 3], [0, 2]])
        probabilities = np.array([0.5, 0.25, 1.0, 0.1])
        return vertices, endpoints, probabilities

    def test_matches_incremental_construction(self):
        vertices, endpoints, probabilities = self.make_arrays()
        bulk = UncertainGraph.from_edge_arrays(vertices, endpoints, probabilities)
        incremental = UncertainGraph(
            [(vertices[u], vertices[v], float(p))
             for (u, v), p in zip(endpoints, probabilities)],
            vertices=vertices,
        )
        assert bulk.isomorphic_probabilities(incremental)
        assert bulk.vertices() == incremental.vertices()
        assert bulk.edge_list() == incremental.edge_list()

    def test_preseeded_views_for_canonical_order(self):
        # Rows (u, v) with u < v sorted by u — the order build_graph
        # supplies — pre-seed the caches verbatim.
        vertices = ["a", "b", "c", "d"]
        endpoints = np.array([[0, 1], [0, 2], [1, 2], [2, 3]])
        probabilities = np.array([0.5, 0.1, 0.25, 1.0])
        g = UncertainGraph.from_edge_arrays(
            vertices, endpoints, probabilities, name="bulk"
        )
        assert g.name == "bulk"
        assert g.edge_list() == [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]
        assert np.array_equal(g.probability_array(), probabilities)
        assert np.array_equal(g.edge_index_array(), endpoints)
        assert g.vertex_indexer() == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert not g.edge_index_array().flags.writeable

    def test_non_canonical_order_gets_canonical_views(self):
        # Arbitrary input order is accepted; rows are re-sorted into
        # the canonical order, so a graph rebuilt from its own rows
        # keeps every edge id.
        vertices, endpoints, probabilities = self.make_arrays()
        g = UncertainGraph.from_edge_arrays(vertices, endpoints, probabilities)
        before = list(g.edge_list())
        assert before == [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]
        rebuilt = UncertainGraph.from_edge_arrays(
            vertices, g.edge_index_array(), g.probability_array()
        )
        assert rebuilt.edge_list() == before  # same ids for the same edges

    def test_views_rebuild_after_mutation(self):
        vertices, endpoints, probabilities = self.make_arrays()
        g = UncertainGraph.from_edge_arrays(vertices, endpoints, probabilities)
        g.edge_list()
        apply_delta(g, EdgeDeltaBatch(insert_endpoints=[[1, 3]],
                                      insert_ps=[0.9]))
        assert g.number_of_edges() == 5
        assert len(g.edge_list()) == 5
        assert g.probability("b", "d") == 0.9

    def test_input_arrays_are_not_aliased(self):
        vertices, endpoints, probabilities = self.make_arrays()
        g = UncertainGraph.from_edge_arrays(vertices, endpoints, probabilities)
        probabilities[0] = 0.9  # caller's arrays stay caller-owned
        endpoints[0, 0] = 3
        assert g.probability("a", "b") == 0.5
        assert g.edge_index_array()[0, 0] == 0

    def test_empty_edge_set(self):
        g = UncertainGraph.from_edge_arrays(
            ["x", "y"], np.empty((0, 2), dtype=np.int64), np.empty(0)
        )
        assert g.number_of_vertices() == 2
        assert g.number_of_edges() == 0

    def test_rejects_self_loops(self):
        with pytest.raises(GraphError):
            UncertainGraph.from_edge_arrays(
                ["a", "b"], np.array([[0, 0]]), np.array([0.5])
            )

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(GraphError):
            UncertainGraph.from_edge_arrays(
                ["a", "b"], np.array([[0, 2]]), np.array([0.5])
            )

    def test_rejects_bad_probabilities(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ProbabilityError):
                UncertainGraph.from_edge_arrays(
                    ["a", "b"], np.array([[0, 1]]), np.array([bad])
                )

    def test_rejects_duplicate_edges(self):
        with pytest.raises(GraphError):
            UncertainGraph.from_edge_arrays(
                ["a", "b", "c"],
                np.array([[0, 1], [1, 0]]),
                np.array([0.5, 0.5]),
            )

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(GraphError):
            UncertainGraph.from_edge_arrays(
                ["a", "a"], np.empty((0, 2), dtype=np.int64), np.empty(0)
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(GraphError):
            UncertainGraph.from_edge_arrays(
                ["a", "b"], np.array([[0, 1]]), np.array([0.5, 0.6])
            )


def _snapshot(graph):
    """Everything a copy must keep apart: adjacency rows in order, the
    edge enumeration, probability and endpoint bytes, the indexer."""
    return (
        [(v, list(graph.neighbors(v).items())) for v in graph],
        list(graph.edge_list()),
        graph.probability_array().tobytes(),
        graph.edge_index_array().tobytes(),
        dict(graph.vertex_indexer()),
    )


def _views(graph):
    return (
        list(graph.edge_list()),
        graph.probability_array().dtype,
        graph.probability_array().tobytes(),
        graph.edge_index_array().dtype,
        graph.edge_index_array().tobytes(),
        dict(graph.vertex_indexer()),
    )


def _cold_views(graph):
    """The cached views, then the views of a graph freshly built from
    the same rows."""
    fresh = UncertainGraph.from_edge_arrays(
        graph.vertices(), graph.edge_index_array().copy(),
        graph.probability_array().copy(),
    )
    return _views(graph), _views(fresh)


def _free_pair(graph):
    """The first dense pair that is not an edge."""
    taken = {tuple(sorted(row)) for row in graph.edge_index_array().tolist()}
    n = graph.number_of_vertices()
    return next((a, b) for a in range(n) for b in range(a + 1, n)
                if (a, b) not in taken)


def _mutate(graph, kind):
    """One in-place delta of the given kind."""
    m = graph.number_of_edges()
    if kind == "bulk":
        batch = EdgeDeltaBatch(update_eids=[0, m - 1], update_ps=[0.125, 0.875])
    elif kind == "add":
        batch = EdgeDeltaBatch(insert_endpoints=[_free_pair(graph)],
                               insert_ps=[0.5])
    else:
        batch = EdgeDeltaBatch(delete_eids=[1])
    apply_delta(graph, batch)


class TestCopyIndependence:
    """``copy`` shares every view, and an in-place delta on either side
    leaves the other as it was."""

    @pytest.mark.parametrize("warm", [True, False])
    def test_copy_equals_original(self, small_power_law, warm):
        graph = small_power_law
        # Deleting an edge and inserting it again ranks it after every
        # other edge, so neighbour order is no longer edge order.
        pair = sorted(graph.edge_index_array()[0].tolist())
        apply_delta(graph, EdgeDeltaBatch(
            delete_eids=[0], insert_endpoints=[pair],
            insert_ps=[float(graph.probability_array()[0])],
        ))
        if warm:
            graph.edge_index_array()
        clone = graph.copy(name="clone")
        assert clone.name == "clone"
        assert _snapshot(clone) == _snapshot(graph)

    @pytest.mark.parametrize("kind", ["bulk", "add", "remove"])
    @pytest.mark.parametrize("mutated", ["original", "copy"])
    def test_mutating_one_side_leaves_the_other(
        self, small_power_law, kind, mutated
    ):
        original = small_power_law
        original.edge_index_array()  # warm: the copy carries the views
        clone = original.copy()
        target, other = (
            (original, clone) if mutated == "original" else (clone, original)
        )
        before = _snapshot(other)
        target_before = _snapshot(target)
        _mutate(target, kind)
        assert _snapshot(target) != target_before
        assert _snapshot(other) == before
        warm, cold = _cold_views(target)
        assert warm == cold

    def test_copy_shares_every_view(self, triangle):
        views = (triangle.edge_list(), triangle.probability_array(),
                 triangle.edge_index_array(), triangle.vertex_indexer(),
                 triangle._adjacency())
        clone = triangle.copy()
        for got, want in zip((clone.edge_list(), clone.probability_array(),
                              clone.edge_index_array(), clone.vertex_indexer(),
                              clone._adjacency()), views):
            assert got is want


class TestSetProbabilities:
    """Probability-only deltas: a patched copy of the probability array,
    every structural view kept."""

    def test_updates_adjacency_and_keeps_structure(self, small_power_law):
        graph = small_power_law
        edges = graph.edge_list()
        index = graph.edge_index_array()
        held = graph.probability_array()
        held_bytes = held.tobytes()
        _update(graph, [3, 0], [0.25, 1.0])
        # Structural views are the same objects; the holder's array kept
        # its values, and the new array is read-only.
        assert graph.edge_list() is edges
        assert graph.edge_index_array() is index
        assert held.tobytes() == held_bytes
        probs = graph.probability_array()
        assert probs is not held and not probs.flags.writeable
        assert probs[3] == 0.25 and probs[0] == 1.0
        for (u, v), p in zip(edges, probs.tolist()):
            assert graph.probability(u, v) == p == graph.probability(v, u)
        assert dict(graph.neighbors(edges[0][0]))[edges[0][1]] == 1.0
        warm, cold = _cold_views(graph)
        assert warm == cold

    def test_cold_graph(self, triangle):
        _update(triangle, [1], [0.75])
        u, v = triangle.edge_list()[1]
        assert triangle.probability(u, v) == 0.75

    def test_empty_update_is_a_no_op(self, triangle):
        before = _snapshot(triangle)
        held = triangle.probability_array()
        _update(triangle, [], [])
        assert _snapshot(triangle) == before
        assert triangle.probability_array() is held

    @pytest.mark.parametrize("eids, ps, error, match", [
        ([0, 1], [0.5], GraphError, "mismatch"),
        ([3], [0.5], GraphError, "out of range for 3 edges"),
        ([-1], [0.5], GraphError, "negative edge id"),
        ([0], [0.0], ProbabilityError, r"\(0, 1\]"),
        ([0, 1], [0.5, float("nan")], ProbabilityError, r"\(0, 1\]"),
        ([1.7], [0.5], GraphError, "must be an integer"),
        ([True], [0.5], GraphError, "must be an integer"),
        ([0], [True], GraphError, "must be a real number"),
        ([0], ["0.5"], GraphError, "must be a real number"),
    ])
    def test_rejects_bad_input_untouched(self, triangle, eids, ps, error, match):
        before = _snapshot(triangle)
        with pytest.raises(error, match=match):
            _update(triangle, eids, ps)
        assert _snapshot(triangle) == before


# -- the array graph against the dict-of-dicts oracle ------------------------

def _draw_batch(data, graph, structural):
    m = graph.number_of_edges()
    n = graph.number_of_vertices()
    eids = list(range(m))
    updates = data.draw(st.lists(st.sampled_from(eids), unique=True,
                                 max_size=4)) if eids else []
    deletes, inserts = [], []
    if structural:
        rest = [e for e in eids if e not in updates]
        deletes = data.draw(st.lists(st.sampled_from(rest), unique=True,
                                     max_size=3)) if rest else []
        existing = {
            (min(a, b), max(a, b))
            for a, b in graph.edge_index_array().tolist()
        }
        free = [(a, b) for a in range(n) for b in range(a + 1, n)
                if (a, b) not in existing]
        inserts = data.draw(st.lists(st.sampled_from(free), unique=True,
                                     max_size=3)) if free else []
    return EdgeDeltaBatch(
        update_eids=np.array(updates, dtype=np.int64),
        update_ps=[data.draw(_oracle_probs) for _ in updates],
        delete_eids=np.array(deletes, dtype=np.int64),
        insert_endpoints=np.array(inserts, dtype=np.int64).reshape(-1, 2),
        insert_ps=[data.draw(_oracle_probs) for _ in inserts],
    )


_oracle_probs = st.floats(min_value=0.01, max_value=1.0)
_oracle_labels = st.integers(0, 7)


def _one_step(data, graph, oracle):
    """Draw one step, run it on both graphs; returns the pair to go on with."""
    kind = data.draw(st.sampled_from(["delta", "delta", "delta", "copy",
                                      "from_arrays"]))
    if kind == "copy":
        graph, oracle = graph.copy(name="c"), oracle.copy(name="c")
    elif kind == "from_arrays":
        rows = oracle.edge_index_array().copy()
        probs = oracle.probability_array().copy()
        if data.draw(st.booleans()):  # shuffled and flipped rows
            order = data.draw(st.permutations(range(len(rows))))
            rows, probs = rows[list(order)], probs[list(order)]
            flip = np.array([data.draw(st.booleans()) for _ in range(len(rows))],
                            dtype=bool)
            rows[flip] = rows[flip][:, ::-1]
        vertices = oracle.vertices()
        graph = UncertainGraph.from_edge_arrays(vertices, rows, probs)
        oracle = DictGraph.from_edge_arrays(vertices, rows, probs)
    else:
        batch = _draw_batch(data, oracle, structural=data.draw(st.booleans()))
        in_place = data.draw(st.booleans())
        applied = apply_delta(graph, batch, in_place=in_place)
        expected = _apply_to_uncertain(oracle, batch, in_place)
        assert np.array_equal(applied.id_map, expected.id_map)
        assert np.array_equal(applied.insert_eids, expected.insert_eids)
        assert applied.new_m == expected.new_m
        assert np.array_equal(applied.old_update_ps, expected.old_update_ps)
        if not in_place:
            graph, oracle = applied.graph, expected.graph
    return graph, oracle


_mixed_labels = st.one_of(st.integers(0, 5), st.sampled_from("abc"))


def _outcome(build):
    try:
        return _oracle_views(build())
    except (GraphError, ValueError) as error:
        return type(error), str(error)


class TestAgainstDictOracle:
    """The array graph against the dict-of-dicts graph it replaced
    (``oracles.graph``): built from the same triples, then random
    ``apply_delta`` sequences (in place or not), copies and array
    rebuilds; identical vertex, edge and neighbour orders and identical
    bytes after every step."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_sequences_match(self, data):
        initial = data.draw(st.lists(
            st.tuples(_oracle_labels, _oracle_labels, _oracle_probs)
            .filter(lambda e: e[0] != e[1]),
            max_size=8,
        ))
        isolated = data.draw(st.lists(_oracle_labels, max_size=2))
        graph = UncertainGraph(initial, vertices=isolated)
        oracle = DictGraph(initial, vertices=isolated)
        assert _oracle_views(graph) == _oracle_views(oracle)
        for _ in range(data.draw(st.integers(1, 12))):
            graph, oracle = _one_step(data, graph, oracle)
            assert _oracle_views(graph) == _oracle_views(oracle)
            assert graph.number_of_edges() == oracle.number_of_edges()

    @settings(max_examples=300, deadline=None)
    @given(
        edges=st.lists(st.tuples(
            _mixed_labels, _mixed_labels,
            st.one_of(_oracle_probs, st.sampled_from([0.0, 1.5, "0.5", "x"])),
        ), max_size=12),
        isolated=st.lists(_mixed_labels, max_size=3),
    )
    def test_constructor_matches_per_edge_loop(self, edges, isolated):
        """Repeated pairs (either orientation), isolated vertices listed
        before or among the endpoints, and bad triples: the same graph,
        or the same error as the dict graph's ``add_edge`` loop."""
        assert _outcome(lambda: UncertainGraph(edges, vertices=isolated)) == \
            _outcome(lambda: DictGraph(edges, vertices=isolated))


# -- outputs that must not depend on string hashing ---------------------------

_HASH_SEED_SCRIPT = textwrap.dedent("""
    import hashlib
    import numpy as np
    from repro.datasets import flickr_like, forest_fire_sample
    from repro.datasets.io import format_edge_list, parse_edge_list

    graph = parse_edge_list(format_edge_list(
        flickr_like(n=200, avg_degree=8, seed=3)))
    sample = forest_fire_sample(graph, 80, rng=5)
    print(hashlib.sha256(format_edge_list(sample).encode()).hexdigest())
    vertices = graph.vertices()
    rng = np.random.default_rng(0)
    cuts = [graph.expected_cut_size(
                [vertices[i] for i in rng.choice(200, 60, replace=False)])
            for _ in range(20)]
    print(" ".join(c.hex() for c in cuts))
""")


def _run_with_hash_seed(seed):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join([str(root / "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    ).stdout


def test_string_labels_give_the_same_bytes_under_any_hash_seed():
    """``induced_subgraph`` (through Forest Fire sampling) and
    ``expected_cut_size`` on a parsed, string-labelled graph: one run
    per hash seed, byte-identical output."""
    first, second = (_run_with_hash_seed(seed) for seed in (1, 2))
    assert first == second
