"""UncertainGraph: construction, mutation, views, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.graph import UncertainGraph as DictGraph
from oracles.graph import _apply_to_uncertain
from repro.core import UncertainGraph
from repro.core.delta import EdgeDeltaBatch, apply_delta
from repro.datasets import format_edge_list
from repro.exceptions import GraphError, ProbabilityError


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


class TestEdges:
    def test_add_edge_registers_vertices(self):
        g = UncertainGraph()
        g.add_edge(1, 2, 0.5)
        assert 1 in g and 2 in g

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
        triangle.set_probability("a", "b", 0.9)
        assert triangle.probability("a", "b") == 0.9
        assert triangle.probability("b", "a") == 0.9

    def test_set_probability_missing_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.set_probability("a", "zzz", 0.5)

    def test_remove_edge_returns_probability(self, triangle):
        assert triangle.remove_edge("a", "b") == 0.5
        assert not triangle.has_edge("a", "b")
        assert triangle.number_of_edges() == 2

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.remove_edge("a", "nope")

    def test_remove_vertex_removes_incident_edges(self, triangle):
        triangle.remove_vertex("b")
        assert triangle.number_of_edges() == 1
        assert "b" not in triangle

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
        triangle.remove_edge("a", "b")
        assert len(triangle.edge_list()) == before - 1

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


class TestCopiesAndConversions:
    def test_copy_is_deep(self, triangle):
        clone = triangle.copy()
        clone.set_probability("a", "b", 0.99)
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

    def test_networkx_roundtrip(self, triangle):
        nx_graph = triangle.to_networkx()
        back = UncertainGraph.from_networkx(nx_graph)
        assert back.isomorphic_probabilities(triangle)

    def test_from_networkx_missing_attr_raises(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(1, 2)
        with pytest.raises(GraphError):
            UncertainGraph.from_networkx(g)

    def test_isomorphic_probabilities_tolerance(self, triangle):
        other = triangle.copy()
        other.set_probability("a", "b", 0.5 + 1e-12)
        assert triangle.isomorphic_probabilities(other)
        other.set_probability("a", "b", 0.6)
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
    g = UncertainGraph()
    expected = {}
    for u, v, p in edges:
        if u == v:
            continue
        g.add_edge(u, v, p)
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
        # The mapping is a snapshot: later mutations show in a new call.
        triangle.set_probability("a", "b", 0.75)
        assert nbrs["b"] == 0.5
        assert triangle.neighbors("a")["b"] == 0.75

    def test_neighbors_missing_vertex(self, triangle):
        with pytest.raises(GraphError):
            triangle.neighbors("zzz")

    def test_vertex_indexer_cached_until_mutation(self, triangle):
        first = triangle.vertex_indexer()
        assert triangle.vertex_indexer() is first
        triangle.add_vertex("d")
        second = triangle.vertex_indexer()
        assert second is not first
        assert second["d"] == 3

    def test_edge_index_array_cached_and_read_only(self, triangle):
        first = triangle.edge_index_array()
        assert triangle.edge_index_array() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 99
        triangle.add_edge("a", "d", 0.5)
        second = triangle.edge_index_array()
        assert second is not first
        assert len(second) == 4


class TestFromEdgeArrays:
    def make_arrays(self):
        vertices = ["a", "b", "c", "d"]
        endpoints = np.array([[0, 1], [1, 2], [2, 3], [0, 2]])
        probabilities = np.array([0.5, 0.25, 1.0, 0.1])
        return vertices, endpoints, probabilities

    def test_matches_incremental_construction(self):
        vertices, endpoints, probabilities = self.make_arrays()
        bulk = UncertainGraph.from_edge_arrays(vertices, endpoints, probabilities)
        incremental = UncertainGraph(vertices=vertices)
        for (u, v), p in zip(endpoints, probabilities):
            incremental.add_edge(vertices[u], vertices[v], float(p))
        assert bulk.isomorphic_probabilities(incremental)
        assert bulk.vertices() == incremental.vertices()

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
        # Arbitrary input order is accepted, but the views are built
        # lazily in the order edges() reproduces from the adjacency —
        # so edge ids stay stable across later cache invalidations.
        vertices, endpoints, probabilities = self.make_arrays()
        g = UncertainGraph.from_edge_arrays(vertices, endpoints, probabilities)
        before = list(g.edge_list())
        assert before == [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]
        g.add_vertex("z")  # invalidates caches, edge set unchanged
        assert g.edge_list() == before  # same ids for the same edges

    def test_views_rebuild_after_mutation(self):
        vertices, endpoints, probabilities = self.make_arrays()
        g = UncertainGraph.from_edge_arrays(vertices, endpoints, probabilities)
        g.add_edge("b", "d", 0.9)
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
    """The cached views, then the views a fresh rebuild computes."""
    warm = _views(graph)
    graph._invalidate_caches()
    return warm, _views(graph)


def _mutate(graph, kind):
    edges = graph.edge_list()
    if kind == "bulk":
        graph.set_probabilities(np.array([0, len(edges) - 1]), [0.125, 0.875])
    elif kind == "add":
        graph.add_edge("fresh", edges[0][0], 0.5)
    else:
        graph.remove_edge(*edges[1])


class TestCopyIndependence:
    """``copy`` carries the adjacency and cached views as new objects."""

    @pytest.mark.parametrize("warm", [True, False])
    def test_copy_equals_original(self, small_power_law, warm):
        graph = small_power_law
        # Re-adding an edge moves it to the end of both rows, so row
        # order is no longer the order a rebuild from edges() gives.
        u, v = graph.edge_list()[0]
        graph.add_edge(v, u, graph.remove_edge(u, v))
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

    def test_copy_does_not_alias_mutable_views(self, triangle):
        triangle.edge_index_array()
        clone = triangle.copy()
        assert clone.edge_list() is not triangle.edge_list()
        assert clone.probability_array() is not triangle.probability_array()
        assert clone.vertex_indexer() is not triangle.vertex_indexer()
        clone.add_vertex("d")
        clone.add_edge("a", "d", 0.5)
        assert triangle.vertices() == ["a", "b", "c"]
        assert "d" not in triangle.vertex_indexer()
        assert triangle.number_of_edges() == 3


class TestSetProbabilities:
    def test_updates_adjacency_and_keeps_structure(self, small_power_law):
        graph = small_power_law
        edges = graph.edge_list()
        index = graph.edge_index_array()
        held = graph.probability_array()
        held_bytes = held.tobytes()
        graph.set_probabilities(np.array([3, 0]), np.array([0.25, 1.0]))
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
        warm, cold = _cold_views(graph)
        assert warm == cold

    def test_cold_graph(self, triangle):
        triangle.set_probabilities([1], [0.75])
        u, v = triangle.edge_list()[1]
        assert triangle.probability(u, v) == 0.75

    def test_empty_update_is_a_no_op(self, triangle):
        before = _snapshot(triangle)
        triangle.set_probabilities([], [])
        assert _snapshot(triangle) == before

    @pytest.mark.parametrize("eids, ps, error, match", [
        ([0, 1], [0.5], GraphError, "mismatch"),
        ([3], [0.5], GraphError, r"\[0, 3\)"),
        ([-1], [0.5], GraphError, r"\[0, 3\)"),
        ([0], [0.0], ProbabilityError, r"\(0, 1\]"),
        ([0, 1], [0.5, float("nan")], ProbabilityError, r"\(0, 1\]"),
        ([1.7], [0.5], GraphError, "integers"),
        ([True], [0.5], GraphError, "integers"),
        ([0], [True], GraphError, "real numbers"),
        ([0], ["0.5"], GraphError, "real numbers"),
    ])
    def test_rejects_bad_input_untouched(self, triangle, eids, ps, error, match):
        before = _snapshot(triangle)
        with pytest.raises(error, match=match):
            triangle.set_probabilities(eids, ps)
        assert _snapshot(triangle) == before


# -- the array graph against the dict-of-dicts oracle ------------------------

def _oracle_views(graph):
    """Every order-carrying view the two graph classes must agree on."""
    return (
        list(graph.vertices()),
        list(graph.edge_list()),
        graph.edge_index_array().tobytes(),
        graph.probability_array().tobytes(),
        [(v, list(graph.neighbors(v).items())) for v in graph.vertices()],
        format_edge_list(graph),
    )


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


def _one_mutation(data, graph, oracle):
    """Draw one per-edge mutation and run it on both graphs."""
    edges = oracle.edge_list()
    kind = data.draw(st.sampled_from(
        ["add_vertex", "remove_vertex", "add_edge", "overwrite",
         "remove_edge", "set_probability"]
    ))
    if kind == "add_vertex":
        label = data.draw(_oracle_labels)
        graph.add_vertex(label)
        oracle.add_vertex(label)
    elif kind == "remove_vertex" and oracle.number_of_vertices():
        label = data.draw(st.sampled_from(oracle.vertices()))
        graph.remove_vertex(label)
        oracle.remove_vertex(label)
    elif kind in ("add_edge", "remove_vertex") or not edges:
        u = data.draw(_oracle_labels)
        v = data.draw(_oracle_labels.filter(lambda x: x != u))
        p = data.draw(_oracle_probs)
        graph.add_edge(u, v, p)
        oracle.add_edge(u, v, p)
    else:
        u, v = data.draw(st.sampled_from(edges))
        if data.draw(st.booleans()):
            u, v = v, u
        if kind == "remove_edge":
            assert graph.remove_edge(u, v) == oracle.remove_edge(u, v)
        elif kind == "overwrite":
            p = data.draw(_oracle_probs)
            graph.add_edge(u, v, p)
            oracle.add_edge(u, v, p)
        else:
            p = data.draw(_oracle_probs)
            graph.set_probability(u, v, p)
            oracle.set_probability(u, v, p)


def _one_step(data, graph, oracle):
    """Draw one step, run it on both graphs; returns the pair to go on with."""
    kind = data.draw(st.sampled_from(
        ["mutations", "mutations", "mutations", "set_probabilities", "copy",
         "from_arrays", "delta", "delta"]
    ))
    if kind == "mutations":
        # Several buffered per-edge mutations before the next array read.
        for _ in range(data.draw(st.integers(1, 4))):
            _one_mutation(data, graph, oracle)
    elif kind == "set_probabilities":
        m = oracle.number_of_edges()
        eids = data.draw(st.lists(st.integers(0, max(m - 1, 0)), unique=True,
                                  max_size=min(m, 3)))
        ps = [data.draw(_oracle_probs) for _ in eids]
        graph.set_probabilities(np.array(eids, dtype=np.int64), ps)
        oracle.set_probabilities(np.array(eids, dtype=np.int64), ps)
    elif kind == "copy":
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


class TestAgainstDictOracle:
    """Random operation sequences through the array graph and the
    dict-of-dicts graph it replaced (``oracles.graph``): identical vertex,
    edge and neighbour orders and identical bytes after every step."""

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
