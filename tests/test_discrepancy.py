"""Discrepancy vectors, objectives and SparsificationState bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.incidence import Incidence
from oracles.rules import endpoints, residual_excluding, residual_excluding_edge_only
from repro.core import (
    SparsificationState,
    UncertainGraph,
    cut_discrepancy,
    d1_objective,
    degree_discrepancy_vector,
    delta_1,
)
from repro.core.sweep import apply_probability_vector
from repro.datasets import flickr_like
from repro.exceptions import GraphError


def make_sparsified(graph, keep_fraction=0.5, new_p=None):
    edges = list(graph.edges())
    kept = edges[: max(1, int(len(edges) * keep_fraction))]
    if new_p is not None:
        kept = [(u, v, new_p) for u, v, _ in kept]
    return graph.subgraph_with_edges(kept)


def loop_degree_discrepancy(original, sparsified, relative=False):
    """The pre-vectorisation per-vertex reference implementation."""
    deltas = np.empty(original.number_of_vertices(), dtype=np.float64)
    for i, vertex in enumerate(original.vertices()):
        d_orig = original.expected_degree(vertex)
        d_new = sparsified.expected_degree(vertex)
        delta = d_orig - d_new
        if relative:
            delta = delta / d_orig if d_orig > 0 else 0.0
        deltas[i] = delta
    return deltas


class TestVectorizedDiscrepancy:
    """Seeded regression: the array version pins the old loop's output."""

    @pytest.mark.parametrize("seed", [0, 3, 9])
    @pytest.mark.parametrize("relative", [False, True])
    def test_matches_reference_loop(self, seed, relative):
        graph = flickr_like(n=50, avg_degree=10, seed=seed)
        sparsified = make_sparsified(graph, keep_fraction=0.4)
        fast = degree_discrepancy_vector(graph, sparsified, relative=relative)
        slow = loop_degree_discrepancy(graph, sparsified, relative=relative)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_reindexed_vertex_order(self, triangle):
        # Same vertex set, different insertion order: the slow mapping
        # branch must still align with the *original* indexer.
        shuffled = UncertainGraph(
            [("c", "b", 0.25), ("a", "b", 0.5)], vertices=["c", "b", "a"]
        )
        fast = degree_discrepancy_vector(triangle, shuffled)
        slow = loop_degree_discrepancy(triangle, shuffled)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_empty_sparsified(self, triangle):
        empty = UncertainGraph(vertices=triangle.vertices())
        fast = degree_discrepancy_vector(triangle, empty)
        assert np.allclose(fast, triangle.expected_degree_array())


class TestDiscrepancyFunctions:
    def test_identity_has_zero_discrepancy(self, triangle):
        deltas = degree_discrepancy_vector(triangle, triangle)
        assert np.allclose(deltas, 0.0)
        assert delta_1(triangle, triangle) == 0.0
        assert d1_objective(triangle, triangle) == 0.0

    def test_removing_edges_creates_positive_delta(self, triangle):
        sub = triangle.subgraph_with_edges([("a", "b", 0.5)])
        deltas = degree_discrepancy_vector(triangle, sub)
        assert np.all(deltas >= 0)
        assert delta_1(triangle, sub) == pytest.approx(2 * (0.25 + 1.0))

    def test_relative_variant_scales_by_degree(self, triangle):
        sub = triangle.subgraph_with_edges([("a", "b", 0.5)])
        absolute = degree_discrepancy_vector(triangle, sub)
        relative = degree_discrepancy_vector(triangle, sub, relative=True)
        indexer = triangle.vertex_indexer()
        for vertex, idx in indexer.items():
            d = triangle.expected_degree(vertex)
            assert relative[idx] == pytest.approx(absolute[idx] / d)

    def test_vertex_set_mismatch_raises(self, triangle):
        other = UncertainGraph([("a", "b", 0.5)])
        with pytest.raises(GraphError):
            degree_discrepancy_vector(triangle, other)

    def test_cut_discrepancy_singleton_is_degree_delta(self, triangle):
        sub = make_sparsified(triangle)
        expected = triangle.expected_degree("a") - sub.expected_degree("a")
        assert cut_discrepancy(triangle, sub, ["a"]) == pytest.approx(expected)

    def test_cut_discrepancy_relative(self, triangle):
        sub = make_sparsified(triangle)
        absolute = cut_discrepancy(triangle, sub, ["a", "b"])
        relative = cut_discrepancy(triangle, sub, ["a", "b"], relative=True)
        assert relative == pytest.approx(
            absolute / triangle.expected_cut_size(["a", "b"])
        )

    def test_d1_is_sum_of_squares(self, triangle):
        sub = make_sparsified(triangle)
        deltas = degree_discrepancy_vector(triangle, sub)
        assert d1_objective(triangle, sub) == pytest.approx(float(np.sum(deltas**2)))


class TestSparsificationState:
    def test_initial_state_all_missing(self, triangle):
        state = SparsificationState(triangle)
        assert state.edge_count() == 0
        assert np.allclose(state.delta, state.original_degrees)
        assert state.total_residual == pytest.approx(
            triangle.expected_number_of_edges()
        )

    def test_select_all_edges_zero_delta(self, triangle):
        state = SparsificationState(triangle)
        for eid in range(state.m):
            state.select_edge(eid)
        assert np.allclose(state.delta, 0.0)
        assert state.total_residual == pytest.approx(0.0)
        state.verify()

    def test_select_with_custom_probability(self, triangle):
        state = SparsificationState(triangle)
        state.select_edge(0, probability=0.1)
        u, v = endpoints(state, 0)
        assert state.delta[u] == pytest.approx(state.original_degrees[u] - 0.1)
        state.verify()

    def test_double_select_raises(self, triangle):
        state = SparsificationState(triangle)
        state.select_edge(0)
        with pytest.raises(GraphError):
            state.select_edge(0)

    def test_deselect_returns_probability(self, triangle):
        state = SparsificationState(triangle)
        state.select_edge(0, probability=0.4)
        assert state.deselect_edge(0) == pytest.approx(0.4)
        assert not state.selected[0]
        state.verify()

    def test_deselect_unselected_raises(self, triangle):
        state = SparsificationState(triangle)
        with pytest.raises(GraphError):
            state.deselect_edge(0)

    def test_set_probability_updates_delta(self, triangle):
        state = SparsificationState(triangle)
        state.select_edge(0)
        u, v = endpoints(state, 0)
        before_u = state.delta[u]
        old_p = state.phat[0]
        state.set_probability(0, 1.0)
        assert state.delta[u] == pytest.approx(before_u - (1.0 - old_p))
        state.verify()

    def test_set_probability_unselected_raises(self, triangle):
        state = SparsificationState(triangle)
        with pytest.raises(GraphError):
            state.set_probability(0, 0.5)

    def test_residual_excluding_matches_bruteforce(self, small_power_law):
        state = SparsificationState(small_power_law)
        rng = np.random.default_rng(3)
        chosen = rng.choice(state.m, size=state.m // 2, replace=False)
        for eid in chosen:
            state.select_edge(int(eid), probability=float(rng.uniform(0.1, 1.0)))
        for eid in [0, int(chosen[0]), state.m - 1]:
            u, v = endpoints(state, eid)
            brute = 0.0
            for other in range(state.m):
                ou, ov = endpoints(state, other)
                if ou in (u, v) or ov in (u, v):
                    continue
                brute += state.p_original[other] - state.phat[other]
            assert residual_excluding(state, eid) == pytest.approx(brute)

    def test_residual_excluding_edge_only(self, triangle):
        state = SparsificationState(triangle)
        state.select_edge(0, probability=0.2)
        expected = state.total_residual - (state.p_original[0] - 0.2)
        assert residual_excluding_edge_only(state, 0) == pytest.approx(expected)

    def test_d1_matches_function(self, small_power_law):
        state = SparsificationState(small_power_law)
        for eid in range(0, state.m, 2):
            state.select_edge(eid)
        built = state.build_graph()
        assert state.d1() == pytest.approx(
            d1_objective(small_power_law, built), rel=1e-6
        )

    def test_d1_relative_matches_function(self, small_power_law):
        state = SparsificationState(small_power_law)
        for eid in range(0, state.m, 3):
            state.select_edge(eid)
        built = state.build_graph()
        assert state.d1(relative=True) == pytest.approx(
            d1_objective(small_power_law, built, relative=True), rel=1e-6
        )

    def test_build_graph_budget(self, small_power_law):
        state = SparsificationState(small_power_law)
        ids = list(range(0, state.m, 4))
        for eid in ids:
            state.select_edge(eid)
        built = state.build_graph()
        assert built.number_of_edges() == len(ids)
        assert set(built.vertices()) == set(small_power_law.vertices())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_state_invariants_after_random_ops(seed):
    graph = flickr_like(n=30, avg_degree=6, seed=seed % 7)
    state = SparsificationState(graph)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        eid = int(rng.integers(0, state.m))
        if state.selected[eid]:
            if rng.random() < 0.5:
                state.deselect_edge(eid)
            else:
                state.set_probability(eid, float(rng.uniform(0, 1)))
        else:
            state.select_edge(eid, probability=float(rng.uniform(0, 1)))
        # The vectorised verify is cheap enough to run on every step of
        # every example.
        state.verify()


class TestCSRIncidence:
    """The oracles' incidence CSR (``oracles.incidence``), which the
    state no longer builds, against a brute-force walk."""

    def test_matches_bruteforce_incidence(self, small_power_law):
        state = SparsificationState(small_power_law)
        incidence = Incidence(state)
        brute: dict[int, list[int]] = {v: [] for v in range(state.n)}
        for eid in range(state.m):
            u, v = endpoints(state, eid)
            brute[u].append(eid)
            brute[v].append(eid)
        for vertex in range(state.n):
            got = incidence.incident_edges(vertex).tolist()
            assert got == brute[vertex]  # ascending edge ids per vertex

    def test_indptr_shape_and_total(self, triangle):
        state = SparsificationState(triangle)
        incidence = Incidence(state)
        assert len(incidence.inc_indptr) == state.n + 1
        assert incidence.inc_indptr[-1] == 2 * state.m
        assert len(incidence.inc_eids) == 2 * state.m

    def test_incidence_is_read_only(self, triangle):
        incidence = Incidence(SparsificationState(triangle))
        with pytest.raises(ValueError):
            incidence.inc_eids[0] = 99


class TestBatchedPrimitives:
    def test_select_edges_matches_scalar_selects(self, small_power_law):
        batched = SparsificationState(small_power_law)
        scalar = SparsificationState(small_power_law)
        rng = np.random.default_rng(0)
        eids = rng.choice(batched.m, size=batched.m // 3, replace=False)
        batched.select_edges(eids)
        for eid in eids:
            scalar.select_edge(int(eid))
        assert np.array_equal(batched.selected, scalar.selected)
        assert np.allclose(batched.phat, scalar.phat, atol=0)
        assert np.allclose(batched.delta, scalar.delta, atol=1e-12)
        batched.verify()

    def test_select_edges_with_probabilities(self, triangle):
        state = SparsificationState(triangle)
        state.select_edges(np.array([0, 2]), probabilities=np.array([0.25, 0.75]))
        assert state.phat[0] == 0.25 and state.phat[2] == 0.75
        assert not state.selected[1]
        state.verify()

    def test_select_edges_rejects_shape_mismatch(self, triangle):
        state = SparsificationState(triangle)
        with pytest.raises(GraphError):
            state.select_edges(np.array([0, 1, 2]), probabilities=np.array([0.4]))

    def test_select_edges_rejects_duplicates(self, triangle):
        state = SparsificationState(triangle)
        with pytest.raises(GraphError):
            state.select_edges(np.array([0, 0]))

    def test_select_edges_rejects_already_selected(self, triangle):
        state = SparsificationState(triangle)
        state.select_edge(0)
        with pytest.raises(GraphError):
            state.select_edges(np.array([0, 1]))

    def test_snapshot_restore_roundtrip(self, small_power_law):
        state = SparsificationState(small_power_law)
        state.select_edges(np.arange(0, state.m, 2))
        snap = state.snapshot()
        reference = (
            state.phat.copy(), state.selected.copy(), state.delta.copy(),
            state.total_residual, state.d1(),
        )
        apply_probability_vector(
            state,
            np.arange(0, state.m, 2),
            np.full(len(np.arange(0, state.m, 2)), 0.5),
        )
        state.deselect_edge(0)
        state.restore(snap)
        assert np.array_equal(state.phat, reference[0])
        assert np.array_equal(state.selected, reference[1])
        assert np.array_equal(state.delta, reference[2])
        assert state.total_residual == reference[3]
        assert state.d1() == reference[4]
        state.verify()


class TestVerify:
    def test_verify_detects_delta_corruption(self, triangle):
        state = SparsificationState(triangle)
        state.select_edge(0)
        state.delta[0] += 1.0
        with pytest.raises(AssertionError):
            state.verify()

    def test_verify_detects_residual_corruption(self, triangle):
        state = SparsificationState(triangle)
        state.select_edge(0)
        state.total_residual += 1.0
        with pytest.raises(AssertionError):
            state.verify()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_mixed_scalar_and_batched_ops(seed):
    """Randomised select/deselect/set_probability + batched updates keep
    the CSR state's invariants (verify() on every hypothesis example)."""
    graph = flickr_like(n=30, avg_degree=6, seed=seed % 5)
    state = SparsificationState(graph)
    rng = np.random.default_rng(seed)
    for _ in range(60):
        roll = rng.random()
        if roll < 0.5:
            eid = int(rng.integers(0, state.m))
            if state.selected[eid]:
                if rng.random() < 0.5:
                    state.deselect_edge(eid)
                else:
                    state.set_probability(eid, float(rng.uniform(0, 1)))
            else:
                state.select_edge(eid, probability=float(rng.uniform(0, 1)))
        elif roll < 0.75:
            unselected = np.flatnonzero(~state.selected)
            if len(unselected):
                take = rng.choice(
                    unselected,
                    size=int(rng.integers(1, min(8, len(unselected)) + 1)),
                    replace=False,
                )
                state.select_edges(take, probabilities=rng.uniform(0, 1, len(take)))
        else:
            selected = np.flatnonzero(state.selected)
            if len(selected):
                take = rng.choice(
                    selected,
                    size=int(rng.integers(1, min(8, len(selected)) + 1)),
                    replace=False,
                )
                apply_probability_vector(
                    state, take, rng.uniform(0.01, 1, len(take))
                )
    state.verify()
