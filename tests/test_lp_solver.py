"""Optimisation layer: pdp LP solver, NI-on-peels.

Two equivalence contracts introduced by the solver-grade layer:

- ``solver="pdp"`` reaches the HiGHS objective within its duality-gap
  tolerance and always returns a feasible point (Lemma 1 holds);
- NI on the peel plan is bit-identical to the scalar Algorithm 4
  (``oracles.ni``) and memoises its peel structure on a shared
  :class:`BackbonePlan`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.ni as ni_module
from oracles.ni import ni_core
from repro.baselines.ni import (
    integer_weights,
    ni_peel_structure,
    ni_sparsify,
)
from repro.core import UncertainGraph, lp_assign_probabilities, sparsify
from repro.core.backbone import BackbonePlan, bgi_backbone, target_edge_count
from repro.core.lp import (
    LP_SOLVERS,
    PDPDiagnostics,
    backbone_incidence,
    lp_sparsify,
    solve_pdp,
)
from repro.datasets import erdos_renyi_uncertain, figure1_graph

#: The pdp default relative duality-gap tolerance (see repro.core.lp).
PDP_TOL = 1e-3


# ----------------------------------------------------------------------
# pdp vs HiGHS: objective agreement, feasibility, diagnostics
# ----------------------------------------------------------------------
def _objectives(graph, alpha, seed=0, **pdp_kwargs):
    ids = bgi_backbone(graph, alpha, rng=seed)
    via_highs = lp_assign_probabilities(graph, ids, solver="highs")
    via_pdp = lp_assign_probabilities(graph, ids, solver="pdp", **pdp_kwargs)
    return ids, float(via_highs.sum()), via_pdp


def _assert_feasible(graph, backbone_ids, probabilities):
    assert np.all(probabilities >= 0.0) and np.all(probabilities <= 1.0)
    incidence = backbone_incidence(graph, np.asarray(backbone_ids))
    products = incidence @ probabilities
    assert np.all(products <= graph.expected_degree_array() + 1e-9)


def test_pdp_matches_highs_objective(small_power_law):
    ids, highs_obj, pdp = _objectives(small_power_law, 0.4)
    pdp_obj = float(pdp.sum())
    # pdp stops at a relative duality gap; it can only undershoot, and
    # by at most the tolerance (the dual bound dominates the optimum).
    assert pdp_obj <= highs_obj + 1e-6
    assert pdp_obj >= highs_obj - 3 * PDP_TOL * max(1.0, highs_obj)
    _assert_feasible(small_power_law, ids, pdp)


def test_pdp_matches_highs_on_sparse_proxy(small_sparse):
    ids, highs_obj, pdp = _objectives(small_sparse, 0.5, seed=3)
    assert float(pdp.sum()) == pytest.approx(
        highs_obj, rel=3 * PDP_TOL, abs=1e-6
    )
    _assert_feasible(small_sparse, ids, pdp)


def test_pdp_feasible_via_lemma1_degrees(small_power_law):
    """Sparsified expected degrees never exceed the originals (Lemma 1)."""
    sparsified = lp_sparsify(
        small_power_law, alpha=0.4, rng=0, solver="pdp"
    )
    for vertex in small_power_law.vertices():
        assert sparsified.expected_degree(vertex) <= (
            small_power_law.expected_degree(vertex) + 1e-6
        )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    alpha=st.floats(min_value=0.3, max_value=0.7),
)
def test_property_pdp_agrees_with_highs_on_er(seed, alpha):
    graph = erdos_renyi_uncertain(36, avg_degree=10, rng=seed % 5)
    ids, highs_obj, pdp = _objectives(graph, alpha, seed=seed)
    assert float(pdp.sum()) == pytest.approx(
        highs_obj, rel=3 * PDP_TOL, abs=1e-6
    )
    _assert_feasible(graph, ids, pdp)


def test_pdp_duality_gap_monotone(small_power_law):
    """best_primal never decreases, best_dual/gap never increase."""
    diagnostics = PDPDiagnostics()
    lp_assign_probabilities(
        small_power_law,
        bgi_backbone(small_power_law, 0.4, rng=0),
        solver="pdp",
        diagnostics=diagnostics,
    )
    assert diagnostics.converged
    assert diagnostics.iterations > 0
    assert len(diagnostics.history) >= 2
    iterations, primals, duals, gaps = zip(*diagnostics.history)
    assert list(iterations) == sorted(iterations)
    assert all(b >= a - 1e-12 for a, b in zip(primals, primals[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(duals, duals[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] == pytest.approx(diagnostics.gap)
    assert diagnostics.gap <= PDP_TOL * max(
        1.0, abs(diagnostics.dual_objective)
    )


def test_pdp_warm_start_invariance(small_power_law):
    """Warm and cold starts land on the same converged objective."""
    ids = bgi_backbone(small_power_law, 0.4, rng=0)
    warm = lp_assign_probabilities(
        small_power_law, ids, solver="pdp", warm_start=True
    )
    cold = lp_assign_probabilities(
        small_power_law, ids, solver="pdp", warm_start=False
    )
    # Each is within the gap tolerance of the optimum, hence of the other.
    assert float(warm.sum()) == pytest.approx(
        float(cold.sum()), rel=3 * PDP_TOL, abs=1e-6
    )
    _assert_feasible(small_power_law, ids, warm)
    _assert_feasible(small_power_law, ids, cold)


def test_solve_pdp_empty_backbone():
    from scipy import sparse

    empty = sparse.csr_matrix((4, 0), dtype=np.float64)
    result = solve_pdp(
        empty, np.ones(4), np.zeros((0, 2), dtype=np.int64)
    )
    assert result.shape == (0,)


def test_unknown_solver_rejected(small_power_law):
    assert LP_SOLVERS == ("highs", "pdp")
    with pytest.raises(ValueError, match="unknown LP solver"):
        lp_assign_probabilities(small_power_law, [0], solver="simplex")
    with pytest.raises(ValueError, match="unknown LP solver"):
        lp_sparsify(small_power_law, alpha=0.4, rng=0, solver="simplex")
    with pytest.raises(ValueError, match="unknown LP solver"):
        sparsify(small_power_law, 0.4, variant="LP-t", rng=0,
                 lp_solver="simplex")


def test_backbone_incidence_structure(path4):
    incidence = backbone_incidence(path4, np.array([0, 2]))
    assert incidence.shape == (4, 2)
    dense = incidence.toarray()
    # Each column has exactly two unit entries at the edge's endpoints.
    assert np.all(dense.sum(axis=0) == 2.0)
    edges = path4.edge_index_array()
    for j, eid in enumerate((0, 2)):
        assert dense[edges[eid, 0], j] == 1.0
        assert dense[edges[eid, 1], j] == 1.0


# ----------------------------------------------------------------------
# min_probability: the (0, 1] contract and the edge budget
# ----------------------------------------------------------------------
def _path_backbone_ids(graph):
    """Edge ids of the path u1-u2-u3-u4 inside the K4 figure-1 graph."""
    wanted = [
        frozenset(("u1", "u2")),
        frozenset(("u2", "u3")),
        frozenset(("u3", "u4")),
    ]
    by_pair = {
        frozenset(edge[:2]): eid for eid, edge in enumerate(graph.edge_list())
    }
    return [by_pair[pair] for pair in wanted]


@pytest.mark.parametrize("solver", LP_SOLVERS)
def test_zero_probability_edges_survive_at_floor(solver):
    """On K4(0.3) with a path backbone the LP forces the middle edge to
    zero (end edges saturate both shared vertices); the floor keeps it in
    the output so the budget stays exact."""
    graph = figure1_graph()
    ids = _path_backbone_ids(graph)
    probabilities = lp_assign_probabilities(graph, ids, solver=solver)
    assert float(probabilities.sum()) == pytest.approx(1.8, abs=5e-3)
    assert probabilities.min() <= 5e-3  # the squeezed middle edge

    sparsified = lp_sparsify(graph, backbone_ids=ids, solver=solver)
    assert sparsified.number_of_edges() == len(ids)
    for _, _, p in sparsified.edges():
        assert p >= 1e-9


def test_min_probability_floor_applied(small_power_law):
    floor = 0.37
    sparsified = lp_sparsify(
        small_power_law, alpha=0.4, rng=0, min_probability=floor
    )
    assert sparsified.number_of_edges() == target_edge_count(
        small_power_law.number_of_edges(), 0.4
    )
    assert all(p >= floor for _, _, p in sparsified.edges())


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
def test_min_probability_validated(small_power_law, bad):
    with pytest.raises(ValueError, match="min_probability"):
        lp_sparsify(
            small_power_law, alpha=0.4, rng=0, min_probability=bad
        )


# ----------------------------------------------------------------------
# NI on peels: bit-identity with the scalar Algorithm 4 + plan memoisation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alpha", [0.25, 0.5])
@pytest.mark.parametrize("seed", [1, 42])
def test_ni_plan_bit_identical_to_legacy(small_power_law, alpha, seed,
                                         monkeypatch):
    """The whole calibrated NI, once with every calibration step on the
    peel plan and once with each step re-peeling scalar forests."""
    planned = ni_sparsify(small_power_law, alpha, rng=seed)
    edge_vertices = small_power_law.edge_index_array()
    monkeypatch.setattr(
        ni_module, "ni_core_planned",
        lambda n, weights, structure, epsilon, rng: ni_core(
            n, edge_vertices, weights, epsilon, rng
        ),
    )
    legacy = ni_sparsify(small_power_law, alpha, rng=seed)
    assert list(planned.edges()) == list(legacy.edges())


def test_ni_memoises_peel_structure_on_plan(small_power_law):
    first = ni_sparsify(small_power_law, 0.4, rng=7)
    plan = BackbonePlan.of(small_power_law)
    key = ("ni_peel", 128)
    assert key in plan._cache
    structure = plan._cache[key]
    second = ni_sparsify(small_power_law, 0.5, rng=7)
    # The second alpha reuses the memoised structure object untouched.
    assert BackbonePlan.of(small_power_law) is plan
    assert plan._cache[key] is structure
    assert first.number_of_edges() < second.number_of_edges()


def test_ni_plan_seed_stream_matches_planless(small_power_law):
    """The graph's warm plan must not change the output for a seed."""
    ni_sparsify(small_power_law, 0.25, rng=9)
    with_plan = ni_sparsify(small_power_law, 0.4, rng=3)
    without = ni_sparsify(small_power_law.copy(), 0.4, rng=3)
    assert list(with_plan.edges()) == list(without.edges())


def test_ni_rejects_bad_peeler_and_foreign_plan(small_power_law, small_sparse):
    # One peeler and one plan per graph: there is none to pick.
    for peeler in ("recursive", "plan", "legacy"):
        with pytest.raises(TypeError, match="peeler"):
            ni_sparsify(small_power_law, 0.4, rng=0, peeler=peeler)
    with pytest.raises(TypeError, match="backbone_plan"):
        ni_sparsify(
            small_power_law, 0.4, rng=0,
            backbone_plan=BackbonePlan(small_sparse),
        )


def test_ni_peel_structure_covers_every_edge(small_sparse):
    edge_vertices = small_sparse.edge_index_array()
    weights, _ = integer_weights(
        np.array(small_sparse.probability_array()), max_weight=32
    )
    order, rounds = ni_peel_structure(
        small_sparse.number_of_vertices(), edge_vertices, weights
    )
    m = small_sparse.number_of_edges()
    # Every edge exhausts exactly once, in non-decreasing round order,
    # and never before its quantised weight allows.
    assert sorted(order.tolist()) == list(range(m))
    assert np.all(np.diff(rounds) >= 0)
    assert np.all(rounds >= weights[order])
    assert not order.flags.writeable and not rounds.flags.writeable


def test_ni_peel_structure_trivial_graphs():
    lone = UncertainGraph([(0, 1, 0.5)])
    weights, _ = integer_weights(
        np.array(lone.probability_array()), max_weight=8
    )
    order, rounds = ni_peel_structure(2, lone.edge_index_array(), weights)
    assert order.tolist() == [0]
    assert rounds.tolist() == [int(weights[0])]


def test_sparsify_facade_accepts_plan_for_ni(small_power_law):
    out = sparsify(small_power_law, 0.4, variant="NI", rng=2)
    assert out.number_of_edges() == target_edge_count(
        small_power_law.number_of_edges(), 0.4
    )
    assert ("ni_peel", 128) in BackbonePlan.of(small_power_law)._cache
    # No variant takes a plan: the graph's own is the only one.
    with pytest.raises(TypeError, match="backbone_plan"):
        sparsify(small_power_law, 0.4, variant="NI", rng=2,
                 backbone_plan=BackbonePlan(small_power_law))
