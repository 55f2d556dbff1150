"""LP probability assignment (Theorem 1), solved by HiGHS."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.lp as lp_module
from repro.core import (
    UncertainGraph,
    d1_objective,
    gdb,
    lp_assign_probabilities,
    lp_sparsify,
    sparsify,
)
from repro.core.backbone import bgi_backbone, target_edge_count
from repro.core.gdb import GDBConfig
from repro.core.lp import backbone_incidence
from repro.datasets import erdos_renyi_uncertain, figure1_graph
from repro.exceptions import SparsificationError


def test_empty_backbone_gives_empty_assignment(small_power_law):
    assert len(lp_assign_probabilities(small_power_law, [])) == 0


def test_probabilities_within_bounds(small_power_law):
    ids = bgi_backbone(small_power_law, 0.4, rng=0)
    probs = lp_assign_probabilities(small_power_law, list(ids))
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


def test_degree_constraints_respected(small_power_law):
    """LP solutions never exceed the original expected degrees (Lemma 1)."""
    ids = bgi_backbone(small_power_law, 0.4, rng=0)
    sparsified = lp_sparsify(small_power_law, backbone_ids=list(ids))
    for vertex in small_power_law.vertices():
        assert sparsified.expected_degree(vertex) <= (
            small_power_law.expected_degree(vertex) + 1e-6
        )


def test_lp_at_least_as_good_as_gdb_same_backbone(small_power_law):
    """Theorem 1: LP is the optimal assignment for a fixed backbone."""
    ids = bgi_backbone(small_power_law, 0.3, rng=0)
    via_lp = lp_sparsify(small_power_law, backbone_ids=list(ids))
    via_gdb = gdb(
        small_power_law, backbone_ids=list(ids), config=GDBConfig(h=1.0)
    )
    lp_objective = d1_objective(small_power_law, via_lp)
    # Compare Delta_1 (the LP's true objective is the absolute sum).
    from repro.core import delta_1

    assert delta_1(small_power_law, via_lp) <= (
        delta_1(small_power_law, via_gdb) + 1e-6
    )
    assert lp_objective >= 0.0


def test_budget_and_interface(small_power_law):
    sparsified = lp_sparsify(small_power_law, alpha=0.4, rng=0)
    assert sparsified.number_of_edges() == target_edge_count(
        small_power_law.number_of_edges(), 0.4
    )
    with pytest.raises(ValueError):
        lp_sparsify(small_power_law)
    with pytest.raises(ValueError):
        lp_sparsify(small_power_law, alpha=0.4, backbone_ids=[0])


def test_exact_on_solvable_instance():
    """A star whose backbone can match degrees exactly: LP finds it."""
    g = UncertainGraph([(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5), (0, 4, 0.5)])
    # Keep two edges; optimum puts p = 1 on both to cover the centre's
    # degree of 2.0 (leaves saturate at their bound 1 >= 0.5... the LP
    # maximises total mass subject to A p <= d, so each kept edge gets
    # min(1, leaf degree) = 0.5 and the centre is under-filled by 1.0.)
    probs = lp_assign_probabilities(g, [0, 1])
    assert np.all(probs <= 0.5 + 1e-9)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)


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


@pytest.mark.parametrize("ids", [
    pytest.param([-1, 0], id="negative"),
    pytest.param([0.7, 1], id="fraction"),
    pytest.param(["m", 0], id="past-the-end"),
    pytest.param([0, 0], id="repeat"),
])
def test_backbone_incidence_checks_ids(small_power_law, ids):
    """``backbone_incidence`` refuses the ids ``lp_assign_probabilities``
    refuses, with the same message, instead of reading ``-1`` as the
    last edge or truncating ``0.7`` to edge 0."""
    m = small_power_law.number_of_edges()
    ids = [m if i == "m" else i for i in ids]
    with pytest.raises(ValueError) as assigned:
        lp_assign_probabilities(small_power_law, ids)
    with pytest.raises(ValueError) as built:
        backbone_incidence(small_power_law, ids)
    assert str(built.value) == str(assigned.value)
    assert str(built.value).startswith("backbone id ")


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    alpha=st.floats(min_value=0.3, max_value=0.7),
)
def test_property_lemma1_feasible_on_er(seed, alpha):
    """On random ER graphs and backbones the LP solution stays in the
    box and never raises an expected degree (Lemma 1)."""
    graph = erdos_renyi_uncertain(36, avg_degree=10, rng=seed % 5)
    ids = bgi_backbone(graph, alpha, rng=seed)
    probabilities = lp_assign_probabilities(graph, ids)
    assert np.all(probabilities >= 0.0) and np.all(probabilities <= 1.0)
    products = backbone_incidence(graph, ids) @ probabilities
    assert np.all(products <= graph.expected_degree_array() + 1e-9)


def test_solver_failure_carries_highs_message(small_power_law, monkeypatch):
    # ``lp_assign_probabilities`` imports ``linprog`` when called.
    monkeypatch.setattr(
        scipy.optimize, "linprog",
        lambda *args, **kwargs: SimpleNamespace(
            success=False, message="Iteration limit reached.", x=None
        ),
    )
    with pytest.raises(SparsificationError,
                       match="LP solver failed: Iteration limit reached."):
        lp_sparsify(small_power_law, alpha=0.4, rng=0)


def test_one_solver(small_power_law):
    """HiGHS is the only LP solver: nothing selects another."""
    for name in ("LP_SOLVERS", "PDPDiagnostics", "solve_pdp",
                 "_feasible_rescale", "_validate_solver"):
        assert not hasattr(lp_module, name), name
    ids = bgi_backbone(small_power_law, 0.4, rng=0)
    with pytest.raises(TypeError, match="solver"):
        lp_assign_probabilities(small_power_law, ids, solver="highs")
    with pytest.raises(TypeError, match="solver"):
        lp_sparsify(small_power_law, alpha=0.4, rng=0, solver="highs")
    with pytest.raises(TypeError, match="lp_solver"):
        sparsify(small_power_law, 0.4, variant="LP-t", rng=0,
                 lp_solver="highs")


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


def test_zero_probability_edges_survive_at_floor():
    """On K4(0.3) with a path backbone the LP forces the middle edge to
    zero (end edges saturate both shared vertices); the floor keeps it in
    the output so the budget stays exact."""
    graph = figure1_graph()
    ids = _path_backbone_ids(graph)
    probabilities = lp_assign_probabilities(graph, ids)
    assert float(probabilities.sum()) == pytest.approx(1.8, abs=5e-3)
    assert probabilities.min() <= 5e-3  # the squeezed middle edge

    sparsified = lp_sparsify(graph, backbone_ids=ids)
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
