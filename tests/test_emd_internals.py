"""EMD's scalar reference: insertion probability (Eq. 9) and gain (Eq. 10)."""

import numpy as np
import pytest

from oracles.emd import best_probability, gain
from oracles.incidence import Incidence
from oracles.rules import endpoints
from repro.core import SparsificationState, UncertainGraph


@pytest.fixture
def state():
    g = UncertainGraph(
        [(0, 1, 0.4), (1, 2, 0.2), (2, 3, 0.4), (3, 0, 0.2), (0, 2, 0.1)]
    )
    return SparsificationState(g)


def test_gain_formula_by_hand(state):
    """g = du^2 - (du - w)^2 + dv^2 - (dv - w)^2 at the current deltas."""
    eid = 0
    u, v = endpoints(state, eid)
    du, dv = float(state.delta[u]), float(state.delta[v])
    w = 0.3
    expected = du**2 - (du - w) ** 2 + dv**2 - (dv - w) ** 2
    assert gain(state, eid, w) == pytest.approx(expected)


def test_gain_zero_probability_is_zero(state):
    assert gain(state, 0, 0.0) == 0.0


def test_gain_positive_when_demand_exists(state):
    # All edges absent: every endpoint has positive delta, so inserting
    # any edge at a moderate probability improves D1.
    assert gain(state, 0, 0.2) > 0.0


def test_gain_negative_when_oversatisfied(state):
    # Saturate vertex 0's edges, making its delta negative.
    for eid in range(state.m):
        u, v = endpoints(state, eid)
        if 0 in (u, v):
            state.select_edge(eid, probability=1.0)
    remaining = [e for e in range(state.m) if not state.selected[e]]
    # Pick a remaining edge and force it onto vertex 0? None touch 0 now;
    # instead deselect one and re-insert at a probability far above demand.
    eid = int(Incidence(state).incident_edges(0)[0])
    state.deselect_edge(eid)
    assert gain(state, eid, 1.0) < gain(state, eid, 0.1)


def test_best_probability_is_clamped(state):
    for eid in range(state.m):
        w = best_probability(state, eid, h=0.05, relative=False)
        assert 0.0 <= w <= 1.0


def test_best_probability_zero_when_no_demand(state):
    """Negative step (oversatisfied endpoints) clamps to zero."""
    for eid in range(state.m):
        state.select_edge(eid, probability=1.0)
    eid = 0
    state.deselect_edge(eid)
    u, v = endpoints(state, eid)
    # Both endpoints now carry more probability than their targets
    # (edges saturated at 1 vs original p <= 0.4), so delta < 0 and the
    # optimal insertion probability is 0.
    assert state.delta[u] < 0 and state.delta[v] < 0
    assert best_probability(state, eid, h=1.0, relative=False) == 0.0


def test_best_probability_entropy_guard_uses_original(state):
    """An insertion landing at higher entropy than the edge's original
    probability restarts from the original with an h-scaled step."""
    eid = 0  # original p = 0.4
    original = float(state.p_original[eid])
    # Current deltas are the full expected degrees -> large step -> the
    # optimum exceeds H(0.4)'s entropy region or clamps at 1.
    full = best_probability(state, eid, h=1.0, relative=False)
    damped = best_probability(state, eid, h=0.0, relative=False)
    if full < 1.0:
        # With h = 0 the guard (if triggered) pins the value at the
        # original probability.
        assert damped in (pytest.approx(original), pytest.approx(full))


def test_relative_flag_changes_step(state):
    # Select one edge so deltas differ between endpoints of others.
    state.select_edge(1, probability=0.9)
    absolute = best_probability(state, 0, h=1.0, relative=False)
    relative = best_probability(state, 0, h=1.0, relative=True)
    # Different pi-weights -> generally different insertion probability.
    assert absolute != pytest.approx(relative) or absolute in (0.0, 1.0)
