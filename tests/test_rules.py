"""The scalar update rules of the GDB reference (``oracles.rules``):
Eq. 8/9 (degrees), Eq. 13-15 (cuts), Eq. 16 (k = n)."""

import numpy as np
import pytest

from oracles.rules import (
    cut_step,
    degree_step_absolute,
    degree_step_absolute_array,
    degree_step_relative,
    degree_step_relative_array,
    endpoints,
    full_redistribution_step,
    make_rule,
    residual_excluding,
    residual_excluding_edge_only,
)
from repro.core import SparsificationState, UncertainGraph


@pytest.fixture
def seeded_state(small_power_law):
    state = SparsificationState(small_power_law)
    for eid in range(0, state.m, 2):
        state.select_edge(eid)
    return state


def test_absolute_step_is_mean_of_endpoint_deltas(seeded_state):
    for eid in (0, 2, 4):
        u, v = endpoints(seeded_state, eid)
        expected = 0.5 * (seeded_state.delta[u] + seeded_state.delta[v])
        assert degree_step_absolute(seeded_state, eid) == pytest.approx(expected)


def test_relative_step_weights_by_original_degree(seeded_state):
    for eid in (0, 2):
        u, v = endpoints(seeded_state, eid)
        pi_u = seeded_state.original_degrees[u]
        pi_v = seeded_state.original_degrees[v]
        expected = (
            pi_v * seeded_state.delta[u] + pi_u * seeded_state.delta[v]
        ) / (pi_u + pi_v)
        assert degree_step_relative(seeded_state, eid) == pytest.approx(expected)


def test_cut_step_k1_equals_absolute_step(seeded_state):
    for eid in (0, 2, 4, 6):
        assert cut_step(seeded_state, eid, 1) == pytest.approx(
            degree_step_absolute(seeded_state, eid)
        )


def test_cut_step_k2_matches_equation_15(seeded_state):
    n = seeded_state.n
    for eid in (0, 2):
        u, v = endpoints(seeded_state, eid)
        expected = (
            (n - 2) * (seeded_state.delta[u] + seeded_state.delta[v])
            + 4 * residual_excluding(seeded_state, eid)
        ) / (2 * n - 2)
        assert cut_step(seeded_state, eid, 2) == pytest.approx(expected)


def test_full_step_is_remaining_residual(seeded_state):
    for eid in (0, 1):
        assert full_redistribution_step(seeded_state, eid) == pytest.approx(
            residual_excluding_edge_only(seeded_state, eid)
        )


def test_step_zero_when_graph_fully_preserved(small_power_law):
    state = SparsificationState(small_power_law)
    for eid in range(state.m):
        state.select_edge(eid)
    assert degree_step_absolute(state, 0) == pytest.approx(0.0)
    assert degree_step_relative(state, 0) == pytest.approx(0.0)
    assert cut_step(state, 0, 2) == pytest.approx(0.0, abs=1e-9)
    assert full_redistribution_step(state, 0) == pytest.approx(0.0, abs=1e-9)


class TestMakeRule:
    def test_k1_absolute(self, seeded_state):
        rule = make_rule(1, relative=False, n=seeded_state.n)
        assert rule is degree_step_absolute

    def test_k1_relative(self, seeded_state):
        rule = make_rule(1, relative=True, n=seeded_state.n)
        assert rule is degree_step_relative

    def test_string_n(self, seeded_state):
        rule = make_rule("n", relative=False, n=seeded_state.n)
        assert rule is full_redistribution_step

    def test_k_at_least_n_becomes_full(self, seeded_state):
        rule = make_rule(seeded_state.n + 1, relative=False, n=seeded_state.n)
        assert rule is full_redistribution_step

    def test_k2_wraps_cut_step(self, seeded_state):
        rule = make_rule(2, relative=False, n=seeded_state.n)
        assert rule(seeded_state, 0) == pytest.approx(cut_step(seeded_state, 0, 2))

    def test_relative_only_for_k1(self, seeded_state):
        with pytest.raises(ValueError):
            make_rule(2, relative=True, n=seeded_state.n)

    def test_invalid_k(self, seeded_state):
        with pytest.raises(ValueError):
            make_rule(0, relative=False, n=seeded_state.n)
        with pytest.raises(ValueError):
            make_rule("x", relative=False, n=seeded_state.n)


def test_optimal_step_zeroes_endpoint_gradient():
    """Applying the k=1 step makes delta(u) + delta(v) vanish (Eq. 8)."""
    g = UncertainGraph([(0, 1, 0.3), (1, 2, 0.4), (2, 0, 0.5), (0, 3, 0.6)])
    state = SparsificationState(g)
    state.select_edge(0, probability=0.3)
    step = degree_step_absolute(state, 0)
    state.set_probability(0, np.clip(0.3 + step, 0, 1))
    u, v = endpoints(state, 0)
    if 0 <= 0.3 + step <= 1:  # unclamped case: gradient must vanish
        assert state.delta[u] + state.delta[v] == pytest.approx(0.0, abs=1e-12)


class TestArrayRules:
    """Every array rule of the colored-sweep oracle matches its scalar
    sibling element for element (exact float equality: the arithmetic is
    mirrored per edge)."""

    def all_eids(self, state):
        return np.arange(state.m)

    def test_absolute_array_matches_scalar(self, seeded_state):
        eids = self.all_eids(seeded_state)
        steps = degree_step_absolute_array(seeded_state, eids)
        for eid in eids:
            assert steps[eid] == degree_step_absolute(seeded_state, int(eid))

    def test_relative_array_matches_scalar(self, seeded_state):
        eids = self.all_eids(seeded_state)
        steps = degree_step_relative_array(seeded_state, eids)
        for eid in eids:
            assert steps[eid] == degree_step_relative(seeded_state, int(eid))
