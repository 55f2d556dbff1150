"""Gradient-descent probability update rules (paper sections 4.2 and 5).

Each rule returns the *unclamped* optimal step ``stp`` for one edge given
the current :class:`~repro.core.discrepancy.SparsificationState`; GDB
applies clamping to ``[0, 1]`` and the entropy attenuation (Eq. 9 / 14).
The sweeps of :mod:`repro.core.sweep` and EMD's vectorised candidate scan
inline the same arithmetic on arrays.

Rules
-----
- ``k = 1`` absolute (Eq. 8 with ``pi = 1``): ``stp = (delta(u) + delta(v)) / 2``.
- ``k = 1`` relative (Eq. 8 with ``pi(u) = C_G(u)``, the original expected
  degree): ``stp = (pi(v) delta(u) + pi(u) delta(v)) / (pi(u) + pi(v))``.
  The paper states this closed form directly; it is implemented as written.
- general ``k`` (Eq. 13/14): weights the endpoint degree discrepancies
  against the global residual of non-incident edges with the
  Sigma-binomial coefficients of :func:`repro.utils.binomials.cut_rule_coefficients`.
  ``k = 1`` and ``k = 2`` collapse to Eq. (9) and Eq. (15) exactly.
- ``k = n`` (Eq. 16): redistribute the full remaining residual to each
  edge ("random probability reassignment").
"""

from __future__ import annotations

import numpy as np

from repro.core.discrepancy import SparsificationState
from repro.utils.binomials import cut_rule_coefficients


def endpoints(state: SparsificationState, eid: int) -> tuple[int, int]:
    """Dense integer endpoints of edge ``eid``."""
    u, v = state.edge_vertices[eid]
    return int(u), int(v)


def residual_excluding(state: SparsificationState, eid: int) -> float:
    """``Delta-hat(e)``: global residual over edges touching neither endpoint.

    This is the term of Eq. (13): ``sum_{(u1,v1): u1 != u0, v1 != v0}
    (p - phat)``.  Computed as the total residual minus the residual
    of all edges incident to either endpoint — which equals
    ``delta[u] + delta[v]`` minus the doubly-counted edge ``e``
    itself.
    """
    u, v = endpoints(state, eid)
    edge_residual = state.p_original[eid] - state.phat[eid]
    incident_residual = state.delta[u] + state.delta[v] - edge_residual
    return state.total_residual - incident_residual


def residual_excluding_edge_only(state: SparsificationState, eid: int) -> float:
    """Global residual over all edges except ``e`` (the k = n rule, Eq. 16)."""
    return state.total_residual - (state.p_original[eid] - state.phat[eid])


def degree_step_absolute(state: SparsificationState, eid: int) -> float:
    """Eq. (8) with absolute discrepancy: the mean endpoint discrepancy."""
    u, v = endpoints(state, eid)
    return 0.5 * (float(state.delta[u]) + float(state.delta[v]))


def degree_step_relative(state: SparsificationState, eid: int) -> float:
    """Eq. (8) with relative discrepancy: ``pi(u) = C_G(u)``.

    Endpoints of an edge always have positive original expected degree
    (they are incident to at least this edge), so the denominator is
    positive.
    """
    u, v = endpoints(state, eid)
    pi_u = float(state.original_degrees[u])
    pi_v = float(state.original_degrees[v])
    denominator = pi_u + pi_v
    if denominator <= 0.0:
        return 0.0
    return (pi_v * float(state.delta[u]) + pi_u * float(state.delta[v])) / denominator


def cut_step(state: SparsificationState, eid: int, k: int) -> float:
    """Eq. (13)/(14): optimal step preserving expected cuts up to size ``k``.

    ``stp = degree_coeff * (delta(u) + delta(v)) + global_coeff * Delta-hat(e)``

    where ``Delta-hat(e)`` is the residual probability mass of edges
    touching neither endpoint (see
    :func:`residual_excluding`).
    """
    degree_coeff, global_coeff = cut_rule_coefficients(state.n, k)
    u, v = endpoints(state, eid)
    step = degree_coeff * (float(state.delta[u]) + float(state.delta[v]))
    if global_coeff != 0.0:
        step += global_coeff * residual_excluding(state, eid)
    return step


def full_redistribution_step(state: SparsificationState, eid: int) -> float:
    """Eq. (16), the ``k = n`` special case.

    Pushes the whole remaining residual (cumulative probability of the
    eliminated and under-weighted edges, excluding this edge's own
    residual) onto the edge; clamping in GDB then saturates edges at 1
    until the residual is absorbed.
    """
    return residual_excluding_edge_only(state, eid)


def make_rule(k: int | str, relative: bool, n: int):
    """Build a ``(state, eid) -> stp`` callable for a variant.

    Parameters
    ----------
    k:
        ``1`` / ``2`` / any int ``>= 1``, or the string ``"n"`` for the
        full-redistribution rule (Eq. 16).
    relative:
        Minimise relative instead of absolute discrepancy (only
        meaningful for ``k = 1``; the paper's cut rules of section 5 are
        derived for ``delta_A``).
    n:
        Number of vertices (validates ``k`` against the graph size).
    """
    if k == "n":
        return full_redistribution_step
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive int or 'n', got {k!r}")
    if k >= n:
        return full_redistribution_step
    if relative:
        if k != 1:
            raise ValueError("the relative-discrepancy rule is defined for k = 1 only")
        return degree_step_relative
    if k == 1:
        return degree_step_absolute

    def rule(state: SparsificationState, eid: int) -> float:
        return cut_step(state, eid, k)

    return rule


def degree_step_absolute_array(state, eids):
    """Eq. (8), absolute: mean endpoint discrepancy for every ``eid``."""
    uv = state.edge_vertices[eids]
    return 0.5 * (state.delta[uv[:, 0]] + state.delta[uv[:, 1]])


def degree_step_relative_array(state, eids):
    """Eq. (8), relative: degree-weighted endpoint discrepancies."""
    uv = state.edge_vertices[eids]
    pi_u = state.original_degrees[uv[:, 0]]
    pi_v = state.original_degrees[uv[:, 1]]
    denominator = pi_u + pi_v
    steps = pi_v * state.delta[uv[:, 0]] + pi_u * state.delta[uv[:, 1]]
    return np.where(denominator > 0.0, steps / np.where(denominator > 0.0, denominator, 1.0), 0.0)
