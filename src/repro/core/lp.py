"""Optimal probability assignment by linear programming (paper section 4.1).

Theorem 1 shows that, for a fixed backbone with incidence matrix ``A_b``
and the original expected-degree vector ``d``, minimising the total
absolute degree discrepancy ``|d - A_b p'|`` over ``p' in (0, 1]`` is
equivalent to::

    maximise  sum_e p'_e
    subject to  A_b p' <= d,   0 <= p' <= 1

which any LP solver handles.  Two solvers are offered:

- ``solver="highs"`` — :func:`scipy.optimize.linprog` (HiGHS) on the
  sparse constraint matrix: the exact simplex/IPM reference.  The paper
  uses LP as the gold standard for Table 2 but dismisses it as too slow
  beyond toy graphs.
- ``solver="pdp"`` — a first-order **p**rimal-**d**ual **p**rojection
  method in the Li/Zhang/Roos family: diagonally preconditioned
  Chambolle-Pock iterations operating directly on the sparse incidence
  products ``A_b p'`` / ``A_b^T y``, with box projection of the primal
  onto ``[0, 1]``, non-negativity projection of the dual, a warm start
  from the expected-degree heuristic (every backbone edge at its
  original probability — a feasible point, since the original
  probabilities reproduce each vertex's backbone share of its expected
  degree), and duality-gap stopping at a configurable relative
  tolerance.  Each iteration costs two sparse mat-vecs, so the LP
  curves of fig04-08 become feasible at the 10k-1M edge scale the other
  sparsifiers reach.

The pdp solver always returns a *feasible* point: the iterate is
rescaled edge-wise onto ``A_b p' <= d`` before the objective is
measured, so Lemma 1 (sparsified expected degrees never exceed the
originals) holds for both solvers, and the reported duality gap is a
true bound on the distance to the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.core.gdb import _resolve_backbone
from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import SparsificationError

#: Solvers accepted by :func:`lp_assign_probabilities` / :func:`lp_sparsify`.
LP_SOLVERS = ("highs", "pdp")


def _validate_solver(solver: str) -> str:
    if solver not in LP_SOLVERS:
        raise ValueError(
            f"unknown LP solver {solver!r}; expected one of {LP_SOLVERS}"
        )
    return solver


def backbone_incidence(
    graph: UncertainGraph, backbone_ids: np.ndarray
) -> sparse.csr_matrix:
    """Sparse vertex-edge incidence ``A_b`` of a backbone (``n x m_b``).

    Column ``j`` has unit entries at both endpoints of
    ``backbone_ids[j]``.  Built with array ops: the endpoint gather
    supplies the row indices directly and every column index appears
    twice, so no per-edge Python loop is needed.
    """
    backbone_ids = np.asarray(backbone_ids, dtype=np.int64)
    n = graph.number_of_vertices()
    m_b = len(backbone_ids)
    if m_b == 0:
        return sparse.csr_matrix((n, 0), dtype=np.float64)
    rows = graph.edge_index_array()[backbone_ids].reshape(-1)
    cols = np.repeat(np.arange(m_b, dtype=np.int64), 2)
    data = np.ones(2 * m_b, dtype=np.float64)
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, m_b))


@dataclass
class PDPDiagnostics:
    """Convergence trace of the primal-dual projection solver.

    ``history`` rows are ``(iteration, best_primal, best_dual, gap)``
    recorded at every gap check; ``best_primal`` is the objective of the
    best *feasible* point seen so far (monotone non-decreasing) and
    ``best_dual`` the smallest dual bound (monotone non-increasing), so
    ``gap`` — their difference — is monotone non-increasing.
    """

    iterations: int = 0
    converged: bool = False
    gap: float = float("inf")
    primal_objective: float = 0.0
    dual_objective: float = float("inf")
    history: list = field(default_factory=list)


def _feasible_rescale(
    p: np.ndarray,
    products: np.ndarray,
    degrees: np.ndarray,
    endpoints: np.ndarray,
) -> np.ndarray:
    """Project an iterate onto ``A p <= d`` by edge-wise down-scaling.

    Every overloaded vertex ``v`` (``(A p)_v > d_v``) shrinks its
    incident edges by ``d_v / (A p)_v``; an edge takes the smaller of
    its two endpoint factors.  The result is feasible: summing the
    scaled edges at ``v`` gives at most ``(d_v / (A p)_v) (A p)_v``.
    """
    overloaded = products > degrees
    scale = np.where(
        overloaded, degrees / np.where(overloaded, products, 1.0), 1.0
    )
    return p * np.minimum(scale[endpoints[:, 0]], scale[endpoints[:, 1]])


def solve_pdp(
    incidence: sparse.csr_matrix,
    degrees: np.ndarray,
    endpoints: np.ndarray,
    warm_start: "np.ndarray | None" = None,
    tol: float = 1e-3,
    max_iterations: int = 20_000,
    check_every: int = 8,
    diagnostics: "PDPDiagnostics | None" = None,
) -> np.ndarray:
    """First-order solve of ``max 1'p  s.t.  A p <= d, 0 <= p <= 1``.

    Diagonally preconditioned Chambolle-Pock: with per-vertex dual steps
    ``sigma_v = 1 / row_count_v`` and per-edge primal step
    ``tau_e = 1/2`` (each column of ``A`` holds exactly two unit
    entries), the iteration

    - ``y <- max(0, y + sigma (A pbar - d))``  (projected dual ascent on
      the extrapolation ``pbar = 2 p - p_prev``),
    - ``p <- clip(p + tau (1 - A^T y), 0, 1)``  (projected primal step)

    converges for this step choice.  Every ``check_every`` iterations
    the duality gap between the best feasibility-rescaled primal value
    and the best dual bound ``y'd + sum_e max(0, 1 - (A^T y)_e)`` is
    evaluated; the solve stops when it drops to ``tol`` relative to the
    dual bound.

    Parameters
    ----------
    incidence:
        ``(n, m_b)`` sparse backbone incidence (``backbone_incidence``).
    degrees:
        Original expected degrees ``d`` (length ``n``).
    endpoints:
        ``(m_b, 2)`` dense endpoint ids of the backbone edges (used by
        the feasibility rescale).
    warm_start:
        Feasible-or-not initial primal point; clipped to the box.  When
        omitted the solve starts from zero.
    tol:
        Relative duality-gap tolerance.
    max_iterations:
        Iteration cap; exceeding it raises :class:`SparsificationError`.
    check_every:
        Gap-evaluation period (each check is O(n + m_b) array work).
    diagnostics:
        Optional :class:`PDPDiagnostics` filled with the convergence
        trace.

    Returns
    -------
    numpy.ndarray
        The best feasible primal point found (``A p <= d`` exactly,
        ``0 <= p <= 1``), with objective within ``tol`` of the optimum.
    """
    n, m_b = incidence.shape
    if m_b == 0:
        return np.zeros(0, dtype=np.float64)
    A = incidence.tocsr()
    At = A.T.tocsr()
    row_counts = np.diff(A.indptr)
    sigma = 1.0 / np.maximum(row_counts, 1)
    tau = 0.5

    p = (
        np.clip(np.asarray(warm_start, dtype=np.float64), 0.0, 1.0)
        if warm_start is not None
        else np.zeros(m_b, dtype=np.float64)
    )
    p_products = A @ p
    y = np.zeros(n, dtype=np.float64)

    best_p = _feasible_rescale(p, p_products, degrees, endpoints)
    best_primal = float(best_p.sum())
    best_dual = float(m_b)  # dual value at y = 0
    gap = best_dual - best_primal

    prev_products = p_products
    iteration = 0
    record = diagnostics.history.append if diagnostics is not None else None
    if record is not None:
        record((0, best_primal, best_dual, gap))
    converged = gap <= tol * max(1.0, abs(best_dual))
    while not converged and iteration < max_iterations:
        iteration += 1
        # Dual ascent on the extrapolated primal (A pbar = 2 Ap - Ap_prev).
        y += sigma * (2.0 * p_products - prev_products - degrees)
        np.maximum(y, 0.0, out=y)
        # Projected primal step.
        dual_products = At @ y
        p += tau * (1.0 - dual_products)
        np.clip(p, 0.0, 1.0, out=p)
        prev_products = p_products
        p_products = A @ p

        if iteration % check_every == 0 or iteration == max_iterations:
            dual_value = float(y @ degrees) + float(
                np.maximum(1.0 - dual_products, 0.0).sum()
            )
            feasible = _feasible_rescale(p, p_products, degrees, endpoints)
            primal_value = float(feasible.sum())
            if primal_value > best_primal:
                best_primal = primal_value
                best_p = feasible
            best_dual = min(best_dual, dual_value)
            gap = best_dual - best_primal
            if record is not None:
                record((iteration, best_primal, best_dual, gap))
            converged = gap <= tol * max(1.0, abs(best_dual))

    if diagnostics is not None:
        diagnostics.iterations = iteration
        diagnostics.converged = converged
        diagnostics.gap = gap
        diagnostics.primal_objective = best_primal
        diagnostics.dual_objective = best_dual
    if not converged:
        raise SparsificationError(
            f"pdp LP solver failed to reach gap {tol:g} within "
            f"{max_iterations} iterations (gap {gap:.3e})"
        )
    return np.clip(best_p, 0.0, 1.0)


def lp_assign_probabilities(
    graph: UncertainGraph,
    backbone_ids: "np.ndarray | list[int]",
    solver: str = "highs",
    tol: float = 1e-3,
    max_iterations: int = 20_000,
    warm_start: bool = True,
    diagnostics: "PDPDiagnostics | None" = None,
) -> np.ndarray:
    """Solve the Theorem-1 LP for a backbone; returns probabilities.

    The result is aligned with ``backbone_ids`` (a read-only int64 array
    from the backbone builders, or any integer sequence).

    Parameters
    ----------
    solver:
        ``"highs"`` (exact reference) or ``"pdp"`` (first-order
        primal-dual projection; see the module docstring).
    tol / max_iterations / warm_start:
        pdp-only knobs: relative duality-gap tolerance, iteration cap,
        and whether to start from the expected-degree heuristic (the
        original backbone probabilities — always feasible) instead of
        zero.  Ignored by ``"highs"``.
    diagnostics:
        Optional :class:`PDPDiagnostics` trace (pdp only).

    Raises
    ------
    SparsificationError
        If the solver fails (``p' = 0`` is always feasible, so HiGHS
        should not; pdp raises when the gap tolerance is unreachable
        within ``max_iterations``).
    """
    _validate_solver(solver)
    backbone_ids = np.asarray(backbone_ids, dtype=np.int64)
    if len(backbone_ids) == 0:
        return np.zeros(0, dtype=np.float64)
    incidence = backbone_incidence(graph, backbone_ids)
    degrees = graph.expected_degree_array()

    if solver == "pdp":
        endpoints = graph.edge_index_array()[backbone_ids]
        start = (
            np.asarray(graph.probability_array(), dtype=np.float64)[backbone_ids]
            if warm_start
            else None
        )
        return solve_pdp(
            incidence,
            degrees,
            endpoints,
            warm_start=start,
            tol=tol,
            max_iterations=max_iterations,
            diagnostics=diagnostics,
        )

    result = linprog(
        c=-np.ones(len(backbone_ids)),
        A_ub=incidence,
        b_ub=degrees,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not result.success:
        raise SparsificationError(f"LP solver failed: {result.message}")
    return np.clip(result.x, 0.0, 1.0)


def lp_sparsify(
    graph: UncertainGraph,
    alpha: float | None = None,
    backbone_ids: "np.ndarray | list[int] | None" = None,
    backbone_method: str = "bgi",
    rng: "int | np.random.Generator | None" = None,
    name: str = "",
    solver: str = "highs",
    tol: float = 1e-3,
    min_probability: float = 1e-9,
) -> UncertainGraph:
    """Sparsify by backbone construction + optimal LP assignment.

    Mirrors :func:`repro.core.gdb.gdb`'s interface plus the ``solver`` knob
    (``"highs"`` reference or the first-order ``"pdp"``, gap tolerance
    ``tol``).

    Section 3 requires ``p' in (0, 1]`` while the LP's box is
    ``[0, 1]``: probabilities the solver drives to zero are raised to
    ``min_probability`` so every backbone edge stays in the output and
    the edge budget ``|E'| = alpha |E|`` remains verifiable.  Callers
    that prefer dropping zero-probability edges can prune afterwards.
    """
    if not (0.0 < min_probability <= 1.0):
        raise ValueError(
            f"min_probability must be in (0, 1], got {min_probability}"
        )
    _validate_solver(solver)
    backbone_ids = _resolve_backbone(
        graph, alpha, backbone_ids, backbone_method, rng
    )
    probabilities = lp_assign_probabilities(
        graph, backbone_ids, solver=solver, tol=tol
    )
    label = name or f"lp({graph.name})"
    return UncertainGraph.from_edge_arrays(
        graph.vertices(),
        graph.edge_index_array()[backbone_ids],
        np.maximum(probabilities, min_probability),
        name=label,
    )
