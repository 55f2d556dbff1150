"""Optimal probability assignment by linear programming (paper section 4.1).

Theorem 1 shows that, for a fixed backbone with incidence matrix ``A_b``
and the original expected-degree vector ``d``, minimising the total
absolute degree discrepancy ``|d - A_b p'|`` over ``p' in (0, 1]`` is
equivalent to::

    maximise  sum_e p'_e
    subject to  A_b p' <= d,   0 <= p' <= 1

which :func:`scipy.optimize.linprog` (HiGHS) solves exactly on the
sparse constraint matrix.  The paper uses LP as the gold standard for
Table 2 but dismisses it as too slow beyond toy graphs.

Only the LP needs ``scipy.optimize``, so this module imports scipy
inside the functions that call it: importing :mod:`repro` (the CLI, the
server, the estimators) loads no scipy.  A module-level import made
``import repro.cli`` take ~79 MB of resident memory and ~0.6 s instead
of ~34 MB and ~0.25 s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.gdb import _checked_backbone_ids, _resolve_backbone
from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import SparsificationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy.sparse import csr_matrix


def backbone_incidence(
    graph: UncertainGraph, backbone_ids: np.ndarray
) -> "csr_matrix":
    """Sparse vertex-edge incidence ``A_b`` of a backbone (``n x m_b``).

    Column ``j`` has unit entries at both endpoints of
    ``backbone_ids[j]``.  Built with array ops: the endpoint gather
    supplies the row indices directly and every column index appears
    twice, so no per-edge Python loop is needed.

    Raises
    ------
    ValueError
        If an id is not an integer, is out of range or repeats.
    """
    from scipy import sparse

    backbone_ids = _checked_backbone_ids(graph, backbone_ids)
    n = graph.number_of_vertices()
    m_b = len(backbone_ids)
    if m_b == 0:
        return sparse.csr_matrix((n, 0), dtype=np.float64)
    rows = graph.edge_index_array()[backbone_ids].reshape(-1)
    cols = np.repeat(np.arange(m_b, dtype=np.int64), 2)
    data = np.ones(2 * m_b, dtype=np.float64)
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, m_b))


def lp_assign_probabilities(
    graph: UncertainGraph,
    backbone_ids: "np.ndarray | list[int]",
) -> np.ndarray:
    """Solve the Theorem-1 LP for a backbone; returns probabilities.

    The result is aligned with ``backbone_ids`` (a read-only int64 array
    from the backbone builders, or any sequence of distinct edge ids).

    Raises
    ------
    ValueError
        If an id is not an integer, is out of range or repeats.
    SparsificationError
        If HiGHS fails (``p' = 0`` is always feasible, so it should not).
    """
    from scipy.optimize import linprog

    incidence = backbone_incidence(graph, backbone_ids)
    if incidence.shape[1] == 0:
        return np.zeros(0, dtype=np.float64)
    result = linprog(
        c=-np.ones(incidence.shape[1]),
        A_ub=incidence,
        b_ub=graph.expected_degree_array(),
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
    min_probability: float = 1e-9,
) -> UncertainGraph:
    """Sparsify by backbone construction + optimal LP assignment.

    Mirrors :func:`repro.core.gdb.gdb`'s interface.

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
    backbone_ids = _resolve_backbone(
        graph, alpha, backbone_ids, backbone_method, rng
    )
    probabilities = lp_assign_probabilities(graph, backbone_ids)
    label = name or f"lp({graph.name})"
    return UncertainGraph.from_edge_arrays(
        graph.vertices(),
        graph.edge_index_array()[backbone_ids],
        np.maximum(probabilities, min_probability),
        name=label,
    )
