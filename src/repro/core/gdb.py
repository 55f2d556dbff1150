"""Gradient Descent Backbone (GDB) — paper Algorithm 2 and section 5.

GDB takes a backbone edge set and tunes edge probabilities by cyclic
coordinate descent on the squared discrepancy objective

    ``D_k = sum over vertex sets S, |S| <= k, of delta_A(S)^2``

(for ``k = 1`` this is ``sum_u delta(u)^2``).  For each edge the
closed-form optimal step is computed by the rule of the variant (Eq. 8
for ``k = 1``, Eq. 13-15 for larger ``k``, Eq. 16 for ``k = "n"``); the
resulting probability is clamped to ``[0, 1]``, and if the move would
*increase* the edge's entropy the step is attenuated by the entropy
parameter ``h in [0, 1]`` (Algorithm 2, line 10).  Sweeps repeat until
the objective improves by less than ``tau``.

The sweeps themselves live in :mod:`repro.core.sweep`: color-blocked
array sweeps for the endpoint-local ``k = 1`` rules, and the sequential
solve (edge-id order, plain Python floats pulled once per solve) for the
globally-coupled ``k >= 2`` / ``k = "n"`` rules and EMD's M-phase.  The
scalar one-rule-call-per-edge reference they are checked against lives
with the tests (``tests/oracles/``).

The public entry point is :func:`gdb`; :func:`gdb_refine` runs the same
loop in place on an existing :class:`SparsificationState` (EMD's M-phase
reuses it).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.core.backbone import build_backbone
from repro.core.discrepancy import SparsificationState
from repro.core.sweep import (
    SweepPlan,
    _integer_ids,
    apply_probability_vector,
    build_sweep_plan,
    colored_sweep,
    sequential_refine,
)
from repro.core.uncertain_graph import UncertainGraph


def _colored_eligible(k: "int | str", n: int) -> bool:
    """Whether the color-blocked sweep applies: only the endpoint-local
    ``k = 1`` rules (shared with the grid driver and the maintainer so
    they build the same plan flavour)."""
    return k == 1 and n > 1


def _validate_stopping(tau: float, **caps) -> None:
    """Reject a NaN or negative ``tau`` and any iteration cap that is not
    a positive integer (shared by the GDB and EMD configs)."""
    if not tau >= 0.0:  # NaN too: no sweep would ever pass the tau test
        raise ValueError(f"tau must be non-negative, got {tau}")
    for name, cap in caps.items():
        if not isinstance(cap, numbers.Integral) or cap < 1:
            raise ValueError(f"{name} must be a positive integer, got {cap!r}")


@dataclass(frozen=True)
class GDBConfig:
    """Hyper-parameters of Algorithm 2.

    Attributes
    ----------
    h:
        Entropy parameter in ``[0, 1]``; fraction of the optimal step
        applied when the step would increase edge entropy.  The paper
        settles on ``h = 0.05`` (Fig. 5) as the accuracy/entropy balance.
    tau:
        Convergence threshold on the objective improvement per sweep.
    max_sweeps:
        Hard iteration cap (the objective is monotone, so this only
        guards slow convergence at small ``h``).
    k:
        Cut-preservation order: ``1`` preserves expected degrees (Eq. 9),
        ``2`` pairs (Eq. 15), larger ints the general rule (Eq. 14), and
        the string ``"n"`` full redistribution (Eq. 16).
    relative:
        Minimise relative instead of absolute discrepancy (k = 1 only).
    """

    h: float = 0.05
    tau: float = 1e-9
    max_sweeps: int = 200
    k: int | str = 1
    relative: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.h <= 1.0):
            raise ValueError(f"entropy parameter h must be in [0, 1], got {self.h}")
        k = self.k
        if k != "n" and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
            raise ValueError(f"k must be a positive int or 'n', got {k!r}")
        _validate_stopping(self.tau, max_sweeps=self.max_sweeps)


def gdb_refine(
    state: SparsificationState,
    config: GDBConfig,
    plan: "SweepPlan | None" = None,
) -> int:
    """Run GDB sweeps in place on ``state``; returns the sweep count.

    ``state`` must already have its backbone edges selected.  Only the
    probabilities of selected edges change; membership is untouched
    (that is EMD's job).

    A ``k = 1`` solve on a colored plan runs color-blocked sweeps; every
    other solve is one :func:`~repro.core.sweep.sequential_refine` call
    (edge-id order, plain Python floats, the same stopping rule).

    Parameters
    ----------
    plan:
        Optional precomputed :class:`SweepPlan` for the currently
        selected edge set (the grid driver reuses one plan across an
        entire ``h`` sweep).  Without one, a colored plan is built for
        ``k = 1`` and a sequential-only plan otherwise; EMD's M-phase
        passes a sequential-only plan to keep its ``k = 1`` sweeps in
        edge-id order.
    """
    k = config.k
    # The relative rule is defined for k = 1 only; k = "n" and any
    # k >= n are full redistribution, which ignores it.
    if config.relative and k != "n" and 1 < k < state.n:
        raise ValueError("the relative-discrepancy rule is defined for k = 1 only")
    colored = _colored_eligible(k, state.n)
    if plan is None:
        plan = build_sweep_plan(state, sequential_only=not colored)
    if not (colored and plan.n_colors > 0):
        return sequential_refine(state, plan, config)
    objective = state.d1(relative=config.relative)
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        colored_sweep(state, plan, config.relative, config.h)
        new_objective = state.d1(relative=config.relative)
        if abs(objective - new_objective) <= config.tau:
            break
        objective = new_objective
    return sweeps


#: Extrapolation guard rails: jump only when the contraction ratio of
#: two consecutive sweeps agrees within the jitter, and never assume a
#: slower (= longer jump) ratio than the cap.
WARM_RATIO_JITTER = 0.05
WARM_RATIO_CAP = 0.99


def gdb_refine_warm(
    state: SparsificationState,
    config: GDBConfig,
    plan: "SweepPlan | None" = None,
) -> int:
    """Warm-started GDB: extrapolated colored sweeps, then a certificate.

    ``state`` carries previously-converged probabilities plus a
    perturbation (a delta batch, a backbone membership diff).  Two
    phases:

    1. **Accelerated phase** — full color-blocked sweeps with geometric
       extrapolation.  Coordinate descent's tail is an almost linear
       contraction, so the per-sweep update direction settles and
       shrinks by a stable ratio ``r``; once two consecutive sweeps
       agree on ``r`` the remaining geometric series is applied in one
       jump (``x + dx * r / (1 - r)``), with an objective re-check that
       reverts any overshoot (the entropy guard and the ``[0, 1]``
       clamps make the map only piecewise linear).  Each jump replaces
       ``O(1 / (1 - r))`` sweeps by one vector operation.
    2. **Certificate** — sweeps continue until the objective improves by
       ``<= config.tau``, the same stopping rule as :func:`gdb_refine`,
       so the converged objective matches a cold refinement of the same
       selection to within the usual coordinate-descent tolerance.

    Extrapolation jumps are *not* coordinate-descent steps, so the warm
    trajectory differs from the cold one; the certificate pins the end
    point to the same fixed-point tolerance, which is the maintained
    contract (``benchmarks/bench_streaming.py`` gates it along drift
    streams).  Returns the sweep count.

    Solves outside the color-blocked ``k = 1`` path run plain
    :func:`gdb_refine`.
    """
    if not _colored_eligible(config.k, state.n):
        return gdb_refine(state, config, plan=plan)
    if plan is None or (plan.n_colors == 0 and len(plan.eids)):
        plan = build_sweep_plan(state)

    sweeps = 0
    eids = plan.eids
    objective = state.d1(relative=config.relative)
    x_prev = state.phat[eids].copy()
    prev_norm = prev_ratio = None
    for _ in range(config.max_sweeps):
        colored_sweep(state, plan, config.relative, config.h)
        sweeps += 1
        new_objective = state.d1(relative=config.relative)
        if abs(objective - new_objective) <= config.tau:
            break
        objective = new_objective
        x_now = state.phat[eids].copy()
        dx = x_now - x_prev
        norm = float(np.linalg.norm(dx))
        x_prev = x_now
        if prev_norm is not None and prev_norm > 0.0 and norm > 0.0:
            ratio = norm / prev_norm
            if (
                prev_ratio is not None
                and ratio < 1.0
                and abs(ratio - prev_ratio) < WARM_RATIO_JITTER
            ):
                r = min(ratio, WARM_RATIO_CAP)
                apply_probability_vector(
                    state, eids, x_now + dx * (r / (1.0 - r))
                )
                new_objective = state.d1(relative=config.relative)
                if new_objective > objective:  # overshot: revert the jump
                    apply_probability_vector(state, eids, x_now)
                    new_objective = state.d1(relative=config.relative)
                objective = new_objective
                x_prev = state.phat[eids].copy()
                prev_norm = prev_ratio = None
                continue
            prev_ratio = ratio
        prev_norm = norm
    return sweeps


def _resolve_backbone(
    graph: UncertainGraph,
    alpha: "float | None",
    backbone_ids,
    backbone_method: str,
    rng,
) -> np.ndarray:
    """Shared backbone resolution for the gdb/emd/lp facades.

    Exactly one of ``alpha`` or ``backbone_ids`` must be given; the
    ``alpha`` path builds the backbone on the graph's plan
    (:func:`build_backbone`), and a caller's ids are checked by
    :func:`_checked_backbone_ids`.
    """
    if (alpha is None) == (backbone_ids is None):
        raise ValueError("provide exactly one of alpha or backbone_ids")
    if backbone_ids is None:
        return build_backbone(graph, alpha, method=backbone_method, rng=rng)
    return _checked_backbone_ids(graph, backbone_ids)


def _checked_backbone_ids(graph: UncertainGraph, backbone_ids) -> np.ndarray:
    """A caller's backbone as an int64 array of distinct ids in ``[0, m)``.

    Raises ``ValueError`` naming the first id that is not an integer, is
    out of range or repeats an earlier one (numpy indexing would read a
    negative id from the end and truncate a fractional one).
    """
    ids = _integer_ids(backbone_ids, "backbone_ids", "backbone id")
    m = graph.number_of_edges()
    bad = (ids < 0) | (ids >= m)
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    bad[repeats] = True
    if bad.any():
        eid = int(ids[np.argmax(bad)])
        reason = "duplicated" if 0 <= eid < m else f"out of range for {m} edges"
        raise ValueError(f"backbone id {eid} is {reason}")
    return ids


def gdb(
    graph: UncertainGraph,
    alpha: float | None = None,
    backbone_ids: list[int] | None = None,
    config: GDBConfig | None = None,
    backbone_method: str = "bgi",
    rng: "int | np.random.Generator | None" = None,
    name: str = "",
) -> UncertainGraph:
    """Sparsify ``graph`` with Gradient Descent Backbone (Algorithm 2).

    Exactly one of ``alpha`` (build a backbone internally) or
    ``backbone_ids`` (pre-built backbone, positions into
    ``graph.edge_list()``) must be provided.

    Parameters
    ----------
    graph:
        The uncertain graph ``G = (V, E, p)``.
    alpha:
        Sparsification ratio; the backbone is built with
        ``backbone_method`` ("bgi" = Algorithm 1, "random" = MC
        sampling).
    backbone_ids:
        Alternatively, explicit backbone edge ids.
    config:
        :class:`GDBConfig`; defaults to the paper's settings
        (``h = 0.05``, ``k = 1``, absolute discrepancy).
    rng:
        Seed / generator for backbone construction.
    name:
        Name for the returned graph.

    Returns
    -------
    UncertainGraph
        Sparsified graph on the full vertex set with ``alpha |E|`` edges.
    """
    config = config or GDBConfig()
    backbone_ids = _resolve_backbone(
        graph, alpha, backbone_ids, backbone_method, rng
    )
    state = SparsificationState(graph)
    state.select_edges(backbone_ids)
    gdb_refine(state, config)
    label = name or f"gdb[{'R' if config.relative else 'A'},k={config.k}]({graph.name})"
    return state.build_graph(name=label)
