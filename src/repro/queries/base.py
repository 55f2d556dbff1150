"""Query protocol for Monte-Carlo evaluation (paper section 6.3).

A *query* maps each world of a
:class:`~repro.sampling.batch.WorldBatch` to a vector of per-unit
outcomes — one entry per vertex (pagerank, clustering coefficient) or
per vertex pair (shortest-path distance, reliability) — returned
together as one ``(worlds, units)`` matrix by ``evaluate_batch``.
Outcomes may be ``nan`` when undefined in that world (e.g. the distance
of a disconnected pair), which the estimator machinery handles by
exclusion, matching the paper's SP protocol.

Queries are stateless with respect to worlds and reusable across graphs
*with the same vertex indexing* (the sparsified graphs keep the vertex
set, so one query object serves both ``G`` and ``G'``).

Every query, a custom one included, implements ``evaluate_batch``; the
estimators reject a query without it.  The seeded property tests in
``tests/test_batch.py`` hold every built-in query, row for row, to a
one-world-at-a-time reference in ``tests/oracles/``.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import EstimationError
from repro.sampling.worlds import is_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.batch import WorldBatch


@runtime_checkable
class Query(Protocol):
    """Anything that evaluates a world ensemble into per-unit outcomes."""

    #: human-readable name used in experiment tables
    name: str

    def unit_count(self) -> int:
        """Number of evaluation units (vertices, pairs, or 1 for scalars)."""
        ...

    def evaluate_batch(self, batch: "WorldBatch") -> np.ndarray:
        """Return the ``(n_worlds, units)`` outcome matrix (may contain nan)."""
        ...


class PairQuery:
    """Shared state of the vertex-pair queries (SP and RL).

    ``pairs`` is the list as given, one outcome unit per pair;
    ``sources`` and ``targets`` hold its ids as int64 arrays, and
    ``by_source`` maps each distinct source, in order of first
    appearance, to the int64 arrays ``(units, targets)`` of its pairs,
    so one traversal per source answers all of them.

    The constructor raises ``ValueError`` for an empty list and for a
    pair holding a negative, boolean or non-integral id — numpy would
    otherwise wrap ``-1`` round to the last vertex.  Ids at or above a
    world's vertex count are rejected when the query evaluates it
    (:meth:`check_ids`).
    """

    def __init__(self, pairs: Iterable[tuple[int, int]]) -> None:
        pairs = list(pairs)
        if not pairs:
            raise ValueError("at least one vertex pair is required")
        units: dict[int, list[int]] = {}
        for idx, pair in enumerate(pairs):
            s, t = pair
            if not (is_index(s) and is_index(t)):
                raise ValueError(
                    f"vertex pair {pair!r}: ids must be non-negative integers"
                )
            units.setdefault(int(s), []).append(idx)
        ends = np.array(pairs, dtype=np.int64)
        self.pairs = pairs
        self.sources, self.targets = ends[:, 0], ends[:, 1]
        self.by_source = {
            s: (np.array(idx, dtype=np.int64), self.targets[idx])
            for s, idx in units.items()
        }
        self._id_bound = int(ends.max()) + 1

    def unit_count(self) -> int:
        return len(self.pairs)

    def check_ids(self, n: int) -> None:
        """``ValueError`` naming the first pair with an id outside ``[0, n)``."""
        if self._id_bound > n:
            pair = next(p for p in self.pairs if max(p) >= n)
            raise ValueError(
                f"vertex pair {pair!r} is out of range for a graph with n={n} "
                f"vertices"
            )


def check_outcome_width(query: Query, width) -> None:
    """Raise :class:`EstimationError` unless ``width == query.unit_count()``."""
    units = query.unit_count()
    if width != units:
        raise EstimationError(
            f"{type(query).__name__} ({query.name}) produced {width} outcomes "
            f"per world, but its unit_count() is {units}"
        )


def check_batch_query(query: Query) -> None:
    """Raise :class:`EstimationError` unless ``query.evaluate_batch`` is callable."""
    if not callable(getattr(query, "evaluate_batch", None)):
        raise EstimationError(
            f"{type(query).__name__} has no evaluate_batch(batch) method: "
            "a query must return the (worlds, units) outcome matrix of a "
            "whole WorldBatch"
        )


def evaluate_query_batch(query: Query, batch: "WorldBatch") -> np.ndarray:
    """Evaluate ``query`` on every world of ``batch`` as ``(N, units)``.

    Calls the query's :meth:`Query.evaluate_batch`.  A query without one
    (:func:`check_batch_query`), or an outcome width other than
    ``unit_count()``, raises :class:`~repro.exceptions.EstimationError`.
    """
    check_batch_query(query)
    outcomes = np.asarray(query.evaluate_batch(batch), dtype=np.float64)
    check_outcome_width(
        query, outcomes.shape[1] if outcomes.ndim == 2 else outcomes.shape
    )
    return outcomes
