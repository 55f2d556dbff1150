"""Lazy max-heap over the magnitudes of a live list.

EMD (paper Algorithm 3) keeps the vertices of the graph in a max-heap
ordered by the magnitude of their degree discrepancy ``|delta_A(v)|`` and
repeatedly (a) peeks at the top vertex and (b) updates the keys of the
two endpoints of an edge after a swap.  :class:`LazyMaxHeap` serves its
E-phase: priorities live in a Python list of floats owned by the caller
(the E-phase's ``delta``), heap entries are stale *upper bounds* cleaned
out lazily at peek time, and the few endpoints a swap touches are
refreshed together at the next peek instead of one eager sift per
change.
"""

from __future__ import annotations

import heapq


class LazyMaxHeap:
    """Deferred-update max-heap over ``|values[i]|`` for dense int items.

    The caller owns ``values`` (a list of floats) and mutates it freely;
    the heap tracks the *magnitudes* ``|values[i]|``.  Instead of
    eagerly re-sifting on every change, the caller marks the touched
    items with :meth:`defer`; :meth:`peek` first refreshes every pending
    item, then lazily discards stale heap entries.

    Entries are kept as upper bounds: a deferred *decrease* leaves its
    old (larger) entry in the heap to be popped and refreshed at peek
    time; an *increase* pushes a new entry.  ``bound[i]`` is always the
    largest entry for ``i`` still in the heap and ``bound[i] >=
    |values[i]|``, so the first heap top whose entry matches its current
    magnitude is the true argmax.

    Ties break towards the smallest item id (heapq tuple order), so
    :meth:`peek` equals ``np.argmax(np.abs(values))`` — the scan EMD's
    scalar reference E-phase runs, which keeps EMD bit-identical to it.
    """

    __slots__ = ("_values", "_bound", "_entries", "_pending")

    def __init__(self, values: list) -> None:
        self._values = values
        self._bound = [abs(value) for value in values]
        # (-magnitude, item) tuples; heapq pops the largest magnitude,
        # then the smallest item id.
        self._entries = [(-bound, item) for item, bound in enumerate(self._bound)]
        heapq.heapify(self._entries)
        self._pending: list[int] = []

    def __len__(self) -> int:
        return len(self._values)

    def defer(self, *items: int) -> None:
        """Mark items whose value changed; processed at the next peek."""
        self._pending.extend(items)

    def _flush(self) -> None:
        values = self._values
        bound = self._bound
        entries = self._entries
        for item in self._pending:
            magnitude = abs(values[item])
            if magnitude > bound[item]:
                bound[item] = magnitude
                heapq.heappush(entries, (-magnitude, item))
        # Deferred decreases keep their stale upper-bound entries; peek
        # cleans them out lazily.
        self._pending.clear()

    def peek(self) -> int:
        """Item with the maximum ``|values[item]|`` (exact argmax)."""
        self._flush()
        entries = self._entries
        values = self._values
        bound = self._bound
        while True:
            negated, item = entries[0]
            magnitude = abs(values[item])
            if -negated == magnitude:
                return item
            # Stale upper bound: refresh this item's entry and retry.
            heapq.heapreplace(entries, (-magnitude, item))
            bound[item] = magnitude

    def validate(self) -> None:
        """Assert the upper-bound invariant (used by tests)."""
        if self._pending:
            raise AssertionError("validate() with pending updates")
        entry_values: dict[int, set[float]] = {}
        for negated, item in self._entries:
            entry_values.setdefault(item, set()).add(-negated)
        for item, value in enumerate(self._values):
            if self._bound[item] < abs(value):
                raise AssertionError("bound fell below a current magnitude")
            if self._bound[item] not in entry_values.get(item, ()):
                raise AssertionError(f"no entry backing bound of item {item}")
