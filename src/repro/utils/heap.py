"""Indexed binary max-heap with update-key, plus a lazy variant.

``heapq`` cannot update keys in place, so :class:`IndexedMaxHeap` is a
classic array-based binary heap with a position index, giving O(log n)
``update`` / ``push`` / ``pop`` and O(1) ``peek``; the per-world
Dijkstra reference kernel runs on it with negated keys.

EMD (paper Algorithm 3) keeps the vertices of the graph in a max-heap
ordered by the magnitude of their degree discrepancy ``|delta_A(v)|`` and
repeatedly (a) peeks at the top vertex and (b) updates the keys of the
two endpoints of an edge after a swap.  :class:`LazyMaxHeap` serves its
vector E-phase: priorities live in a numpy array owned by the caller,
heap entries are stale *upper bounds* cleaned out lazily at peek time,
and several updates are batched into one rescan of the dirty items
instead of one eager sift per change.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Iterator

import numpy as np


class IndexedMaxHeap:
    """Binary max-heap over hashable items with float priorities.

    Ties are broken arbitrarily but deterministically (heap order).

    Examples
    --------
    >>> heap = IndexedMaxHeap({"a": 1.0, "b": 3.0})
    >>> heap.peek()
    ('b', 3.0)
    >>> heap.update("a", 10.0)
    >>> heap.pop()
    ('a', 10.0)
    """

    __slots__ = ("_items", "_priorities", "_positions")

    def __init__(self, initial: dict[Hashable, float] | None = None) -> None:
        self._items: list[Hashable] = []
        self._priorities: list[float] = []
        self._positions: dict[Hashable, int] = {}
        if initial:
            # Bulk build: append everything, then heapify bottom-up (O(n)).
            for item, priority in initial.items():
                if item in self._positions:
                    raise ValueError(f"duplicate heap item: {item!r}")
                self._positions[item] = len(self._items)
                self._items.append(item)
                self._priorities.append(float(priority))
            for i in range(len(self._items) // 2 - 1, -1, -1):
                self._sift_down(i)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._positions

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate over items in arbitrary (heap array) order."""
        return iter(list(self._items))

    def priority(self, item: Hashable) -> float:
        """Return the current priority of ``item``."""
        return self._priorities[self._positions[item]]

    def peek(self) -> tuple[Hashable, float]:
        """Return ``(item, priority)`` with the maximum priority."""
        if not self._items:
            raise IndexError("peek on empty heap")
        return self._items[0], self._priorities[0]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push(self, item: Hashable, priority: float) -> None:
        """Insert a new item; raises if the item is already present."""
        if item in self._positions:
            raise ValueError(f"item already in heap: {item!r}")
        self._positions[item] = len(self._items)
        self._items.append(item)
        self._priorities.append(float(priority))
        self._sift_up(len(self._items) - 1)

    def pop(self) -> tuple[Hashable, float]:
        """Remove and return the maximum ``(item, priority)`` pair."""
        if not self._items:
            raise IndexError("pop from empty heap")
        top_item, top_priority = self._items[0], self._priorities[0]
        self._swap(0, len(self._items) - 1)
        self._items.pop()
        self._priorities.pop()
        del self._positions[top_item]
        if self._items:
            self._sift_down(0)
        return top_item, top_priority

    def update(self, item: Hashable, priority: float) -> None:
        """Change the priority of an existing item (push if absent)."""
        pos = self._positions.get(item)
        if pos is None:
            self.push(item, priority)
            return
        old = self._priorities[pos]
        self._priorities[pos] = float(priority)
        if priority > old:
            self._sift_up(pos)
        elif priority < old:
            self._sift_down(pos)

    def remove(self, item: Hashable) -> float:
        """Remove an arbitrary item, returning its priority."""
        pos = self._positions.get(item)
        if pos is None:
            raise KeyError(item)
        priority = self._priorities[pos]
        last = len(self._items) - 1
        self._swap(pos, last)
        self._items.pop()
        self._priorities.pop()
        del self._positions[item]
        if pos < len(self._items):
            self._sift_down(pos)
            self._sift_up(pos)
        return priority

    def update_many(self, updates: Iterable[tuple[Hashable, float]]) -> None:
        """Apply several ``(item, priority)`` updates."""
        for item, priority in updates:
            self.update(item, priority)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _swap(self, i: int, j: int) -> None:
        items, priorities, positions = self._items, self._priorities, self._positions
        items[i], items[j] = items[j], items[i]
        priorities[i], priorities[j] = priorities[j], priorities[i]
        positions[items[i]] = i
        positions[items[j]] = j

    def _sift_up(self, pos: int) -> None:
        priorities = self._priorities
        while pos > 0:
            parent = (pos - 1) >> 1
            if priorities[pos] <= priorities[parent]:
                break
            self._swap(pos, parent)
            pos = parent

    def _sift_down(self, pos: int) -> None:
        priorities = self._priorities
        size = len(priorities)
        while True:
            left = 2 * pos + 1
            right = left + 1
            largest = pos
            if left < size and priorities[left] > priorities[largest]:
                largest = left
            if right < size and priorities[right] > priorities[largest]:
                largest = right
            if largest == pos:
                return
            self._swap(pos, largest)
            pos = largest

    def validate(self) -> None:
        """Assert the heap invariant (used by tests)."""
        priorities = self._priorities
        for i in range(1, len(priorities)):
            parent = (i - 1) >> 1
            if priorities[parent] < priorities[i]:
                raise AssertionError(f"heap violated at index {i}")
        for item, pos in self._positions.items():
            if self._items[pos] != item:
                raise AssertionError(f"position index stale for {item!r}")


class LazyMaxHeap:
    """Deferred-update max-heap over ``|values[i]|`` for dense int items.

    The caller owns ``values`` (e.g. ``SparsificationState.delta``) and
    mutates it freely; the heap tracks the *magnitudes* ``|values[i]|``.
    Instead of eagerly re-sifting on every change, the caller marks the
    touched items with :meth:`defer`; :meth:`peek` first flushes all
    pending items with **one** vectorised magnitude rescan (so several
    edge removals/insertions share a single ``np.abs`` gather), then
    lazily discards stale heap entries.

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

    def __init__(self, values: np.ndarray) -> None:
        self._values = values
        self._bound = np.abs(values).astype(np.float64)
        # (-magnitude, item) tuples; heapq pops the largest magnitude,
        # then the smallest item id.
        self._entries = list(zip((-self._bound).tolist(), range(len(values))))
        heapq.heapify(self._entries)
        self._pending: list[int] = []

    def __len__(self) -> int:
        return len(self._values)

    def defer(self, *items: int) -> None:
        """Mark items whose value changed; processed at the next peek."""
        self._pending.extend(items)

    def _flush(self) -> None:
        pending = self._pending
        if not pending:
            return
        if len(pending) <= 32:
            # Tiny batches (EMD defers ~4 endpoints between peeks): the
            # fixed cost of the numpy path exceeds a scalar walk.
            values = self._values
            bound = self._bound
            entries = self._entries
            for item in pending:
                magnitude = abs(float(values[item]))
                if magnitude > bound[item]:
                    bound[item] = magnitude
                    heapq.heappush(entries, (-magnitude, item))
            pending.clear()
            return
        idx = np.array(pending, dtype=np.int64)
        pending.clear()
        magnitudes = np.abs(self._values[idx])
        grew = magnitudes > self._bound[idx]
        if np.any(grew):
            entries = self._entries
            bound = self._bound
            for item, magnitude in zip(
                idx[grew].tolist(), magnitudes[grew].tolist()
            ):
                bound[item] = magnitude
                heapq.heappush(entries, (-magnitude, item))
        # Deferred decreases keep their stale upper-bound entries; peek
        # cleans them out lazily.

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
        magnitudes = np.abs(self._values)
        if np.any(self._bound < magnitudes):
            raise AssertionError("bound fell below a current magnitude")
        entry_values: dict[int, set[float]] = {}
        for negated, item in self._entries:
            entry_values.setdefault(item, set()).add(-negated)
        for item in range(len(self._values)):
            if self._bound[item] not in entry_values.get(item, ()):
                raise AssertionError(f"no entry backing bound of item {item}")
