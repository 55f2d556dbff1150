"""Indexed binary max-heap with update-key: Dijkstra's queue.

``heapq`` cannot update keys in place, so :class:`IndexedMaxHeap` is a
classic array-based binary heap with a position index, giving O(log n)
``update`` / ``push`` / ``pop`` and O(1) ``peek``; the per-world
Dijkstra reference (:func:`oracles.kernels.dijkstra_distances`) runs on
it with negated keys.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator


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
