"""Max-heaps: the eager indexed oracle (Dijkstra's queue) and EMD's lazy
deferred-update heap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.heap import IndexedMaxHeap
from repro.utils.heap import LazyMaxHeap


def test_empty_heap_is_falsy():
    heap = IndexedMaxHeap()
    assert not heap
    assert len(heap) == 0


def test_peek_and_pop_return_maximum():
    heap = IndexedMaxHeap({"a": 1.0, "b": 5.0, "c": 3.0})
    assert heap.peek() == ("b", 5.0)
    assert heap.pop() == ("b", 5.0)
    assert heap.pop() == ("c", 3.0)
    assert heap.pop() == ("a", 1.0)


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        IndexedMaxHeap().pop()


def test_peek_empty_raises():
    with pytest.raises(IndexError):
        IndexedMaxHeap().peek()


def test_push_duplicate_raises():
    heap = IndexedMaxHeap({"x": 1.0})
    with pytest.raises(ValueError):
        heap.push("x", 2.0)


def test_bulk_build_rejects_duplicates():
    # dict keys are unique, so exercise push-after-build duplication
    heap = IndexedMaxHeap({1: 1.0, 2: 2.0})
    with pytest.raises(ValueError):
        heap.push(2, 3.0)


def test_update_increases_priority():
    heap = IndexedMaxHeap({"a": 1.0, "b": 2.0})
    heap.update("a", 10.0)
    assert heap.peek() == ("a", 10.0)


def test_update_decreases_priority():
    heap = IndexedMaxHeap({"a": 5.0, "b": 2.0})
    heap.update("a", 0.5)
    assert heap.peek() == ("b", 2.0)


def test_update_missing_item_pushes():
    heap = IndexedMaxHeap({"a": 1.0})
    heap.update("z", 9.0)
    assert heap.peek() == ("z", 9.0)


def test_remove_arbitrary_item():
    heap = IndexedMaxHeap({"a": 1.0, "b": 2.0, "c": 3.0})
    assert heap.remove("b") == 2.0
    assert "b" not in heap
    assert heap.pop() == ("c", 3.0)
    assert heap.pop() == ("a", 1.0)


def test_remove_missing_raises_keyerror():
    with pytest.raises(KeyError):
        IndexedMaxHeap({"a": 1.0}).remove("b")


def test_priority_lookup():
    heap = IndexedMaxHeap({"a": 1.5})
    assert heap.priority("a") == 1.5


def test_contains_and_iter():
    heap = IndexedMaxHeap({"a": 1.0, "b": 2.0})
    assert "a" in heap and "b" in heap and "c" not in heap
    assert sorted(heap) == ["a", "b"]


def test_heapsort_agrees_with_sorted():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    heap = IndexedMaxHeap({i: v for i, v in enumerate(values)})
    drained = [heap.pop()[1] for _ in range(len(values))]
    assert drained == sorted(values, reverse=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=80))
def test_property_pop_order_is_descending(priorities):
    heap = IndexedMaxHeap({i: p for i, p in enumerate(priorities)})
    heap.validate()
    drained = [heap.pop()[1] for _ in range(len(priorities))]
    assert drained == sorted(priorities, reverse=True)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.floats(min_value=-100, max_value=100)),
        min_size=1,
        max_size=120,
    )
)
def test_property_interleaved_updates_keep_invariant(operations):
    heap = IndexedMaxHeap()
    reference: dict[int, float] = {}
    for item, priority in operations:
        heap.update(item, priority)
        reference[item] = priority
        heap.validate()
    drained = {}
    while heap:
        item, priority = heap.pop()
        drained[item] = priority
    assert drained == reference


def test_random_stress_against_reference(rng=np.random.default_rng(7)):
    heap = IndexedMaxHeap()
    reference: dict[int, float] = {}
    for _ in range(500):
        op = rng.integers(0, 3)
        if op == 0 or not reference:
            item = int(rng.integers(0, 50))
            priority = float(rng.normal())
            heap.update(item, priority)
            reference[item] = priority
        elif op == 1:
            item, priority = heap.pop()
            assert priority == max(reference.values())
            del reference[item]
        else:
            item = list(reference)[int(rng.integers(0, len(reference)))]
            priority = float(rng.normal())
            heap.update(item, priority)
            reference[item] = priority
        heap.validate()


# ----------------------------------------------------------------------
# LazyMaxHeap: live-list view, deferred updates, magnitude ordering
# ----------------------------------------------------------------------
#: Magnitudes that tie, including the signed zeros.
TIE_VALUES = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)


def _assert_peek_is_argmax(heap, values):
    # The exact argmax, ties broken towards the smallest item id: the
    # vertex EMD's reference E-phase picks by brute force.
    assert heap.peek() == int(np.argmax(np.abs(values)))


def test_lazy_peek_returns_max_magnitude():
    values = [1.0, -5.0, 3.0, 4.5]
    heap = LazyMaxHeap(values)
    assert len(heap) == 4
    assert heap.peek() == 1  # |-5| dominates
    heap.validate()


def test_lazy_sees_inplace_mutations_after_defer():
    values = [1.0, 2.0, 3.0]
    heap = LazyMaxHeap(values)
    values[0] = -10.0  # mutate the live list, then announce it
    heap.defer(0)
    assert heap.peek() == 0
    heap.validate()


def test_lazy_decrease_repairs_without_defer():
    """Decreases leave stale upper bounds; peek lazily repairs them."""
    values = [9.0, 2.0, 8.0]
    heap = LazyMaxHeap(values)
    values[0] = 0.5
    # No defer needed: bounds only ever overestimate, so peek re-checks.
    assert heap.peek() == 2
    heap.validate()


def test_lazy_duplicate_defers_are_harmless():
    values = [1.0, 2.0]
    heap = LazyMaxHeap(values)
    values[1] = 7.0
    heap.defer(1, 1, 1)
    assert heap.peek() == 1
    heap.validate()


@st.composite
def heap_scripts(draw):
    """Initial values plus (item, new value) mutations, all drawn either
    from arbitrary floats or from the tie-heavy :data:`TIE_VALUES`."""
    value = draw(st.sampled_from([
        st.floats(min_value=-100, max_value=100), st.sampled_from(TIE_VALUES),
    ]))
    initial = draw(st.lists(value, min_size=1, max_size=40))
    mutations = draw(
        st.lists(st.tuples(st.integers(0, 39), value), max_size=60)
    )
    return initial, mutations


@settings(max_examples=80, deadline=None)
@given(script=heap_scripts())
def test_property_lazy_peek_tracks_reference(script):
    initial, mutations = script
    values = list(initial)
    heap = LazyMaxHeap(values)
    _assert_peek_is_argmax(heap, values)
    for item, new_value in mutations:
        item %= len(values)
        values[item] = new_value
        heap.defer(item)
        _assert_peek_is_argmax(heap, values)
        heap.validate()


def test_lazy_stress_against_reference():
    """Batches of up to 49 pending items between peeks, increases and
    decreases mixed, against the brute-force argmax."""
    rng = np.random.default_rng(11)
    values = rng.normal(size=60).tolist()
    heap = LazyMaxHeap(values)
    for _ in range(400):
        batch = rng.integers(0, 60, size=int(rng.integers(1, 50))).tolist()
        new_values = rng.normal(size=len(batch)) * rng.uniform(0.1, 10)
        for item, value in zip(batch, new_values.tolist()):
            values[item] = value
        heap.defer(*batch)
        _assert_peek_is_argmax(heap, values)
    heap.validate()
