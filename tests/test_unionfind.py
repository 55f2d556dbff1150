"""Union-find: unions, finds, component counts, reset — the scalar
oracle and the array-native production class checked against it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.unionfind import UnionFind
from repro.utils.unionfind import ArrayUnionFind


def test_initial_state_is_singletons():
    uf = UnionFind(5)
    assert uf.components == 5
    assert all(uf.find(i) == i for i in range(5))


def test_union_merges_components():
    uf = UnionFind(4)
    assert uf.union(0, 1) is True
    assert uf.components == 3
    assert uf.connected(0, 1)
    assert not uf.connected(0, 2)


def test_union_same_set_returns_false():
    uf = UnionFind(3)
    uf.union(0, 1)
    assert uf.union(1, 0) is False
    assert uf.components == 2


def test_transitive_connectivity():
    uf = UnionFind(6)
    uf.union(0, 1)
    uf.union(1, 2)
    uf.union(3, 4)
    assert uf.connected(0, 2)
    assert not uf.connected(2, 3)
    uf.union(2, 3)
    assert uf.connected(0, 4)


def test_chain_of_unions_single_component():
    n = 100
    uf = UnionFind(n)
    for i in range(n - 1):
        uf.union(i, i + 1)
    assert uf.components == 1
    assert uf.connected(0, n - 1)


def test_reset_restores_singletons():
    uf = UnionFind(4)
    uf.union(0, 1)
    uf.union(2, 3)
    uf.reset()
    assert uf.components == 4
    assert not uf.connected(0, 1)


def test_len_reports_universe_size():
    assert len(UnionFind(7)) == 7


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        UnionFind(-1)


def test_zero_size_allowed():
    uf = UnionFind(0)
    assert uf.components == 0


class TestArrayUnionFind:
    def test_scalar_api_matches_reference(self):
        auf, ref = ArrayUnionFind(6), UnionFind(6)
        for x, y in [(0, 1), (1, 2), (3, 4), (1, 0), (2, 3)]:
            assert auf.union(x, y) == ref.union(x, y)
            assert auf.components == ref.components
        for x in range(6):
            for y in range(6):
                assert auf.connected(x, y) == ref.connected(x, y)

    def test_find_many_returns_roots_and_compresses(self):
        auf = ArrayUnionFind(8)
        for i in range(6):
            auf.union(i, i + 1)
        roots = auf.find_many(np.arange(8))
        assert len(set(roots[:7].tolist())) == 1
        assert roots[7] == 7
        # Compression: every queried element now points at its root.
        assert np.array_equal(auf._parent[np.arange(7)],
                              np.full(7, roots[0]))

    def test_union_batch_respects_index_order(self):
        # Duplicate pair: the first occurrence merges, the second does not
        # (exactly what sequential unions would do).
        auf = ArrayUnionFind(4)
        merged = auf.union_batch([0, 0, 2], [1, 1, 3])
        assert merged.tolist() == [True, False, True]
        assert auf.components == 2

    def test_union_batch_triangle(self):
        # (0-1), (1-2), (0-2): the cycle-closing last edge must lose.
        auf = ArrayUnionFind(3)
        merged = auf.union_batch([0, 1, 0], [1, 2, 2])
        assert merged.tolist() == [True, True, False]

    def test_union_batch_chain(self):
        # A path forces dependencies across hooking rounds (O(log n) of
        # them) yet every pair must merge.
        n = 300
        auf = ArrayUnionFind(n)
        merged = auf.union_batch(np.arange(n - 1), np.arange(1, n))
        assert merged.all()
        assert auf.components == 1

    def test_union_batch_self_pairs_never_merge(self):
        auf = ArrayUnionFind(3)
        merged = auf.union_batch([1, 0], [1, 2])
        assert merged.tolist() == [False, True]

    def test_union_batch_shape_mismatch(self):
        with pytest.raises(ValueError):
            ArrayUnionFind(3).union_batch([0, 1], [1])

    def test_union_batch_empty(self):
        auf = ArrayUnionFind(3)
        assert auf.union_batch([], []).tolist() == []
        assert auf.components == 3

    def test_reset(self):
        auf = ArrayUnionFind(4)
        auf.union_batch([0, 2], [1, 3])
        auf.reset()
        assert auf.components == 4
        assert not auf.connected(0, 1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ArrayUnionFind(-1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    pairs=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120
    ),
)
def test_property_union_batch_matches_sequential_reference(n, pairs):
    """union_batch == scalar unions in index order, on any pair sequence."""
    pairs = [(u % n, v % n) for u, v in pairs]
    ref = UnionFind(n)
    expected = [ref.union(u, v) for u, v in pairs]
    auf = ArrayUnionFind(n)
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    merged = auf.union_batch(us, vs)
    assert merged.tolist() == expected
    assert auf.components == ref.components
    # Same partition afterwards.
    ref_roots = [ref.find(x) for x in range(n)]
    arr_roots = auf.find_many(np.arange(n))
    for x in range(n):
        for y in range(n):
            assert (ref_roots[x] == ref_roots[y]) == (arr_roots[x] == arr_roots[y])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    pairs=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80
    ),
    queries=st.lists(st.integers(0, 39), max_size=40),
)
def test_property_find_many_matches_scalar_find(n, pairs, queries):
    ref = UnionFind(n)
    auf = ArrayUnionFind(n)
    for u, v in pairs:
        ref.union(u % n, v % n)
        auf.union(u % n, v % n)
    queries = np.array([q % n for q in queries], dtype=np.int64)
    roots = auf.find_many(queries)
    for q, r in zip(queries, roots):
        # Roots may differ representative-wise only if the heuristics
        # diverge — they don't: the rank/linking rule is identical.
        assert ref.find(int(q)) == int(r) or ref.connected(int(q), int(r))
        assert auf.connected(int(q), int(r))
