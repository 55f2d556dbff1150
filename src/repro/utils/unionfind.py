"""Disjoint-set (union-find) structure.

Used by every spanning-tree / spanning-forest routine in the package:
the BGI backbone initialisation (Algorithm 1), the Nagamochi-Ibaraki
forest decomposition (Algorithm 4) and connectivity checks.

:class:`ArrayUnionFind` keeps its state in arrays and adds the batched
primitives :meth:`~ArrayUnionFind.find_many` (vectorised
grandparent-jumping with full path compression of the queried elements)
and :meth:`~ArrayUnionFind.union_batch` (order-respecting batched
unions: the merged set is exactly what sequential
:meth:`~ArrayUnionFind.union` calls in index order would produce).  The
backbone planner's nested Kruskal peels run on it.  The scalar
list-based union-find it is checked against is a test oracle
(``tests/oracles/unionfind.py``).
"""

from __future__ import annotations

import numpy as np


class ArrayUnionFind:
    """Array-native union-find over the integers ``0 .. n-1``.

    Union by rank with path compression; on top of the scalar ``find``
    / ``union`` it adds the batched primitives ``find_many`` and
    ``union_batch`` that the vectorised Kruskal peels of
    :class:`repro.core.backbone.BackbonePlan` are built on.
    """

    __slots__ = ("_parent", "_rank", "_components", "_scratch")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"element count must be non-negative, got {n}")
        self._parent = np.arange(n, dtype=np.int64)
        self._rank = np.zeros(n, dtype=np.int64)
        self._components = n
        # Scratch buffer for union_batch's min-owner scatter.
        self._scratch = np.empty(n, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def components(self) -> int:
        """Number of disjoint sets currently tracked."""
        return self._components

    def find(self, x: int) -> int:
        """Return the representative of the set containing ``x``."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = int(parent[root])
        # Full path compression for the traversed chain.
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    def find_many(self, xs) -> np.ndarray:
        """Representatives of a batch of elements, vectorised.

        Grandparent-jumping converges in ``O(log height)`` rounds of
        whole-array gathers; the queried elements are then compressed
        straight onto their roots.
        """
        xs = np.asarray(xs, dtype=np.int64)
        parent = self._parent
        roots = parent[xs]
        while True:
            nxt = parent[roots]
            if np.array_equal(nxt, roots):
                break
            roots = parent[nxt]
        parent[xs] = roots
        return roots

    def union(self, x: int, y: int) -> bool:
        """Merge the sets containing ``x`` and ``y`` (rank heuristic)."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        rank = self._rank
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
        self._components -= 1
        return True

    def union_batch(self, us, vs) -> np.ndarray:
        """Merge a batch of pairs; returns the per-pair merged mask.

        The result is *order-respecting*: pair ``i`` merges if and only
        if sequential ``union(us[i], vs[i])`` calls in index order would
        have merged it — so Kruskal over a sorted edge array accepts the
        same forest whether it unions one edge at a time or in batches.

        Each vectorised round hooks, for every live root, its
        minimum-index pending pair (Boruvka-style): a pair applies when
        it is the earliest pair touching at least one of its two current
        roots, and the hook is directed away from the root it is minimal
        for.  The hooks of one round form a forest on roots (the
        max-index pair of any would-be cycle would have to be minimal
        for a root an earlier cycle pair also touches), and no applied
        pair can be one that sequential order would have rejected — a
        connecting path of pending pairs would need a smaller index
        touching the root the pair is minimal for.  Stars and chains
        therefore collapse in ``O(log n)`` rounds with no scalar tail.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError(
                f"endpoint shapes differ: {us.shape} vs {vs.shape}"
            )
        merged = np.zeros(len(us), dtype=bool)
        pending = np.arange(len(us), dtype=np.int64)
        parent = self._parent
        while len(pending):
            ru = self.find_many(us[pending])
            rv = self.find_many(vs[pending])
            alive = ru != rv
            pending, ru, rv = pending[alive], ru[alive], rv[alive]
            if not len(pending):
                break
            # min_owner[root] = earliest pending pair touching that root.
            idx = np.arange(len(pending), dtype=np.int64)
            min_owner = self._scratch
            min_owner[ru] = len(pending)
            min_owner[rv] = len(pending)
            np.minimum.at(min_owner, ru, idx)
            np.minimum.at(min_owner, rv, idx)
            min_u = min_owner[ru] == idx
            min_v = min_owner[rv] == idx
            selected = min_u | min_v
            ru_s, rv_s = ru[selected], rv[selected]
            # Hook away from the root the pair is minimal for; a pair
            # minimal for both roots hooks its larger root onto the
            # smaller (breaking the only possible 2-cycles).  Every root
            # is the source of at most one hook (its min pair is
            # unique), so the scatter below has no write conflicts.
            both = min_u[selected] & min_v[selected]
            src = np.where(min_u[selected], ru_s, rv_s)
            dst = np.where(min_u[selected], rv_s, ru_s)
            src = np.where(both, np.maximum(ru_s, rv_s), src)
            dst = np.where(both, np.minimum(ru_s, rv_s), dst)
            parent[src] = dst
            self._components -= len(src)
            merged[pending[selected]] = True
            pending = pending[~selected]
        return merged

    def connected(self, x: int, y: int) -> bool:
        """Return ``True`` when ``x`` and ``y`` are in the same set."""
        return self.find(x) == self.find(y)

    def reset(self) -> None:
        """Return the structure to ``n`` singleton sets."""
        n = len(self._parent)
        self._parent = np.arange(n, dtype=np.int64)
        self._rank[:] = 0
        self._components = n
