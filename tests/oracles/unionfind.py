"""Scalar list-based union-find.

:class:`UnionFind` is the one-union-at-a-time reference that
:class:`repro.utils.unionfind.ArrayUnionFind` is checked against
(``tests/test_unionfind.py``: ``union_batch`` accepts exactly the pairs
sequential :meth:`UnionFind.union` calls accept, and both hold the same
partition).  The scalar backbone, NI and graph oracles run on it.
"""

from __future__ import annotations


class UnionFind:
    """Union-find over the integers ``0 .. n-1``.

    Implements union by rank and path halving; both ``find`` and
    ``union`` run in effectively-constant amortised time.

    Parameters
    ----------
    n:
        Number of elements.  Elements are the integers ``0 .. n-1``.
    """

    __slots__ = ("_parent", "_rank", "_components")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"element count must be non-negative, got {n}")
        self._parent = list(range(n))
        self._rank = [0] * n
        self._components = n

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def components(self) -> int:
        """Number of disjoint sets currently tracked."""
        return self._components

    def find(self, x: int) -> int:
        """Return the representative of the set containing ``x``."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the sets containing ``x`` and ``y``.

        Returns
        -------
        bool
            ``True`` if a merge happened, ``False`` if the two elements
            were already in the same set.
        """
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

    def connected(self, x: int, y: int) -> bool:
        """Return ``True`` when ``x`` and ``y`` are in the same set."""
        return self.find(x) == self.find(y)

    def reset(self) -> None:
        """Return the structure to ``n`` singleton sets."""
        n = len(self._parent)
        self._parent = list(range(n))
        self._rank = [0] * n
        self._components = n
