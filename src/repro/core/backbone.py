"""Backbone graph initialisation (paper Algorithm 1 and section 3.3).

Every proposed sparsifier starts from an unweighted *backbone* with
``alpha |E|`` edges.  :data:`BACKBONE_METHODS` lists the constructions:

- ``"bgi"`` (Algorithm 1): peel maximum spanning forests off ``G`` (edge
  probabilities act as weights) until a spanning budget ``alpha'`` is
  filled — this guarantees connectivity — then top up to ``alpha |E|``
  by Monte-Carlo sampling the remaining edges with their probabilities.
  The paper sets ``alpha'`` to the minimum of ``0.5 alpha`` and the mass
  of the first six forests; both knobs are exposed.
- ``"random"``: plain Monte-Carlo sampling of edges until the budget is
  reached (the ``-t``-less variants of section 6.1).
- ``"local_degree"``: the Local Degree heuristic of [24], for ablations.
- ``"t_bundle"``: edge-disjoint spanner layers plus the MC top-up
  (footnote 8, :mod:`repro.core.tbundle`).

All builders work on *edge ids* — positions in ``graph.edge_list()`` —
so they compose directly with
:class:`repro.core.discrepancy.SparsificationState`, and all return
**read-only int64 arrays** of edge ids.

Plan-then-instantiate
---------------------
:meth:`BackbonePlan.backbone` is the one builder and the one place that
dispatches on the method; :func:`build_backbone` and :func:`bgi_backbone`
run it on the graph's plan, :meth:`BackbonePlan.of`.  The forest peels
of Algorithm 1 do not depend on ``alpha`` — only on the probability
ordering of the edges.  The plan exploits this: built once per graph, it
runs a single stable argsort plus a vectorised multi-peel Kruskal (on
:class:`repro.utils.unionfind.ArrayUnionFind`) that labels every edge
with its *forest-peel rank*, after which the backbone for **any**
``alpha`` is a prefix slice of the peel order plus the seeded
Monte-Carlo top-up.  Backbones for nested alphas share their forest
prefix (``alpha_1 <= alpha_2`` implies the ``alpha_1`` forest prefix is
a prefix of the ``alpha_2`` one).  The scalar per-call form of
Algorithm 1 is a test oracle (``tests/oracles/backbone.py``) that the
plan matches bit for bit.

One plan per graph
------------------
:meth:`BackbonePlan.of` hands every caller the same plan for a graph
and builds it on first use.  A plan holds the graph's
``edge_index_array()`` and ``probability_array()`` and records its
vertex count; the graph never writes those arrays in place, so every
mutation replaces at least one of the three and the next ``of`` call
builds a fresh plan.  The plan keeps no reference to the graph, which
lets it live exactly as long as the graph does.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import SparsificationError
from repro.utils.rng import check_seed, ensure_rng
from repro.utils.unionfind import ArrayUnionFind

#: Each backbone construction method :meth:`BackbonePlan.backbone`
#: dispatches on, with its options and their defaults.
_METHOD_OPTIONS = {
    "bgi": {"spanning_fraction": 0.5, "max_forests": 6, "top_up": "mc"},
    "random": {},
    "local_degree": {},
    "t_bundle": {"stretch": 2, "max_layers": 8},
}

#: The backbone construction methods.
BACKBONE_METHODS = tuple(_METHOD_OPTIONS)

#: The plan :meth:`BackbonePlan.of` built for each live graph.
_PLANS: "weakref.WeakKeyDictionary[UncertainGraph, BackbonePlan]" = (
    weakref.WeakKeyDictionary()
)
_PLANS_LOCK = threading.Lock()


def target_edge_count(m: int, alpha: float) -> int:
    """Edge budget ``|E'| = alpha |E|`` (rounded, at least 1)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"sparsification ratio alpha must be in (0, 1), got {alpha}")
    if m <= 0:
        raise SparsificationError("cannot sparsify a graph with no edges")
    return max(1, int(round(alpha * m)))


def _as_edge_ids(ids) -> np.ndarray:
    """Normalise a builder result to a read-only int64 edge-id array."""
    arr = np.array(ids, dtype=np.int64, copy=True)
    arr.setflags(write=False)
    return arr


def _mc_top_up_array(
    parts: list[np.ndarray],
    count: int,
    remaining: np.ndarray,
    probabilities: np.ndarray,
    target: int,
    rng: np.random.Generator,
    max_passes: int = 10_000,
) -> int:
    """Fill up to ``target`` edges by sampling ``remaining`` edges.

    Repeated passes over a random permutation, keeping each edge with
    its probability (Algorithm 1, lines 7-11); appends each pass's
    picks to ``parts`` and returns the new count.  Each pass consumes
    one ``rng.permutation`` over the ascending remaining ids plus one
    ``rng.random`` block and keeps accepted edges in permutation order
    (``remaining`` must be sorted ascending — the iteration order of the
    scalar oracle's ``set`` of dense edge ids, which it matches draw for
    draw).  Every probability is strictly positive, so the loop ends
    with probability 1; a deterministic fallback guards against
    pathological RNG streaks.
    """
    passes = 0
    while count < target and len(remaining):
        passes += 1
        if passes > max_passes:
            # Deterministic fallback, ties broken by ascending edge id
            # exactly like the reference's stable sort.
            order = np.argsort(-probabilities[remaining], kind="stable")
            take = remaining[order[: target - count]]
            parts.append(take)
            return count + len(take)
        perm = rng.permutation(remaining)
        draws = rng.random(len(perm))
        hits = np.flatnonzero(draws < probabilities[perm])[: target - count]
        take = perm[hits]
        parts.append(take)
        count += len(take)
        remaining = np.setdiff1d(remaining, take, assume_unique=True)
    return count


def _hash_uniforms(seed: int, pair_keys: np.ndarray) -> np.ndarray:
    """Counter-based per-edge uniforms in ``(0, 1]`` (splitmix64 finaliser).

    A pure function of ``(seed, canonical endpoint pair)``: stable
    across edge-id renumbering and unrelated edge churn, which is what
    makes the ``"stable"`` top-up's selection drift-local.
    """
    mix = (int(seed) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = pair_keys.astype(np.uint64) + np.uint64(mix)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return ((x >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53


def _stable_top_up(
    parts: list[np.ndarray],
    count: int,
    remaining: np.ndarray,
    edge_vertices: np.ndarray,
    probabilities: np.ndarray,
    target: int,
    seed: int,
    n: int,
) -> int:
    """Churn-stable weighted top-up (Efraimidis-Spirakis order statistics).

    Every candidate edge gets the key ``log(u_e) / p_e`` with ``u_e`` a
    seeded hash uniform of its canonical endpoints, and the ``target -
    count`` largest keys win — a weighted sample without replacement
    drawn by order statistics instead of sequential rejection.  Like the
    MC pass it is deterministic under a fixed seed (the repair
    contract), but an edge's key moves only when its *own* probability
    does, so a small delta shifts the selection by O(|delta|) edges
    where the permutation-based pass re-randomises it wholesale.  This
    is what keeps the incremental maintainer's dirty region small along
    a drift stream.
    """
    need = target - count
    if need <= 0 or not len(remaining):
        return count
    ends = edge_vertices[remaining]
    lo = np.minimum(ends[:, 0], ends[:, 1]).astype(np.uint64)
    hi = np.maximum(ends[:, 0], ends[:, 1]).astype(np.uint64)
    u = _hash_uniforms(seed, lo * np.uint64(n) + hi)
    keys = np.log(u) / probabilities[remaining]
    # Largest key wins; ties (hash collisions) break by ascending id.
    order = np.lexsort((remaining, -keys))
    take = np.sort(remaining[order[:need]])
    parts.append(take)
    return count + len(take)


class BackbonePlan:
    """Reusable backbone factory: one Kruskal pass serves every alpha.

    The plan lazily computes the graph's *nested maximum-spanning-forest
    decomposition*: peel 1 is the maximum spanning forest, peel ``k`` the
    maximum spanning forest of the edges left by peels ``1 .. k-1``.  All
    peels share one stable argsort of the probabilities and run as
    vectorised Kruskal sweeps on :class:`~repro.utils.unionfind.ArrayUnionFind`
    (``find_many`` root filtering + order-respecting ``union_batch``), so
    each edge gets a *forest-peel rank* without any per-alpha re-sorting.

    Instantiating a backbone (:meth:`backbone`) is then a prefix slice of
    the peel order — truncated by Algorithm 1's spanning budget — plus
    the seeded Monte-Carlo top-up.  Guarantees:

    - **determinism** — ``plan.backbone(alpha, method, rng=seed)``
      depends only on the graph, the method, its options and
      ``(alpha, seed)``, never on what the plan built before; results
      for int seeds are memoised, so repeated requests are free;
    - **nesting** — for ``alpha_1 <= alpha_2`` (same
      ``spanning_fraction`` / ``max_forests``) the forest prefix of the
      ``alpha_1`` backbone is a prefix of the ``alpha_2`` one;
    - **connectivity** — every peel is a maximal spanning forest, so any
      backbone containing peel 1 spans each connected component.

    Construction is cheap (array grabs only); peels, the local-degree
    ranking and per-seed backbones are computed on first use.  All lazy
    state is guarded by one re-entrant lock, so a single plan can be
    shared by concurrent threads (e.g. the job server's workers) — calls
    that mutate or read lazy structures serialise, and every caller sees
    fully-built peels.  ``BackbonePlan(graph)`` is a fresh plan of its
    own; :meth:`of` is the graph's shared one.
    """

    def __init__(self, graph: UncertainGraph) -> None:
        self.n = graph.number_of_vertices()
        self.edge_vertices = graph.edge_index_array()
        self.probabilities = graph.probability_array()
        self.m = len(self.probabilities)
        self._lock = threading.RLock()
        self._forests: list[np.ndarray] = []
        self._peel_rank = np.zeros(self.m, dtype=np.int64)
        self._unpeeled: "np.ndarray | None" = None  # sorted-order ids left
        self._local_degree_order: "np.ndarray | None" = None
        self._cache: dict = {}

    @classmethod
    def of(cls, graph: UncertainGraph) -> "BackbonePlan":
        """The graph's plan, built on first use and shared by every caller.

        A plan that no longer serves ``graph`` (an in-place
        :func:`~repro.core.delta.apply_delta` replaced its edge arrays
        since) is replaced by a fresh one.  The build runs
        under a module lock, so concurrent callers get one plan and share
        its Kruskal pass.  :func:`copy <UncertainGraph.copy>` does not
        carry the plan along.
        """
        with _PLANS_LOCK:
            plan = cls.lookup(graph)
            if plan is None:
                plan = _PLANS[graph] = cls(graph)
            return plan

    @staticmethod
    def lookup(graph: UncertainGraph) -> "BackbonePlan | None":
        """The plan :meth:`of` would return for ``graph`` if it has one
        already; ``None`` otherwise.  Never builds a plan."""
        plan = _PLANS.get(graph)
        if plan is None or not (
            plan.edge_vertices is graph.edge_index_array()
            and plan.probabilities is graph.probability_array()
        ):
            return None
        return plan

    def cached(self, key, factory):
        """Memoise arbitrary per-graph derived data on the plan.

        Generic companion of the seeded backbone memo: algorithms whose
        preprocessing depends only on the graph (e.g. the NI peel
        structure, keyed ``("ni_peel", max_weight)``) park it here so
        every caller sharing the plan shares the work.  ``factory`` runs
        at most once per ``key`` (concurrent callers serialise on the
        plan lock; ``factory`` may re-enter other plan methods).
        """
        with self._lock:
            if key not in self._cache:
                self._cache[key] = factory()
            return self._cache[key]

    # -- nested forest peels ----------------------------------------------
    @property
    def peel_rank(self) -> np.ndarray:
        """Forest number of each edge (1-based); 0 = not yet peeled.

        Ranks appear as peels are computed (:meth:`ensure_forests`); the
        full decomposition assigns every edge a positive rank.
        """
        with self._lock:
            view = self._peel_rank.view()
        view.setflags(write=False)
        return view

    @property
    def forests_computed(self) -> int:
        """Number of forest peels computed so far."""
        with self._lock:
            return len(self._forests)

    def forest(self, index: int) -> np.ndarray:
        """Edge ids of peel ``index`` (0-based), in acceptance order."""
        with self._lock:
            self.ensure_forests(index + 1)
            return self._forests[index]

    def ensure_forests(self, count: int) -> None:
        """Compute forest peels until ``count`` exist (or edges run out)."""
        with self._lock:
            if self._unpeeled is None:
                order = np.argsort(-self.probabilities, kind="stable")
                self._unpeeled = order
            while len(self._forests) < count and len(self._unpeeled):
                cand = self._unpeeled
                uf = ArrayUnionFind(self.n)
                accepted = uf.union_batch(
                    self.edge_vertices[cand, 0], self.edge_vertices[cand, 1]
                )
                forest = cand[accepted]
                forest.setflags(write=False)
                self._unpeeled = cand[~accepted]
                self._forests.append(forest)
                self._peel_rank[forest] = len(self._forests)

    # -- incremental maintenance ------------------------------------------
    def clone(self) -> "BackbonePlan":
        """Independent copy sharing the (immutable) computed peel arrays.

        The clone has its own lock, forest list, rank labels, memo and
        unpeeled cursor, so repairing or extending it never perturbs the
        original — the server uses this to derive the plan of a drifted
        dataset from the old graph's plan without invalidating in-flight
        readers of the old plan.
        """
        with self._lock:
            twin = BackbonePlan.__new__(BackbonePlan)
            twin.n = self.n
            twin.edge_vertices = self.edge_vertices
            twin.probabilities = self.probabilities
            twin.m = self.m
            twin._lock = threading.RLock()
            twin._forests = list(self._forests)
            twin._peel_rank = self._peel_rank.copy()
            twin._unpeeled = self._unpeeled
            twin._local_degree_order = self._local_degree_order
            twin._cache = dict(self._cache)
            return twin

    def repair(self, applied) -> "BackbonePlan":
        """Incrementally rebind the plan to a delta-mutated graph.

        ``applied`` is the :class:`repro.core.delta.AppliedDelta` returned
        by :func:`repro.core.delta.apply_delta` for this plan's graph.
        The repaired plan is **equivalent to a fresh**
        ``BackbonePlan(applied.graph)`` — same forests, peel ranks,
        unpeeled order and (seeded) backbones, bit-identical — but keeps
        every forest whose rank lies strictly below the *dirty rank*
        verbatim instead of re-peeling it:

        - the dirty rank is the lowest peel rank that the delta can
          affect: the smallest rank among updated/deleted member edges,
          lowered further if a probability increase or an inserted edge
          would be accepted into an earlier forest (decided exactly by
          replaying each candidate against the prefix of that forest's
          members with stronger ``(p, id)`` keys on a fresh
          :class:`~repro.utils.unionfind.ArrayUnionFind`);
        - forests below the dirty rank are kept (edge ids remapped
          through ``applied.id_map`` after structural deltas), ranks
          at or above it return to the unpeeled pool and are re-peeled
          lazily on next use;
        - the seeded-backbone memo is cleared (MC top-up draws depend on
          the unpeeled pool), so repeated ``backbone(alpha, seed)``
          requests recompute once and re-memoise.

        Returns ``self`` (mutated in place, under the plan lock), which
        becomes the plan :meth:`of` returns for ``applied.graph``.
        """
        with self._lock:
            self._repair_locked(applied)
        with _PLANS_LOCK:
            _PLANS[applied.graph] = self
        return self

    def _repair_locked(self, applied) -> None:
        graph = applied.graph
        new_probs = graph.probability_array()
        new_ev = graph.edge_index_array()
        new_m = len(new_probs)

        nothing_computed = self._unpeeled is None and not self._forests
        kept: list[np.ndarray] = []
        if not nothing_computed:
            dirty = self._dirty_rank(applied)
            kept = self._forests[: dirty - 1]
            if applied.structural:
                id_map = applied.id_map
                remapped = []
                for f in kept:
                    # Kept forests contain no deleted edge (a deleted
                    # member caps the dirty rank at its own rank), so
                    # the remap is total; id_map is monotone on
                    # survivors, which preserves acceptance order.
                    nf = id_map[f]
                    nf.setflags(write=False)
                    remapped.append(nf)
                kept = remapped

        self.n = graph.number_of_vertices()
        self.edge_vertices = new_ev
        self.probabilities = new_probs
        self.m = new_m
        self._forests = kept
        self._peel_rank = np.zeros(new_m, dtype=np.int64)
        for rank, f in enumerate(kept, start=1):
            self._peel_rank[f] = rank
        if nothing_computed:
            self._unpeeled = None
        else:
            alive = np.ones(new_m, dtype=bool)
            for f in kept:
                alive[f] = False
            cand = np.flatnonzero(alive)
            # Sorted by (-p, id): identical to the fresh plan's unpeeled
            # cursor after peeling the kept ranks (stable subsequence of
            # the global probability sort).
            self._unpeeled = cand[np.argsort(-new_probs[cand], kind="stable")]
        self._cache = {}
        if applied.structural:
            self._local_degree_order = None

    def _dirty_rank(self, applied) -> int:
        """Lowest peel rank the delta can affect (``K+1`` = none).

        Rank ``r`` members that were updated or deleted dirty rank ``r``
        directly — even a probability change that keeps the forest *set*
        intact moves the member inside the acceptance order, and the
        repair contract is bit-identity of the stored arrays.  On top of
        that, every strictly-increased edge and every insert is tested
        for entry into each cleaner forest ``k``: it enters iff its
        endpoints are not connected by the members of forest ``k`` with
        stronger ``(p, id)`` key — a prefix of the acceptance-ordered
        forest array, replayed through one progressive ``union_batch``
        sweep per forest with the candidates visited in breakpoint
        order.
        """
        batch = applied.batch
        K = len(self._forests)
        infinity = K + 1
        dirty = infinity

        changed = np.flatnonzero(batch.update_ps != applied.old_update_ps)
        touched = np.concatenate(
            [batch.update_eids[changed], batch.delete_eids]
        )
        if len(touched):
            ranks = self._peel_rank[touched]
            ranks = ranks[ranks > 0]
            if len(ranks):
                dirty = min(dirty, int(ranks.min()))
        if dirty == 1:
            return 1

        # Entry candidates: probability increases (old rank 0 edges, and
        # ranked members probing forests cleaner than their capped rank)
        # plus inserted edges.  Decreases can never enter an earlier
        # forest: they were already rejected there at a higher key.
        id_map = applied.id_map
        inc = np.flatnonzero(batch.update_ps > applied.old_update_ps)
        entrant_ids = np.concatenate(
            [id_map[batch.update_eids[inc]], applied.insert_eids]
        )
        entrant_ps = np.concatenate([batch.update_ps[inc], batch.insert_ps])
        if not len(entrant_ids):
            return dirty
        new_ev = applied.graph.edge_index_array()
        ends_u = new_ev[entrant_ids, 0]
        ends_v = new_ev[entrant_ids, 1]
        for k in range(1, min(dirty, infinity)):
            forest = self._forests[k - 1]
            if not len(forest):
                continue
            # Forest members keep their old probabilities (any updated
            # member would have capped ``dirty`` at or below ``k``), and
            # the array is acceptance-ordered: descending probability,
            # ascending id within ties — in both id spaces, because
            # id_map is monotone on survivors.
            fp = self.probabilities[forest]
            fid = id_map[forest]
            bps = np.searchsorted(-fp, -entrant_ps, side="left")
            rights = np.searchsorted(-fp, -entrant_ps, side="right")
            for i in np.flatnonzero(rights > bps):
                lo, hi = int(bps[i]), int(rights[i])
                bps[i] = lo + int(
                    np.searchsorted(fid[lo:hi], entrant_ids[i])
                )
            order = np.argsort(bps, kind="stable")
            uf = ArrayUnionFind(self.n)
            fu = self.edge_vertices[forest, 0]
            fv = self.edge_vertices[forest, 1]
            pos = 0
            for i in order:
                bp = int(bps[i])
                if bp > pos:
                    uf.union_batch(fu[pos:bp], fv[pos:bp])
                    pos = bp
                if not uf.connected(int(ends_u[i]), int(ends_v[i])):
                    return k
        return dirty

    def forest_prefix(
        self,
        alpha: float,
        spanning_fraction: float = 0.5,
        max_forests: int = 6,
    ) -> np.ndarray:
        """Forest edges of the ``alpha`` backbone (before MC top-up).

        Algorithm 1's spanning phase as a prefix of the peel order: the
        whole first forest (connectivity), then further peels while the
        spanning budget ``spanning_fraction * alpha * |E|`` has room, up
        to ``max_forests`` peels, truncated at the edge budget.  Nested
        across alphas by construction.
        """
        with self._lock:
            return self._forest_prefix_locked(alpha, spanning_fraction, max_forests)

    def _forest_prefix_locked(
        self, alpha: float, spanning_fraction: float, max_forests: int
    ) -> np.ndarray:
        target = target_edge_count(self.m, alpha)
        self.ensure_forests(1)
        first = self._forests[0] if self._forests else np.empty(0, dtype=np.int64)
        if len(first) > target:
            raise SparsificationError(
                f"alpha={alpha} keeps {target} edges but a spanning forest needs "
                f"{len(first)}; connectivity cannot be preserved "
                f"(require alpha >= (|V|-1)/|E|)"
            )
        parts = [first]
        count = len(first)
        spanning_budget = int(spanning_fraction * alpha * self.m)
        forests_built = 1
        while (
            count < spanning_budget
            and forests_built < max_forests
            and count < self.m
            and count < target
        ):
            self.ensure_forests(forests_built + 1)
            if len(self._forests) <= forests_built:
                break
            forest = self._forests[forests_built]
            if not len(forest):
                break
            if count + len(forest) > target:
                forest = forest[: target - count]
            parts.append(forest)
            count += len(forest)
            forests_built += 1
        prefix = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        prefix.setflags(write=False)
        return prefix

    # -- instantiation ----------------------------------------------------
    def backbone(
        self,
        alpha: float,
        method: str = "bgi",
        rng: "int | np.random.Generator | None" = None,
        **kwargs,
    ) -> np.ndarray:
        """Backbone edge ids for ``alpha`` under ``method``.

        ``method`` is one of :data:`BACKBONE_METHODS`; ``kwargs`` are its
        options: ``spanning_fraction``, ``max_forests`` and ``top_up``
        (``"mc"`` or ``"stable"``) for ``"bgi"``, ``stretch`` and
        ``max_layers`` for ``"t_bundle"``, none for the others.  ``rng``
        is a seed, a generator or ``None``; a seed is checked here once
        for every method (:func:`~repro.utils.rng.check_seed`).  Results
        for int seeds are memoised (backbones are deterministic given
        ``(method, alpha, seed)`` and the options, explicit defaults
        included), so ladder drivers that re-seed per alpha get each
        cell's backbone exactly once.
        """
        if method not in _METHOD_OPTIONS:
            raise ValueError(f"unknown backbone method: {method!r}")
        defaults = _METHOD_OPTIONS[method]
        unknown = sorted(set(kwargs) - set(defaults))
        if unknown:
            raise TypeError(f"{method} backbone takes no options {unknown}")
        options = {**defaults, **kwargs}
        if rng is not None and not isinstance(rng, np.random.Generator):
            rng = check_seed(rng)
        key = None
        if isinstance(rng, int) or (rng is None and method == "local_degree"):
            key = (method, float(alpha), rng, tuple(sorted(options.items())))
        with self._lock:
            if key is not None and key in self._cache:
                return self._cache[key]
            ids = _as_edge_ids(self._instantiate(alpha, method, rng, options))
            if key is not None:
                self._cache[key] = ids
            return ids

    def _instantiate(self, alpha, method, rng, options) -> np.ndarray:
        if method == "t_bundle":
            from repro.core.tbundle import t_bundle_backbone

            return t_bundle_backbone(
                self.n, self.edge_vertices, self.probabilities, alpha,
                rng=rng, **options,
            )
        target = target_edge_count(self.m, alpha)
        if method == "local_degree":
            if self._local_degree_order is None:
                self._local_degree_order = _local_degree_order(
                    self.n, self.edge_vertices
                )
            return self._local_degree_order[:target]
        if method == "random":
            parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
            _mc_top_up_array(
                parts, 0, np.arange(self.m, dtype=np.int64),
                self.probabilities, target, ensure_rng(rng),
            )
            return np.concatenate(parts)
        # "bgi": Algorithm 1's forest prefix, then the chosen top-up.
        opts = dict(options)
        top_up = opts.pop("top_up")
        if top_up not in ("mc", "stable"):
            raise SparsificationError(
                f"unknown top_up {top_up!r} (use 'mc' or 'stable')"
            )
        prefix = self.forest_prefix(alpha, **opts)
        remaining = np.setdiff1d(
            np.arange(self.m, dtype=np.int64), prefix, assume_unique=True
        )
        parts = [prefix]
        if top_up == "mc":
            _mc_top_up_array(
                parts, len(prefix), remaining, self.probabilities,
                target, ensure_rng(rng),
            )
        elif rng is None or isinstance(rng, np.random.Generator):
            raise SparsificationError(
                "the stable top-up needs an integer seed (its hash keys "
                "are a pure function of the seed)"
            )
        else:
            _stable_top_up(
                parts, len(prefix), remaining, self.edge_vertices,
                self.probabilities, target, rng, self.n,
            )
        return np.concatenate(parts)


def bgi_backbone(
    graph: UncertainGraph,
    alpha: float,
    rng: "int | np.random.Generator | None" = None,
    spanning_fraction: float = 0.5,
    max_forests: int = 6,
) -> np.ndarray:
    """Backbone Graph Initialisation (Algorithm 1).

    Returns the ids of ``alpha |E|`` edges as a read-only int64 array:
    first the union of maximum spanning forests (connectivity backbone),
    then Monte-Carlo top-up.  ``build_backbone(method="bgi")`` under
    Algorithm 1's name.

    Parameters
    ----------
    graph:
        The uncertain graph to sparsify.
    alpha:
        Sparsification ratio in ``(0, 1)``.
    rng:
        Seed / generator for the Monte-Carlo top-up.
    spanning_fraction:
        Fraction of the budget that may be filled by spanning forests
        (the paper's ``0.5 alpha`` rule).
    max_forests:
        Stop peeling forests after this many (the paper's "first six").

    Raises
    ------
    SparsificationError
        If ``alpha |E|`` is smaller than a single spanning tree, i.e.
        ``alpha < (|V| - 1) / |E|`` for a connected graph (the paper's
        footnote 7 assumption).
    """
    return build_backbone(
        graph, alpha, method="bgi", rng=rng,
        spanning_fraction=spanning_fraction, max_forests=max_forests,
    )


def _local_degree_order(n: int, edge_vertices: np.ndarray) -> np.ndarray:
    """Full Local-Degree nomination ranking of all edges (alpha-free).

    Every vertex ranks its neighbours by descending degree, ties by
    ascending dense id, so the ranking is a pure function of the edge
    arrays: the order incident edges were created in never leaks in.  An
    edge scores its better nomination position over both endpoints,
    divided by that endpoint's degree; edges are ordered by score, ties
    by ascending id.
    """
    m = len(edge_vertices)
    owner = edge_vertices.reshape(-1)  # half-edge 2e + side, at its owner
    other = edge_vertices[:, ::-1].reshape(-1)
    degree = np.bincount(owner, minlength=n)
    by_owner = np.lexsort((other, -degree[other], owner))
    first_slot = np.cumsum(degree) - degree
    position = np.empty(2 * m, dtype=np.int64)
    position[by_owner] = (
        np.arange(2 * m, dtype=np.int64) - first_slot[owner[by_owner]]
    )
    score = position / np.maximum(degree[owner], 1)
    score = np.minimum(score[0::2], score[1::2])
    return np.lexsort((np.arange(m, dtype=np.int64), score))


def build_backbone(
    graph: UncertainGraph,
    alpha: float,
    method: str = "bgi",
    rng: "int | np.random.Generator | None" = None,
    **kwargs,
) -> np.ndarray:
    """Backbone edge ids of ``graph`` for ``alpha`` under ``method``.

    ``method`` is one of ``"bgi"`` (Algorithm 1, the ``-t`` variants),
    ``"random"`` (Monte-Carlo sampling), ``"local_degree"`` ([24]) or
    ``"t_bundle"`` (edge-disjoint spanner layers, footnote 8 / [21]);
    ``rng`` and ``kwargs`` follow :meth:`BackbonePlan.backbone`.
    Returns a read-only int64 edge-id array, built on the graph's plan
    (:meth:`BackbonePlan.of`), so calls on one graph share its Kruskal
    peels and, for int seeds, the backbones themselves.
    """
    return BackbonePlan.of(graph).backbone(alpha, method=method, rng=rng, **kwargs)
