"""BackbonePlan: nested peels, seeded bit-identity, one plan per graph."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.backbone import _mc_top_up, bgi_backbone_legacy, local_degree_order
from oracles.unionfind import UnionFind
from repro.core import (
    GDBConfig,
    UncertainGraph,
    available_variants,
    gdb,
    gdb_grid,
    sparsify,
)
from repro.core.backbone import (
    BACKBONE_METHODS,
    BackbonePlan,
    _local_degree_order,
    _mc_top_up_array,
    bgi_backbone,
    build_backbone,
    target_edge_count,
)
from repro.core.delta import EdgeDeltaBatch, apply_delta
from repro.core.emd_sparsifier import emd
from repro.core.lp import lp_sparsify
from repro.datasets import flickr_like, twitter_like

ALPHAS = (0.3, 0.45, 0.6, 0.85)


@pytest.fixture
def graph():
    return flickr_like(n=70, avg_degree=12, seed=4)


@pytest.fixture
def plan(graph):
    return BackbonePlan(graph)


class TestSeededEquivalence:
    """Plan-based construction is bit-identical to the legacy builder."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_bgi_matches_legacy(self, graph, plan, alpha, seed):
        legacy = bgi_backbone_legacy(graph, alpha, rng=seed)
        assert np.array_equal(plan.backbone(alpha, rng=seed), legacy)
        assert np.array_equal(bgi_backbone(graph, alpha, rng=seed), legacy)

    def test_reuse_does_not_perturb_draws(self, graph, plan):
        # Warm the plan with other alphas/seeds first: the MC top-up for
        # a given (alpha, seed) must not depend on plan history.
        for alpha in ALPHAS:
            plan.backbone(alpha, rng=99)
        for seed in (0, 7):
            for alpha in ALPHAS:
                assert np.array_equal(
                    plan.backbone(alpha, rng=seed),
                    bgi_backbone_legacy(graph, alpha, rng=seed),
                )

    def test_generator_rng_draws_sequentially(self, graph, plan):
        seq_plan = [
            plan.backbone(a, rng=rng)
            for rng in [np.random.default_rng(3)]
            for a in ALPHAS
        ]
        rng = np.random.default_rng(3)
        seq_legacy = [bgi_backbone_legacy(graph, a, rng=rng) for a in ALPHAS]
        for got, want in zip(seq_plan, seq_legacy):
            assert np.array_equal(got, want)

    def test_spanning_knobs_forwarded(self, graph, plan):
        for kwargs in (
            dict(spanning_fraction=0.0),
            dict(max_forests=1),
            dict(spanning_fraction=0.9, max_forests=3),
        ):
            legacy = bgi_backbone_legacy(graph, 0.5, rng=2, **kwargs)
            assert np.array_equal(plan.backbone(0.5, rng=2, **kwargs), legacy)
            assert np.array_equal(bgi_backbone(graph, 0.5, rng=2, **kwargs), legacy)

    def test_concurrent_sharing_is_serially_equivalent(self, graph):
        # One plan shared by many threads (the job server's workers)
        # must produce bit-identical backbones to a serial plan: the
        # lazy peel/memo state is lock-protected, so no interleaving
        # can corrupt peel ranks.
        import threading

        reference = BackbonePlan(graph)
        expected = {
            (alpha, seed): reference.backbone(alpha, rng=seed)
            for alpha in ALPHAS for seed in (0, 7)
        }
        for trial in range(3):
            shared = BackbonePlan(graph)
            results: dict = {}
            barrier = threading.Barrier(len(expected))

            def build(alpha, seed, plan=shared, out=results, gate=barrier):
                gate.wait()
                out[(alpha, seed)] = plan.backbone(alpha, rng=seed)

            threads = [
                threading.Thread(target=build, args=key) for key in expected
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            for key, want in expected.items():
                assert np.array_equal(results[key], want), key
            assert np.array_equal(shared.peel_rank, reference.peel_rank)

    def test_random_and_local_degree_ride_the_plan(self, graph, plan):
        # A shared plan warmed by other methods and alphas builds what a
        # fresh one does.
        plan.backbone(0.5, rng=3)
        for alpha in (0.25, 0.6):
            assert np.array_equal(
                plan.backbone(alpha, method="random", rng=11),
                build_backbone(graph, alpha, method="random", rng=11),
            )
            assert np.array_equal(
                plan.backbone(alpha, method="local_degree"),
                build_backbone(graph, alpha, method="local_degree"),
            )

    def test_t_bundle_falls_back(self, graph):
        # t-bundle has no alpha-free plan state; the graph's plan
        # memoises its int-seed results and builds what a fresh plan does.
        shared = BackbonePlan.of(graph)
        shared.backbone(0.4, rng=5)
        via_plan = build_backbone(graph, 0.4, method="t_bundle", rng=5)
        direct = BackbonePlan(graph).backbone(0.4, method="t_bundle", rng=5)
        assert np.array_equal(via_plan, direct)
        assert shared.backbone(0.4, method="t_bundle", rng=5) is via_plan

    @pytest.mark.parametrize("method, defaults", [
        ("bgi", dict(spanning_fraction=0.5, max_forests=6, top_up="mc")),
        ("t_bundle", dict(stretch=2, max_layers=8)),
    ])
    def test_explicit_defaults_share_the_memo(self, plan, method, defaults):
        bare = plan.backbone(0.4, method=method, rng=5)
        for name, value in defaults.items():
            assert plan.backbone(0.4, method=method, rng=5,
                                 **{name: value}) is bare
        assert plan.backbone(0.4, method=method, rng=5, **defaults) is bare

    def test_unknown_option_rejected(self, plan):
        for method in BACKBONE_METHODS:
            with pytest.raises(TypeError, match="no options"):
                plan.backbone(0.4, method=method, rng=5, stretchh=3)

    def test_local_degree_matches_oracle(self, graph):
        scrambled = UncertainGraph(
            [(f"v{v}", f"v{u}", p) for u, v, p in reversed(list(graph.edges()))],
            vertices=["isolated"],
        )
        ties = UncertainGraph([(i, (i + 1) % 12, 0.5) for i in range(12)])
        for g in (graph, scrambled, ties,
                  twitter_like(n=80, avg_degree=6, seed=2)):
            assert np.array_equal(
                _local_degree_order(g.number_of_vertices(), g.edge_index_array()),
                local_degree_order(g),
            )

    @pytest.mark.parametrize("alpha", [0.25, 0.6])
    def test_random_matches_oracle_top_up(self, graph, plan, alpha):
        """The random backbone is Algorithm 1's top-up from nothing."""
        probabilities = np.array(graph.probability_array())
        target = target_edge_count(graph.number_of_edges(), alpha)
        for seed in (0, 11):
            chosen: list[int] = []
            _mc_top_up(chosen, set(range(graph.number_of_edges())),
                       probabilities, target, np.random.default_rng(seed))
            assert plan.backbone(alpha, method="random", rng=seed).tolist() == chosen
        ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
        ids = plan.backbone(alpha, method="random", rng=ours)
        chosen = []
        _mc_top_up(chosen, set(range(graph.number_of_edges())),
                   probabilities, target, theirs)
        assert ids.tolist() == chosen
        assert ours.random() == theirs.random()  # same draws consumed

    def test_int_seed_backbones_memoised(self, graph, plan):
        a = plan.backbone(0.4, rng=8)
        b = plan.backbone(0.4, rng=8)
        assert a is b
        assert plan.backbone(0.4, rng=9) is not a


class TestNestedInvariants:
    def test_forest_prefix_nested_across_alphas(self, plan):
        prev = plan.forest_prefix(ALPHAS[0])
        for alpha in ALPHAS[1:]:
            cur = plan.forest_prefix(alpha)
            assert len(cur) >= len(prev)
            assert np.array_equal(cur[: len(prev)], prev)
            prev = cur

    def test_smaller_alpha_prefix_within_larger_backbone_ranks(self, plan):
        # The alpha_1 forest prefix lands inside the alpha_2 backbone,
        # and every prefix edge carries a forest-peel rank.
        small = plan.forest_prefix(ALPHAS[0])
        big = set(plan.backbone(ALPHAS[-1], rng=0).tolist())
        assert set(small.tolist()) <= big
        assert (plan.peel_rank[small] > 0).all()

    def test_peel_ranks_label_forests(self, graph, plan):
        plan.ensure_forests(3)
        for index in range(plan.forests_computed):
            forest = plan.forest(index)
            assert (plan.peel_rank[forest] == index + 1).all()
        # Ranks partition: computed forests are disjoint.
        labelled = np.flatnonzero(plan.peel_rank)
        forests = np.concatenate(
            [plan.forest(i) for i in range(plan.forests_computed)]
        )
        assert sorted(forests.tolist()) == sorted(labelled.tolist())
        assert len(np.unique(forests)) == len(forests)

    def test_each_peel_is_a_maximal_spanning_forest(self, graph, plan):
        """Connectivity guarantee per peel: forest k spans every component
        of the residual graph (all edges minus peels 1..k-1), acyclically."""
        plan.ensure_forests(4)
        edge_vertices = plan.edge_vertices
        residual = np.arange(plan.m)
        for index in range(plan.forests_computed):
            forest = plan.forest(index)
            # Acyclic: every forest edge merges two components.
            uf = UnionFind(plan.n)
            for eid in forest:
                u, v = edge_vertices[eid]
                assert uf.union(int(u), int(v))
            # Maximal: adding any other residual edge closes a cycle.
            rest = np.setdiff1d(residual, forest, assume_unique=True)
            for eid in rest:
                u, v = edge_vertices[eid]
                assert uf.connected(int(u), int(v))
            residual = rest

    def test_peel_one_keeps_backbone_connected(self, graph, plan):
        ids = plan.backbone(0.4, rng=0)
        edge_list = graph.edge_list()
        probs = graph.probability_array()
        sub = graph.subgraph_with_edges(
            (edge_list[e][0], edge_list[e][1], float(probs[e])) for e in ids
        )
        assert sub.is_connected()

    def test_full_decomposition_assigns_every_edge(self, plan):
        plan.ensure_forests(plan.m)  # decompose to exhaustion
        assert (plan.peel_rank > 0).all()
        sizes = [len(plan.forest(i)) for i in range(plan.forests_computed)]
        assert sum(sizes) == plan.m
        # Peels shrink (weakly): later residual graphs are sparser.
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestNormalisedReturns:
    def test_builders_return_read_only_int64(self, graph, plan):
        results = [
            bgi_backbone(graph, 0.4, rng=0),
            *(build_backbone(graph, 0.4, method=m, rng=0)
              for m in BACKBONE_METHODS),
            build_backbone(graph, 0.4, top_up="stable", rng=0),
            plan.backbone(0.4, rng=0),
            plan.forest_prefix(0.4),
        ]
        for ids in results:
            assert isinstance(ids, np.ndarray)
            assert ids.dtype == np.int64
            assert not ids.flags.writeable


class TestMCTopUpFallback:
    """``_mc_top_up_array``'s deterministic fallback (taken once
    ``max_passes`` passes leave the budget short) against the oracle."""

    @pytest.mark.parametrize("probabilities", ["spread", "tied"])
    @pytest.mark.parametrize("max_passes", [0, 1, 2])
    def test_fallback_matches_oracle(self, probabilities, max_passes):
        m = 200
        rng = np.random.default_rng(5)
        if probabilities == "spread":
            probs = rng.uniform(0.001, 0.2, size=m)
        else:  # ties decide the order: ascending edge id
            probs = rng.choice([0.01, 0.05, 0.1], size=m)
        for count, target in ((0, 150), (40, 190), (10, 11)):
            start = np.arange(count, dtype=np.int64)
            remaining = np.arange(count, m, dtype=np.int64)
            ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
            parts = [start]
            got = _mc_top_up_array(parts, count, remaining, probs, target,
                                   ours, max_passes=max_passes)
            chosen = start.tolist()
            _mc_top_up(chosen, set(range(count, m)), probs, target, theirs,
                       max_passes=max_passes)
            assert got == len(chosen) == target
            assert np.concatenate(parts).tolist() == chosen
            assert ours.random() == theirs.random()


class TestSeedBoundary:
    """One seed check for every method at ``BackbonePlan.backbone``."""

    @pytest.mark.parametrize("method", BACKBONE_METHODS)
    def test_bool_seed_rejected(self, graph, plan, method):
        for seed in (True, False):
            with pytest.raises(TypeError):
                plan.backbone(0.4, method=method, rng=seed)

    @pytest.mark.parametrize("top_up", ["mc", "stable"])
    def test_negative_seed_rejected_by_both_top_ups(self, plan, top_up):
        with pytest.raises(ValueError, match="non-negative"):
            plan.backbone(0.4, rng=-3, top_up=top_up)

    @pytest.mark.parametrize("method", BACKBONE_METHODS)
    def test_negative_seed_rejected_by_every_method(self, graph, method):
        with pytest.raises(ValueError, match="non-negative"):
            build_backbone(graph, 0.4, method=method, rng=-3)

    def test_numpy_seed_shares_the_int_memo(self, plan):
        assert plan.backbone(0.4, rng=np.int64(8)) is plan.backbone(0.4, rng=8)


def _warm(graph):
    """Use the graph's plan for other alphas, seeds and methods."""
    for alpha, seed in ((0.3, 1), (0.55, 2)):
        for method in BACKBONE_METHODS:
            build_backbone(graph, alpha, method=method, rng=seed)
        build_backbone(graph, alpha, rng=seed, top_up="stable")
        for variant in ("NI", "GDB^R", "EMD^A-t"):
            sparsify(graph, alpha, variant=variant, rng=seed)


class TestPlanThreading:
    def test_gdb_emd_lp_accept_plan(self, graph):
        # The facades build on the graph's plan, warm or not.
        _warm(graph)
        for fn in (gdb, emd, lp_sparsify):
            direct = fn(graph.copy(), alpha=0.4, rng=6)
            planned = fn(graph, alpha=0.4, rng=6)
            assert list(planned.edges()) == list(direct.edges())

    def test_sparsify_accepts_plan(self, graph):
        """Every variant on a graph whose plan other alphas, seeds and
        variants already used equals the same call on a fresh copy."""
        _warm(graph)
        for variant in available_variants():
            direct = sparsify(graph.copy(), 0.4, variant=variant, rng=6)
            planned = sparsify(graph, 0.4, variant=variant, rng=6)
            assert list(planned.edges()) == list(direct.edges()), variant

    def test_sparsify_precomputed_backbone(self, graph):
        ids = BackbonePlan.of(graph).backbone(0.4, rng=6)
        direct = sparsify(graph, 0.4, variant="GDB^A-t", rng=6)
        seeded = gdb(graph, backbone_ids=ids)
        assert seeded.isomorphic_probabilities(direct, tol=0.0)

    def test_sparsify_rejects_plan_for_benchmarks(self, graph):
        # No variant takes a plan or a backbone.
        with pytest.raises(TypeError):
            sparsify(graph, 0.4, variant="SP", rng=0,
                     backbone_plan=BackbonePlan(graph))
        with pytest.raises(TypeError):
            sparsify(graph, 0.4, variant="RANDOM", rng=0,
                     backbone=np.arange(3))

    def test_sparsify_rejects_backbone_plus_plan(self, graph):
        with pytest.raises(TypeError):
            sparsify(graph, 0.4, variant="GDB^A", rng=0,
                     backbone_plan=BackbonePlan(graph), backbone=np.arange(3))

    def test_plan_for_other_graph_rejected(self, graph):
        other = twitter_like(n=50, avg_degree=8, seed=1)
        assert BackbonePlan.of(other) is not BackbonePlan.of(graph)
        with pytest.raises(TypeError):
            build_backbone(graph, 0.4, rng=0, plan=BackbonePlan(other))
        with pytest.raises(TypeError):
            gdb_grid(graph, alphas=(0.4,), h_values=(0.05,), rng=0,
                     backbone_plan=BackbonePlan(other))

    def test_plan_with_explicit_backbone_ids_rejected(self, graph):
        ids = build_backbone(graph, 0.4, rng=0)
        with pytest.raises(ValueError):
            gdb(graph, alpha=0.4, backbone_ids=ids)


#: Every way to change a graph (an in-place ``apply_delta``), each of
#: which must retire its plan.
MUTATIONS = {
    "apply_delta_probabilities": lambda g: apply_delta(
        g, EdgeDeltaBatch(update_eids=[1, 4], update_ps=[0.2, 0.8])
    ),
    "apply_delta_structural": lambda g: apply_delta(
        g, EdgeDeltaBatch(update_eids=[2], update_ps=[0.3], delete_eids=[5])
    ),
}


def _plan_outputs(plan):
    return [
        plan.backbone(0.5, method=method, rng=3) for method in BACKBONE_METHODS
    ] + [plan.backbone(0.5, rng=3, top_up="stable")]


class TestOnePlanPerGraph:
    def test_of_is_shared_and_the_constructor_is_not(self, graph):
        fresh = BackbonePlan(graph)
        assert BackbonePlan.lookup(graph) is None  # nothing built yet
        shared = BackbonePlan.of(graph)
        assert shared is not fresh
        assert BackbonePlan.of(graph) is shared
        assert BackbonePlan.lookup(graph) is shared

    def test_copy_does_not_share_the_plan(self, graph):
        shared = BackbonePlan.of(graph)
        copy = graph.copy()
        assert BackbonePlan.lookup(copy) is None
        assert BackbonePlan.of(copy) is not shared
        assert BackbonePlan.of(graph) is shared

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_every_mutation_retires_the_plan(self, graph, mutation):
        stale = BackbonePlan.of(graph)
        _plan_outputs(stale)
        MUTATIONS[mutation](graph)
        assert BackbonePlan.lookup(graph) is None
        plan = BackbonePlan.of(graph)
        assert plan is not stale
        for got, want in zip(_plan_outputs(plan),
                             _plan_outputs(BackbonePlan(graph.copy()))):
            assert np.array_equal(got, want)

    def test_empty_updates_keep_the_plan(self, graph):
        plan = BackbonePlan.of(graph)
        apply_delta(graph, EdgeDeltaBatch())
        assert BackbonePlan.of(graph) is plan

    def test_repair_makes_the_plan_of_the_new_graph(self, graph):
        plan = BackbonePlan.of(graph)
        _plan_outputs(plan)
        batch = EdgeDeltaBatch(update_eids=[0], update_ps=[0.99],
                               delete_eids=[7])
        applied = apply_delta(graph, batch, in_place=False)
        repaired = plan.clone().repair(applied)
        assert BackbonePlan.of(applied.graph) is repaired
        assert BackbonePlan.of(graph) is plan
        for got, want in zip(_plan_outputs(repaired),
                             _plan_outputs(BackbonePlan(applied.graph))):
            assert np.array_equal(got, want)

    def test_concurrent_callers_get_one_plan(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                graph = flickr_like(n=40, avg_degree=8, seed=trial)
                gate = threading.Barrier(4)
                got = []

                def fetch():
                    gate.wait(timeout=10)
                    got.append(BackbonePlan.of(graph))

                threads = [threading.Thread(target=fetch) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert len(got) == 4
                assert all(plan is got[0] for plan in got)
        finally:
            sys.setswitchinterval(interval)


class TestGridLadder:
    def test_grid_backbones_bit_identical_to_independent_builds(self, graph):
        alphas = (0.35, 0.5)
        h_values = (0.0, 0.05, 1.0)
        cells = gdb_grid(
            graph, alphas=alphas, h_values=h_values, rng=9,
            build_graphs=False,
        )
        for (alpha, h), cell in cells.items():
            assert np.array_equal(
                cell.backbone, bgi_backbone_legacy(graph, alpha, rng=9)
            )

    def test_one_plan_serves_whole_ladder(self, graph):
        alphas = (0.35, 0.5)
        cells = gdb_grid(
            graph, alphas=alphas, h_values=(0.05,), rng=9,
            build_graphs=False,
        )
        # The graph's plan memoises per (alpha, seed): grid backbones
        # are the exact arrays it hands to direct calls.
        plan = BackbonePlan.of(graph)
        for (alpha, h), cell in cells.items():
            assert cell.backbone is plan.backbone(alpha, rng=9)

    def test_consume_receives_backbone_ids(self, graph):
        seen = {}

        def consume(cell):
            seen[(cell.alpha, cell.h)] = cell.backbone
            return cell.objective

        gdb_grid(
            graph, alphas=(0.4,), h_values=(0.0, 1.0), rng=4,
            build_graphs=False, consume=consume,
        )
        expected = bgi_backbone_legacy(graph, 0.4, rng=4)
        for ids in seen.values():
            assert np.array_equal(ids, expected)

    def test_grid_cells_match_plain_gdb_with_plan_backbone(self, graph):
        cells = gdb_grid(graph, alphas=(0.5,), h_values=(0.05,), rng=2)
        cell = cells[(0.5, 0.05)]
        direct = gdb(
            graph, backbone_ids=cell.backbone, config=GDBConfig(h=0.05),
        )
        assert cell.graph.isomorphic_probabilities(direct, tol=0.0)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 500),
    alpha=st.floats(min_value=0.3, max_value=0.9),
)
def test_property_plan_matches_legacy(seed, alpha):
    graph = flickr_like(n=40, avg_degree=10, seed=seed % 4)
    plan = BackbonePlan(graph)
    assert np.array_equal(
        plan.backbone(alpha, rng=seed),
        bgi_backbone_legacy(graph, alpha, rng=seed),
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 200),
    lo=st.floats(min_value=0.3, max_value=0.55),
    hi=st.floats(min_value=0.6, max_value=0.95),
)
def test_property_forest_prefix_nesting(seed, lo, hi):
    graph = twitter_like(n=40, avg_degree=10, seed=seed % 3)
    plan = BackbonePlan(graph)
    small = plan.forest_prefix(lo)
    big = plan.forest_prefix(hi)
    assert np.array_equal(big[: len(small)], small)
    assert len(small) <= target_edge_count(graph.number_of_edges(), lo)
