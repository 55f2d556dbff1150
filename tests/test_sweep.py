"""GDB sweeps: coloring, the colored-sweep oracle, equivalence with the
scalar reference loop, grid driver."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.gdb import (
    loop_refine,
    reference_colored_sweep,
    reference_extend_colors,
    reference_greedy_edge_coloring,
)
from oracles.rules import degree_step_absolute_array, degree_step_relative_array
from repro.core import (
    GDBConfig,
    SparsificationState,
    build_sweep_plan,
    d1_objective,
    gdb,
    gdb_grid,
    gdb_refine,
    greedy_edge_coloring,
)
from repro.core.backbone import bgi_backbone, build_backbone
from repro.core.sweep import (
    MIN_BLOCK_SIZE,
    apply_probability_vector,
    colored_sweep,
    extend_sweep_plan,
)
from repro.datasets import erdos_renyi_uncertain, flickr_like

#: Converged-D1 contract: the production sweeps and the scalar reference
#: loop agree to this gate when both run to tight convergence.
TOL = 1e-6

#: The two sides of the contract, by the name the results carry.
REFINES = {"loop": loop_refine, "vector": gdb_refine}


def random_backbone(graph, alpha, rng=None):
    """The ``-t``-less variants' Monte-Carlo backbone."""
    return build_backbone(graph, alpha, method="random", rng=rng)


def converged_pair(graph, backbone_ids, max_chunks=30, **config_kwargs):
    """Converged D1 of the reference loop and of ``gdb_refine`` from the
    same backbone.

    Convergence is chunked: 1000 forced sweeps at a time until the
    objective stops changing *exactly* (the descent reaches a true fixed
    point — per-sweep-improvement thresholds can trigger prematurely on
    plateaus, because the entropy guard makes the convergence rate
    non-monotone around p = 0.5 crossings).
    """
    relative = config_kwargs.get("relative", False)
    chunk = GDBConfig(**{**config_kwargs, "tau": 0.0, "max_sweeps": 1000})
    results = {}
    for side, refine in REFINES.items():
        state = SparsificationState(graph)
        for eid in backbone_ids:
            state.select_edge(eid)
        objectives = [state.d1(relative=relative)]
        one_sweep = GDBConfig(**{**config_kwargs, "tau": 0.0, "max_sweeps": 1})
        for _ in range(25):
            refine(state, one_sweep)
            objectives.append(state.d1(relative=relative))
        previous = objectives[-1]
        for _ in range(max_chunks):
            refine(state, chunk)
            current = state.d1(relative=relative)
            if current == previous:
                break
            previous = current
        state.verify()
        results[side] = (state.d1(relative=relative), objectives)
    return results


class TestColoring:
    def test_proper_coloring_on_fixtures(self, small_power_law, small_sparse):
        for graph in (small_power_law, small_sparse):
            state = SparsificationState(graph)
            eids = np.arange(state.m)
            colors = greedy_edge_coloring(state.edge_vertices[eids])
            # No two edges of one color share an endpoint.
            for color in range(int(colors.max()) + 1):
                uv = state.edge_vertices[eids[colors == color]]
                flat = uv.reshape(-1)
                assert len(np.unique(flat)) == len(flat)

    def test_color_count_bounded_by_2_delta(self, small_power_law):
        state = SparsificationState(small_power_law)
        colors = greedy_edge_coloring(state.edge_vertices)
        degrees = np.bincount(state.edge_vertices.reshape(-1))
        assert int(colors.max()) + 1 <= 2 * int(degrees.max()) - 1

    def test_empty_edge_set(self, triangle):
        state = SparsificationState(triangle)
        plan = build_sweep_plan(state)
        assert len(plan.eids) == 0
        assert plan.n_colors == 0

    def test_negative_vertex_id_rejected(self):
        # Masks live in a list indexed by vertex id, where -1 would
        # silently alias the highest vertex.
        with pytest.raises(ValueError, match="negative vertex id -1"):
            greedy_edge_coloring(np.array([[0, 1], [2, -1]]))


class TestPlan:
    def test_plan_partitions_selected_edges(self, small_power_law):
        state = SparsificationState(small_power_law)
        ids = bgi_backbone(small_power_law, 0.4, rng=1)
        for eid in ids:
            state.select_edge(eid)
        plan = build_sweep_plan(state)
        block_eids = [
            e for start, stop, _ in plan.blocks
            for e in plan.sweep_eids[start:stop].tolist()
        ]
        covered = sorted(block_eids + list(plan.tail_eids))
        assert covered == sorted(int(e) for e in ids)
        assert plan.eids.tolist() == sorted(int(e) for e in ids)

    def test_sequential_only_plan_skips_coloring(self, small_power_law):
        state = SparsificationState(small_power_law)
        for eid in range(0, state.m, 2):
            state.select_edge(eid)
        plan = build_sweep_plan(state, sequential_only=True)
        assert plan.n_colors == 0 and not plan.blocks
        assert plan.eids.tolist() == [int(e) for e in state.selected_edge_ids()]
        assert not len(plan.sweep_eids) and not len(plan.tail_eids)

    def test_colored_sweep_matches_loop_order_objective(self, small_power_law):
        """One colored sweep is a valid coordinate-descent pass: the
        objective drops, and delta bookkeeping stays exact."""
        state = SparsificationState(small_power_law)
        for eid in bgi_backbone(small_power_law, 0.4, rng=2):
            state.select_edge(eid)
        plan = build_sweep_plan(state)
        before = state.d1()
        colored_sweep(state, plan, False, 0.05)
        assert state.d1() <= before + 1e-12
        state.verify()


PLAN_KINDS = ("build", "restrict", "extend", "no-tail", "no-blocks")


def make_plan(state, kind):
    """A sweep plan over the selected edges, laid out by ``kind``, and
    the block-size threshold it was laid out with."""
    full = build_sweep_plan(state)
    if kind == "build":
        return full, MIN_BLOCK_SIZE
    if kind == "restrict":
        # What the maintainer lays out when backbone edges only leave:
        # the survivors keep their colors, nothing is added.
        keep = np.arange(len(full.eids)) % 4 != 0
        plan = extend_sweep_plan(state, full.eids[keep], full.colors[keep], [])
        return plan, MIN_BLOCK_SIZE
    if kind == "extend":
        base = build_sweep_plan(state, eids=full.eids[::2])
        plan = extend_sweep_plan(state, base.eids, base.colors, full.eids[1::2])
        return plan, MIN_BLOCK_SIZE
    if kind == "no-tail":
        plan = build_sweep_plan(state, min_block_size=1)
        assert plan.blocks and not len(plan.tail_eids)
        return plan, 1
    size = len(full.eids) + 1
    plan = build_sweep_plan(state, min_block_size=size)
    assert not plan.blocks and len(plan.tail_eids)
    return plan, size


def assert_sweeps_bit_identical(graph, backbone_ids, kind, relative, h,
                                sweeps=30, pinned=None):
    """Production and oracle sweeps from one state agree bit for bit
    after every sweep.  ``pinned`` optionally overwrites the seeded
    probabilities of the backbone edges (in ascending id order) before
    the first sweep."""
    oracle, fast = (SparsificationState(graph) for _ in range(2))
    for state in (oracle, fast):
        state.select_edges(np.asarray(backbone_ids, dtype=np.int64))
        if pinned is not None:
            apply_probability_vector(state, np.sort(backbone_ids), pinned)
    plan, min_block_size = make_plan(fast, kind)
    for sweep in range(sweeps):
        reference_colored_sweep(oracle, plan, relative, h, min_block_size)
        colored_sweep(fast, plan, relative, h)
        context = (kind, relative, h, sweep)
        assert oracle.phat.tobytes() == fast.phat.tobytes(), context
        assert oracle.delta.tobytes() == fast.delta.tobytes(), context
        assert (
            float(oracle.total_residual).hex()
            == float(fast.total_residual).hex()
        ), context


@pytest.mark.parametrize("backbone_fn", [bgi_backbone, random_backbone])
@pytest.mark.parametrize("kind", PLAN_KINDS)
def test_colored_sweep_bit_identical_to_oracle(small_power_law, kind,
                                               backbone_fn):
    ids = backbone_fn(small_power_law, 0.4, rng=2)
    for relative in (False, True):
        for h in (0.0, 0.05, 1.0):
            assert_sweeps_bit_identical(small_power_law, ids, kind, relative, h)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(40, 160),
    avg_degree=st.integers(4, 10),
    backbone_fn=st.sampled_from([bgi_backbone, random_backbone]),
    kind=st.sampled_from(PLAN_KINDS),
    relative=st.booleans(),
    h=st.sampled_from([0.0, 0.05, 1.0]),
)
def test_property_colored_sweep_bit_identical_on_er_graphs(
    seed, n, avg_degree, backbone_fn, kind, relative, h
):
    graph = erdos_renyi_uncertain(n, avg_degree=avg_degree, rng=seed)
    ids = backbone_fn(graph, 0.6, rng=seed)
    assert_sweeps_bit_identical(graph, ids, kind, relative, h)


@pytest.fixture(scope="module")
def serve_shaped():
    """A serve-3k-shaped backbone: ~24k edges, BGI at alpha 0.4, ~9.6k
    swept edges in classes of up to ~1,150 edges plus a few hundred
    tail edges."""
    graph = flickr_like(n=3000, avg_degree=16, seed=11)
    return graph, bgi_backbone(graph, 0.4, rng=11)


@pytest.mark.parametrize("kind", ["build", "extend"])
@pytest.mark.parametrize("h", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("relative", [False, True])
def test_colored_sweep_bit_identical_at_production_scale(serve_shaped, kind,
                                                         relative, h):
    graph, ids = serve_shaped
    state = SparsificationState(graph)
    state.select_edges(ids)
    plan = build_sweep_plan(state)
    sizes = [stop - start for start, stop, _ in plan.blocks]
    assert max(sizes) > 1000 and len(sizes) > 40 and len(plan.tail_eids)
    assert_sweeps_bit_identical(graph, ids, kind, relative, h, sweeps=4)


def test_extend_colors_equal_reference_at_production_scale(serve_shaped):
    """Over 64 colors, so a vertex's used colors span two mask words."""
    graph, ids = serve_shaped
    state = SparsificationState(graph)
    state.select_edges(ids)
    sel = state.selected_edge_ids()
    added = sel[np.random.default_rng(1).random(len(sel)) < 0.15]
    base = build_sweep_plan(state, eids=np.setdiff1d(sel, added))
    plan = extend_sweep_plan(state, base.eids, base.colors, added)
    assert plan.n_colors > 64
    expected = reference_extend_colors(state, base.eids, base.colors, added)
    assert np.array_equal(plan.colors[np.isin(plan.eids, added)], expected)


@pytest.mark.parametrize("kind", PLAN_KINDS)
@pytest.mark.parametrize("h", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("relative", [False, True])
def test_colored_sweep_bit_identical_from_pinned_probabilities(kind, relative,
                                                               h):
    """Probabilities pinned at 0.0, 0.5 and 1.0 on a dense backbone,
    whose first steps overshoot [0, 1] in both directions."""
    graph = erdos_renyi_uncertain(60, avg_degree=24, p_mean=0.5, rng=5)
    ids = np.arange(graph.number_of_edges())
    pinned = np.resize([0.0, 0.5, 1.0], len(ids))
    state = SparsificationState(graph)
    state.select_edges(ids)
    apply_probability_vector(state, ids, pinned)
    rule = degree_step_relative_array if relative else degree_step_absolute_array
    proposed = pinned + rule(state, ids)
    assert (proposed < 0.0).any() and (proposed > 1.0).any()
    assert_sweeps_bit_identical(graph, ids, kind, relative, h, pinned=pinned)


class TestPlanBoundary:
    """A plan over ids that are not ascending, distinct and selected
    would step an edge twice or outside the backbone; both plan
    builders refuse such ids by name."""

    @pytest.fixture
    def state(self):
        graph = flickr_like(n=200, avg_degree=8, seed=1)
        state = SparsificationState(graph)
        state.select_edges(bgi_backbone(graph, 0.4, rng=1))
        return state

    def bad_ids(self, state):
        """(ids, message) pairs, each naming its first bad id."""
        sel = state.selected_edge_ids()
        unselected = int(np.flatnonzero(~state.selected)[0])
        return [
            ([sel[3], sel[3]], f"edge id {sel[3]} is duplicated"),
            ([sel[0], unselected], f"edge id {unselected} is not selected"),
            ([sel[0], state.m], f"edge id {state.m} is out of range"),
            ([-1, sel[0]], "edge id -1 is out of range"),
            ([sel[5], sel[2]], f"edge id {sel[2]} is out of ascending order"),
        ]

    def test_build_refuses_bad_ids(self, state):
        before = state.snapshot()
        for ids, message in self.bad_ids(state):
            with pytest.raises(ValueError, match=message):
                build_sweep_plan(state, eids=ids)
        for ids, _ in self.bad_ids(state):
            with pytest.raises(ValueError):
                build_sweep_plan(state, eids=ids, sequential_only=True)
        after = state.snapshot()
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        state.verify()

    def test_extend_refuses_bad_ids(self, state):
        sel = state.selected_edge_ids()
        base = build_sweep_plan(state, eids=sel[::2])
        for ids, message in self.bad_ids(state):
            with pytest.raises(ValueError, match=message):
                extend_sweep_plan(state, base.eids, base.colors, ids)
            colors = np.zeros(len(ids), dtype=np.int64)
            with pytest.raises(ValueError, match=message):
                extend_sweep_plan(state, ids, colors, [])
        with pytest.raises(ValueError, match=f"overlap.*{sel[2]}"):
            extend_sweep_plan(state, base.eids, base.colors, sel[1:4])
        with pytest.raises(ValueError, match="colors"):
            extend_sweep_plan(state, base.eids, base.colors[1:], sel[1::2])

    @pytest.mark.parametrize("ids, message", [
        pytest.param([0.5, 1.5, 5.5], "edge id 0.5 is not an integer",
                     id="fractions"),
        pytest.param(["sel0", 2.5], "edge id 2.5 is not an integer",
                     id="fraction-after-integral-float"),
        pytest.param([True, False], "edge id True is not an integer",
                     id="bools"),
        pytest.param(["0"], "edge id '0' is not an integer", id="string"),
    ])
    def test_non_integer_ids_refused(self, state, ids, message):
        """Fractional, boolean and non-numeric ids are refused by both
        plan builders, never truncated to a plan over other edges."""
        sel = state.selected_edge_ids()
        ids = [float(sel[0]) if i == "sel0" else i for i in ids]
        base = build_sweep_plan(state, eids=sel[::2])
        colors = np.zeros(len(ids), dtype=np.int64)
        calls = (
            lambda: build_sweep_plan(state, eids=ids),
            lambda: build_sweep_plan(state, eids=ids, sequential_only=True),
            lambda: extend_sweep_plan(state, base.eids, base.colors, ids),
            lambda: extend_sweep_plan(state, ids, colors, []),
        )
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    def test_integral_float_ids_accepted(self, state):
        sel = state.selected_edge_ids()
        as_floats = [float(eid) for eid in sel]
        plan = build_sweep_plan(state, eids=as_floats)
        assert np.array_equal(plan.eids, sel)
        assert np.array_equal(plan.colors, build_sweep_plan(state).colors)
        base = build_sweep_plan(state, eids=sel[::2])
        grown = extend_sweep_plan(
            state, as_floats[::2], base.colors, as_floats[1::2]
        )
        expected = extend_sweep_plan(state, base.eids, base.colors, sel[1::2])
        assert np.array_equal(grown.eids, expected.eids)
        assert np.array_equal(grown.colors, expected.colors)

    def test_valid_ids_accepted(self, state):
        sel = state.selected_edge_ids()
        full = build_sweep_plan(state, eids=sel)
        assert np.array_equal(full.colors, build_sweep_plan(state).colors)
        base = build_sweep_plan(state, eids=sel[::2])
        grown = extend_sweep_plan(state, base.eids, base.colors, sel[1::2])
        assert np.array_equal(grown.eids, sel)
        assert len(build_sweep_plan(state, eids=[]).eids) == 0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 120),
    m=st.integers(0, 600),
)
def test_property_greedy_coloring_equals_reference(seed, n, m):
    endpoints = np.random.default_rng(seed).integers(0, n, size=(m, 2))
    colors = greedy_edge_coloring(endpoints)
    assert colors.dtype == np.int64
    assert np.array_equal(colors, reference_greedy_edge_coloring(endpoints))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(20, 200),
    avg_degree=st.integers(2, 24),
    keep=st.floats(0.0, 1.0),
    add=st.floats(0.0, 1.0),
)
def test_property_extend_colors_equal_reference(seed, n, avg_degree, keep,
                                                add):
    """The array-built masks give the added edges the colors of the
    dict walk over incident edges, for any split of a backbone into a
    colored part and an added part."""
    graph = erdos_renyi_uncertain(n, avg_degree=avg_degree, rng=seed)
    rng = np.random.default_rng(seed)
    state = SparsificationState(graph)
    state.select_edges(np.flatnonzero(rng.random(state.m) < 0.6))
    sel = state.selected_edge_ids()
    in_base = rng.random(len(sel)) < keep
    base = build_sweep_plan(state, eids=sel[in_base])
    added = sel[~in_base & (rng.random(len(sel)) < add)]
    plan = extend_sweep_plan(state, base.eids, base.colors, added)
    expected = reference_extend_colors(state, base.eids, base.colors, added)
    assert np.array_equal(plan.colors[np.isin(plan.eids, added)], expected)
    assert np.array_equal(plan.colors[np.isin(plan.eids, base.eids)],
                          base.colors)


@pytest.mark.parametrize("backbone_fn", [bgi_backbone, random_backbone])
@pytest.mark.parametrize(
    "config_kwargs",
    [
        dict(h=0.05, k=1, relative=False),
        dict(h=1.0, k=1, relative=False),
        dict(h=0.05, k=1, relative=True),
        dict(h=0.05, k=2, relative=False),
        dict(h=0.05, k="n", relative=False),
    ],
    ids=["abs", "abs-h1", "rel", "k2", "kn"],
)
class TestEngineEquivalence:
    """``gdb_refine`` and the scalar reference loop reach the same
    converged objective.

    ``k = 1``: the colored order differs from the loop order, but
    coordinate descent on the convex D1 objective converges to the same
    value (gated at 1e-6).  ``k >= 2`` / ``"n"``: ``gdb_refine`` runs
    the sequential solve in the loop's order — results are exactly
    equal.  Per-sweep monotone descent of D1 is asserted for the k = 1
    rules (the k >= 2 rules minimise D_k, not D1).
    """

    def test_fixture_topologies(self, small_power_law, small_sparse,
                                backbone_fn, config_kwargs):
        for graph in (small_power_law, small_sparse):
            ids = backbone_fn(graph, 0.35, rng=3)
            results = converged_pair(graph, list(ids), **config_kwargs)
            loop_obj, loop_traj = results["loop"]
            vec_obj, vec_traj = results["vector"]
            assert vec_obj == pytest.approx(loop_obj, rel=TOL, abs=TOL)
            if config_kwargs["k"] == 1:
                for trajectory in (loop_traj, vec_traj):
                    assert all(
                        b <= a + 1e-9
                        for a, b in zip(trajectory, trajectory[1:])
                    )
            else:
                # Sequential solve: bit-identical trajectory to the loop.
                assert vec_traj == loop_traj
                assert vec_obj == loop_obj

    def test_small_fixtures(self, triangle, path4, figure1, backbone_fn,
                            config_kwargs):
        for graph in (triangle, path4, figure1):
            m = graph.number_of_edges()
            ids = list(range(0, m, 2)) or [0]
            results = converged_pair(graph, ids, **config_kwargs)
            assert results["vector"][0] == pytest.approx(
                results["loop"][0], rel=TOL, abs=TOL
            )


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_engines_agree_on_er_graphs(seed):
    """Hypothesis ER graphs: the reference loop and ``gdb_refine``
    converge together."""
    rng = np.random.default_rng(seed)
    graph = erdos_renyi_uncertain(30, avg_degree=8, rng=seed % 101)
    m = graph.number_of_edges()
    ids = rng.choice(m, size=max(1, m // 2), replace=False).tolist()
    relative = bool(seed % 2)
    results = converged_pair(
        graph, ids, h=0.05, k=1, relative=relative
    )
    assert results["vector"][0] == pytest.approx(
        results["loop"][0], rel=TOL, abs=TOL
    )


class TestGdbFacade:
    def test_invalid_engine_rejected(self, small_power_law):
        # One implementation: there is no engine to pick, good or bad.
        for engine in ("gpu", "vector", "loop"):
            with pytest.raises(TypeError, match="engine"):
                gdb(small_power_law, alpha=0.4, rng=0, engine=engine)
            with pytest.raises(TypeError, match="engine"):
                gdb_refine(SparsificationState(small_power_law), GDBConfig(),
                           engine=engine)

    def test_fused_is_refine_only(self, small_power_law):
        # The facade cannot pick the sequential solve; gdb_refine runs it
        # on a sequential-only plan (EMD's M-phase) and matches the
        # reference loop bit for bit.
        with pytest.raises(TypeError):
            gdb(small_power_law, alpha=0.4, rng=0, engine="fused")
        states = []
        for _ in range(2):
            state = SparsificationState(small_power_law)
            for eid in bgi_backbone(small_power_law, 0.3, rng=8):
                state.select_edge(eid)
            states.append(state)
        config = GDBConfig(h=0.05, tau=0.0, max_sweeps=5)
        loop_refine(states[0], config)
        gdb_refine(states[1], config,
                   plan=build_sweep_plan(states[1], sequential_only=True))
        assert states[0].phat.tobytes() == states[1].phat.tobytes()
        assert states[0].delta.tobytes() == states[1].delta.tobytes()

    def test_relative_k2_rejected_by_both_engines(self, small_power_law):
        with pytest.raises(ValueError, match="k = 1 only"):
            gdb(
                small_power_law, alpha=0.4, rng=0,
                config=GDBConfig(k=2, relative=True),
            )
        state = SparsificationState(small_power_law)
        with pytest.raises(ValueError, match="k = 1 only"):
            loop_refine(state, GDBConfig(k=2, relative=True))


#: Every rule family ``sequential_refine`` runs: (k, relative).
SEQUENTIAL_RULES = [(1, False), (1, True), (2, False), (3, False), ("n", False)]


class TestSequentialRefine:
    @pytest.mark.parametrize("tau", [GDBConfig.tau, 0.0])
    @pytest.mark.parametrize("h", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("k,relative", SEQUENTIAL_RULES)
    def test_equals_loop_refine(self, small_power_law, k, relative, h, tau):
        """A whole solve on a sequential plan, under the default ``tau``
        (and ``tau = 0``, where several solves stop on an exact fixed
        point before the cap), reproduces the reference loop bit for
        bit: probabilities, discrepancies, residual and sweep count."""
        states = []
        for _ in range(2):
            state = SparsificationState(small_power_law)
            state.select_edges(bgi_backbone(small_power_law, 0.3, rng=4))
            states.append(state)
        config = GDBConfig(h=h, k=k, relative=relative, tau=tau)
        loop_sweeps = loop_refine(states[0], config)
        plan = build_sweep_plan(states[1], sequential_only=True)
        sweeps = gdb_refine(states[1], config, plan=plan)
        assert sweeps == loop_sweeps
        assert states[0].phat.tobytes() == states[1].phat.tobytes()
        assert states[0].delta.tobytes() == states[1].delta.tobytes()
        assert (float(states[0].total_residual).hex()
                == float(states[1].total_residual).hex())

    @pytest.mark.parametrize("k", [2, "n"])
    def test_colored_plan_runs_the_same_solve(self, small_power_law, k):
        """A ``k >= 2`` solve handed a colored plan reads only its
        ``eids``, so it matches the solve on a sequential-only plan."""
        states = []
        for _ in range(2):
            state = SparsificationState(small_power_law)
            state.select_edges(bgi_backbone(small_power_law, 0.3, rng=4))
            states.append(state)
        config = GDBConfig(k=k, max_sweeps=20)
        plans = (build_sweep_plan(states[0], sequential_only=True),
                 build_sweep_plan(states[1]))
        assert plans[1].n_colors > 0
        sweeps = [gdb_refine(s, config, plan=p) for s, p in zip(states, plans)]
        assert sweeps[0] == sweeps[1]
        assert states[0].phat.tobytes() == states[1].phat.tobytes()
        assert states[0].delta.tobytes() == states[1].delta.tobytes()


class TestGridDriver:
    def test_cells_match_independent_runs(self, small_power_law):
        alphas = (0.3, 0.5)
        h_values = (0.0, 0.05)
        cells = gdb_grid(
            small_power_law, alphas=alphas, h_values=h_values, rng=9
        )
        assert set(cells) == {(a, h) for a in alphas for h in h_values}
        for (alpha, h), cell in cells.items():
            ids = bgi_backbone(small_power_law, alpha, rng=9)
            direct = gdb(
                small_power_law, backbone_ids=list(ids), config=GDBConfig(h=h),
            )
            assert cell.graph.number_of_edges() == direct.number_of_edges()
            assert cell.objective == pytest.approx(
                d1_objective(small_power_law, direct), rel=1e-6, abs=1e-9
            )

    def test_consume_reduces_cells(self, small_power_law):
        budget = round(0.4 * small_power_law.number_of_edges())
        cells = gdb_grid(
            small_power_law, alphas=(0.4,), h_values=(0.0, 1.0), rng=4,
            consume=lambda cell: (cell.h, cell.graph.number_of_edges()),
        )
        for (alpha, h), value in cells.items():
            assert value == (h, budget)  # reduced value stored, not the cell

    def test_build_graphs_false_skips_materialisation(self, small_power_law):
        cells = gdb_grid(
            small_power_law, alphas=(0.4,), h_values=(0.05,), rng=1,
            build_graphs=False,
        )
        cell = cells[(0.4, 0.05)]
        assert cell.graph is None and cell.sweeps >= 1
        assert np.isfinite(cell.objective)

    def test_loop_engine_grid(self, small_power_law):
        """A grid cell converges to the reference loop's objective on the
        cell's backbone."""
        config = GDBConfig(h=0.05, tau=0.0, max_sweeps=2000)
        grid = gdb_grid(
            small_power_law, alphas=(0.4,), h_values=(0.05,), rng=2,
            build_graphs=False, tau=config.tau, max_sweeps=config.max_sweeps,
        )
        cell = grid[(0.4, 0.05)]
        loop = SparsificationState(small_power_law)
        loop.select_edges(cell.backbone)
        loop_refine(loop, config)
        assert cell.objective == pytest.approx(loop.d1(), rel=TOL, abs=TOL)

    def test_relative_and_k_variants(self, small_power_law):
        for kwargs in (dict(relative=True), dict(k=2), dict(k="n")):
            cells = gdb_grid(
                small_power_law, alphas=(0.4,), h_values=(0.05,), rng=3,
                build_graphs=False, **kwargs,
            )
            assert np.isfinite(cells[(0.4, 0.05)].objective)
