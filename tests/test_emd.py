"""EMD (Algorithm 3): budget invariants, swap behaviour, quality."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.emd import reference_emd
from repro.core import (
    EMDConfig,
    GDBConfig,
    UncertainGraph,
    emd,
    gdb,
    graph_entropy,
    sparsify,
)
from repro.core.backbone import bgi_backbone, build_backbone, target_edge_count
from repro.datasets import (
    erdos_renyi_uncertain,
    flickr_like,
    forest_fire_like_arrays,
    format_edge_list,
    parse_edge_list,
)
from repro.metrics import degree_discrepancy_mae


def random_backbone(graph, alpha, rng=None):
    """The ``-t``-less variants' Monte-Carlo backbone."""
    return build_backbone(graph, alpha, method="random", rng=rng)


def tie_heavy_graph(n, seed, probabilities):
    """An ER topology whose probabilities are all 0.5 (``"half"``) or
    drawn from {0.25, 0.5, 1} (``"quantised"``): equal discrepancies
    and equal gains are then common, so tie-breaking decides swaps."""
    base = erdos_renyi_uncertain(n, 8.0, rng=seed)
    edges = base.edge_list()
    if probabilities == "half":
        ps = [0.5] * len(edges)
    else:
        rng = np.random.default_rng(seed)
        ps = rng.choice([0.25, 0.5, 1.0], size=len(edges)).tolist()
    return UncertainGraph(
        [(u, v, p) for (u, v), p in zip(edges, ps)], vertices=base.vertices()
    )


class TestConfig:
    @pytest.mark.parametrize("h", [-0.01, 1.01])
    def test_invalid_h(self, h):
        with pytest.raises(ValueError):
            EMDConfig(h=h)

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            EMDConfig(max_iterations=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau=float("nan")),
            dict(tau=-1.0),
            dict(max_iterations=2.5),
            dict(gdb_max_sweeps=0),
            dict(gdb_max_sweeps=12.5),
        ],
        ids=["tau-nan", "tau-negative", "iterations-fractional",
             "sweeps-zero", "sweeps-fractional"],
    )
    def test_invalid_stopping_rule(self, kwargs):
        with pytest.raises(ValueError, match="tau|max_iterations|gdb_max_sweeps"):
            EMDConfig(**kwargs)


class TestInterface:
    def test_requires_exactly_one_of_alpha_backbone(self, small_power_law):
        with pytest.raises(ValueError):
            emd(small_power_law)
        with pytest.raises(ValueError):
            emd(small_power_law, alpha=0.5, backbone_ids=[0])

    def test_budget_respected(self, small_power_law):
        sparsified = emd(small_power_law, alpha=0.4, rng=0)
        assert sparsified.number_of_edges() == target_edge_count(
            small_power_law.number_of_edges(), 0.4
        )

    def test_vertex_set_preserved(self, small_power_law):
        sparsified = emd(small_power_law, alpha=0.4, rng=0)
        assert set(sparsified.vertices()) == set(small_power_law.vertices())

    def test_edges_subset_of_original(self, small_power_law):
        sparsified = emd(small_power_law, alpha=0.4, rng=0)
        for u, v, _ in sparsified.edges():
            assert small_power_law.has_edge(u, v)

    def test_probabilities_valid(self, small_power_law):
        probs = np.array(emd(small_power_law, alpha=0.4, rng=0).probability_array())
        assert np.all(probs > 0.0) and np.all(probs <= 1.0)


class TestQuality:
    def test_beats_gdb_on_random_backbone(self, small_power_law):
        """Restructuring must pay off when the backbone is random (6.1)."""
        ids = random_backbone(small_power_law, 0.25, rng=3)
        via_emd = emd(small_power_law, backbone_ids=list(ids))
        via_gdb = gdb(small_power_law, backbone_ids=list(ids))
        assert degree_discrepancy_mae(small_power_law, via_emd) <= (
            degree_discrepancy_mae(small_power_law, via_gdb) + 1e-9
        )

    def test_swaps_edges_relative_to_backbone(self, small_power_law):
        """E-phase must actually restructure a random backbone."""
        ids = random_backbone(small_power_law, 0.25, rng=3)
        sparsified = emd(small_power_law, backbone_ids=list(ids))
        edge_list = small_power_law.edge_list()
        backbone_edges = {frozenset(edge_list[e]) for e in ids}
        kept = {frozenset((u, v)) for u, v, _ in sparsified.edges()}
        assert kept != backbone_edges

    def test_reduces_entropy(self, small_power_law):
        sparsified = emd(small_power_law, alpha=0.3, rng=0)
        assert graph_entropy(sparsified) < graph_entropy(small_power_law)

    def test_large_alpha_near_exact_degrees(self, small_power_law):
        sparsified = emd(small_power_law, alpha=0.8, rng=0)
        assert degree_discrepancy_mae(small_power_law, sparsified) < 1e-2

    def test_relative_variant(self, small_power_law):
        sparsified = emd(
            small_power_law, alpha=0.4, rng=0, config=EMDConfig(relative=True)
        )
        assert degree_discrepancy_mae(
            small_power_law, sparsified, relative=True
        ) < 0.3

    def test_bgi_backbone_stays_connected_after_emd(self, small_power_law):
        # EMD may swap tree edges, so strict connectivity is not
        # guaranteed — but the graph should remain nearly connected.
        ids = bgi_backbone(small_power_law, 0.4, rng=0)
        sparsified = emd(small_power_law, backbone_ids=list(ids))
        components = sparsified.connected_components()
        assert max(len(c) for c in components) >= (
            0.9 * small_power_law.number_of_vertices()
        )

    def test_deterministic_given_backbone(self, small_power_law):
        ids = bgi_backbone(small_power_law, 0.3, rng=7)
        a = emd(small_power_law, backbone_ids=list(ids))
        b = emd(small_power_law, backbone_ids=list(ids))
        assert a.isomorphic_probabilities(b)


class TestEngines:
    """EMD = deferred-heap E-phase scanning the per-vertex candidate
    table + sequential M-phase, against the scalar reference
    (``oracles.emd``).

    Both E-phases pick the smallest-id max-discrepancy vertex and compare
    the same (factored) gains with the reference's candidate order and
    strict tie-breaking, and the sequential M-phase is bit-identical to the
    reference loop, so the two must agree swap for swap: same edge set,
    same probabilities (exact), for every config variant and backbone.
    """

    @pytest.mark.parametrize("relative", [False, True])
    @pytest.mark.parametrize("backbone_fn", [bgi_backbone, random_backbone])
    def test_engines_bit_identical(self, small_power_law, small_sparse,
                                   relative, backbone_fn):
        dense = flickr_like(n=80, avg_degree=14, seed=9)
        for graph in (small_power_law, small_sparse, dense):
            ids = backbone_fn(graph, 0.3, rng=11)
            config = EMDConfig(relative=relative)
            loop = reference_emd(graph, ids, config)
            vector = emd(graph, backbone_ids=list(ids), config=config)
            assert {frozenset(e[:2]) for e in loop.edges()} == (
                {frozenset(e[:2]) for e in vector.edges()}
            )
            assert loop.isomorphic_probabilities(vector, tol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(12, 30),
        seed=st.integers(0, 2**16),
        probabilities=st.sampled_from(["half", "quantised"]),
        h=st.sampled_from([0.0, 0.05, 1.0]),
        relative=st.booleans(),
        backbone_fn=st.sampled_from([bgi_backbone, random_backbone]),
    )
    def test_engines_bit_identical_on_tie_heavy_graphs(
        self, n, seed, probabilities, h, relative, backbone_fn
    ):
        graph = tie_heavy_graph(n, seed, probabilities)
        ids = list(backbone_fn(graph, 0.4, rng=seed))
        config = EMDConfig(h=h, relative=relative)
        loop = reference_emd(graph, ids, config)
        vector = emd(graph, backbone_ids=ids, config=config)
        assert loop.edge_list() == vector.edge_list()
        assert (loop.probability_array().tobytes()
                == vector.probability_array().tobytes())

    def test_engines_same_objective(self, small_power_law):
        ids = bgi_backbone(small_power_law, 0.4, rng=2)
        loop = reference_emd(small_power_law, ids)
        vector = emd(small_power_law, backbone_ids=list(ids))
        assert degree_discrepancy_mae(small_power_law, vector) == (
            pytest.approx(degree_discrepancy_mae(small_power_law, loop),
                          rel=1e-12, abs=1e-15)
        )

    def test_invalid_engine_rejected(self, small_power_law):
        # One implementation: there is no engine to pick, good or bad.
        for engine in ("turbo", "vector", "loop"):
            with pytest.raises(TypeError, match="engine"):
                emd(small_power_law, alpha=0.3, rng=0, engine=engine)

    def test_fused_not_a_public_engine(self, small_power_law):
        # The M-phase's sequential solve is its own choice, not a knob.
        with pytest.raises(TypeError, match="engine"):
            emd(small_power_law, alpha=0.3, rng=0, engine="fused")


#: sha256 of the int64 edge array and float64 probabilities of
#: ``sparsify(graph, 0.4, variant, rng=1)`` on a query-5k-shaped input
#: (forest fire, n=500, avg_degree=20, ~5k edges, written as text and
#: re-parsed), keyed by (generator seed, variant).  Recorded before the
#: E- and M-phases moved to Python floats; any drift in EMD's decisions
#: or arithmetic changes them.
GOLDEN_EMD_DIGESTS = {
    (1000, "EMD^R-t"): "709bb2d56385603bf6626754692f17190e2a38ed1973ed098ed3cc9f5fdbde82",
    (1000, "EMD^A-t"): "625a47b4aa654d676db1e45383c7d66bfb9ab63040bb6ed296a78ad66846dbc9",
    (1001, "EMD^R-t"): "71f99b890940ac7dee090a7fcd580f3e6fd9ef4467ded6d1112e20d3144a512a",
    (1001, "EMD^A-t"): "c55b55d17aacb72b921f60add087a314ef091b22befe79c28299963b27d3dce4",
}


class TestGoldenDigests:
    @pytest.mark.parametrize("seed,variant", sorted(GOLDEN_EMD_DIGESTS))
    def test_query_sized_outputs_unchanged(self, seed, variant):
        n, src, dst, prob = forest_fire_like_arrays(500, avg_degree=20, rng=seed)
        graph = parse_edge_list(format_edge_list(UncertainGraph.from_edge_arrays(
            range(n), np.stack([src, dst], axis=1), prob,
        )))
        result = sparsify(graph, 0.4, variant, rng=1)
        ev = np.ascontiguousarray(result.edge_index_array(), dtype=np.int64)
        ps = np.ascontiguousarray(result.probability_array(), dtype=np.float64)
        digest = hashlib.sha256(ev.tobytes() + ps.tobytes()).hexdigest()
        assert digest == GOLDEN_EMD_DIGESTS[(seed, variant)]
