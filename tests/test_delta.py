"""Edge-delta batches, plan repair and warm maintenance under drift.

Property tests for the streaming stack (ROADMAP item 3): random delta
batches must round-trip through :func:`apply_delta` with a consistent
id map, :meth:`BackbonePlan.repair` must reproduce a fresh plan
bit-for-bit, :meth:`SparsificationState.apply_delta` must keep the
bookkeeping invariants, and the warm-started maintainer must land on the
cold rebuild's selection and objective.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backbone import BackbonePlan
from repro.core.delta import EdgeDeltaBatch, apply_delta
from repro.core.discrepancy import SparsificationState
from repro.core.gdb import GDBConfig, gdb_refine
from repro.core.maintain import IncrementalSparsifier
from repro.core.sweep import apply_probability_vector, build_sweep_plan
from repro.core.uncertain_graph import UncertainGraph
from repro.datasets import flickr_like
from repro.datasets.drift import DriftWorkload
from repro.exceptions import GraphError, ProbabilityError, SparsificationError

#: Shared read-only base graph for the property tests; every example
#: works on a copy (or applies out of place) so examples stay
#: independent.
GRAPH = flickr_like(n=60, avg_degree=12, seed=5)
M = GRAPH.number_of_edges()
N = GRAPH.number_of_vertices()
_EXISTING = {
    (int(a), int(b))
    for a, b in np.sort(GRAPH.edge_index_array(), axis=1).tolist()
}
NON_EDGES = [
    (a, b) for a in range(N) for b in range(a + 1, N)
    if (a, b) not in _EXISTING
]

probabilities = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)


@st.composite
def delta_batches(draw, structural=True):
    update_eids = draw(
        st.lists(st.integers(0, M - 1), unique=True, max_size=10)
    )
    update_ps = [draw(probabilities) for _ in update_eids]
    delete_eids, inserts, insert_ps = [], [], []
    if structural:
        candidates = sorted(set(range(M)) - set(update_eids))
        if candidates:
            delete_eids = draw(
                st.lists(st.sampled_from(candidates), unique=True, max_size=4)
            )
        picks = draw(
            st.lists(st.integers(0, len(NON_EDGES) - 1), unique=True,
                     max_size=4)
        )
        inserts = [NON_EDGES[i] for i in picks]
        insert_ps = [draw(probabilities) for _ in inserts]
    return EdgeDeltaBatch(
        update_eids=np.array(update_eids, dtype=np.int64),
        update_ps=np.array(update_ps, dtype=np.float64),
        delete_eids=np.array(delete_eids, dtype=np.int64),
        insert_endpoints=np.array(inserts, dtype=np.int64).reshape(-1, 2),
        insert_ps=np.array(insert_ps, dtype=np.float64),
    )


class TestApplyDelta:
    """The id map and post-delta graph are mutually consistent."""

    @settings(max_examples=30, deadline=None)
    @given(batch=delta_batches())
    def test_id_map_round_trip(self, batch):
        applied = apply_delta(GRAPH, batch, in_place=False)
        assert applied.old_m == M
        assert applied.new_m == M - len(batch.delete_eids) + len(batch.insert_ps)
        assert applied.graph.number_of_edges() == applied.new_m
        # Deleted ids map to -1, survivors keep their relative order.
        assert np.all(applied.id_map[batch.delete_eids] == -1)
        survivors = applied.id_map[applied.id_map >= 0]
        assert len(survivors) == M - len(batch.delete_eids)
        assert np.all(np.diff(survivors) > 0) or len(survivors) < 2
        # Updated / inserted probabilities land where the map says.
        new_ps = np.asarray(applied.graph.probability_array())
        assert np.allclose(new_ps[applied.id_map[batch.update_eids]],
                           batch.update_ps)
        assert np.allclose(new_ps[applied.insert_eids], batch.insert_ps)
        new_index = np.sort(
            np.asarray(applied.graph.edge_index_array()), axis=1
        )
        assert np.array_equal(
            new_index[applied.insert_eids], batch.insert_endpoints
        )
        # Surviving endpoints carried across unchanged.
        old_index = np.sort(GRAPH.edge_index_array(), axis=1)
        alive = applied.id_map >= 0
        assert np.array_equal(
            new_index[applied.id_map[alive]], old_index[alive]
        )

    @settings(max_examples=30, deadline=None)
    @given(batch=delta_batches(structural=False))
    def test_probability_update_carries_views_byte_for_byte(self, batch):
        def views(g):
            return (
                list(g.edge_list()), g.probability_array().dtype,
                g.probability_array().tobytes(),
                g.edge_index_array().tobytes(), dict(g.vertex_indexer()),
            )

        original = views(GRAPH)
        graph = apply_delta(GRAPH, batch, in_place=False).graph
        fresh = UncertainGraph.from_edge_arrays(
            graph.vertices(), graph.edge_index_array().copy(),
            graph.probability_array().copy(),
        )
        assert views(graph) == views(fresh)
        # The registered graph the copy came from is untouched.
        assert views(GRAPH) == original

    @pytest.mark.parametrize("update_eids", [[], [0, 7]])
    def test_probability_update_shares_structural_views(self, update_eids):
        source = GRAPH.copy()
        views = (source.edge_index_array(), source.edge_list(),
                 source.vertex_indexer(), source._adjacency())
        batch = EdgeDeltaBatch(update_eids=update_eids,
                               update_ps=[0.5] * len(update_eids))
        graph = apply_delta(source, batch, in_place=False).graph
        assert graph is not source
        for got, want in zip((graph.edge_index_array(), graph.edge_list(),
                              graph.vertex_indexer(), graph._adjacency()),
                             views):
            assert got is want
        assert graph.probability_array()[update_eids].tolist() == \
            [0.5] * len(update_eids)

    def test_in_place_update_keeps_earlier_arrays(self):
        graph = GRAPH.copy()
        held = graph.probability_array()
        held_bytes = held.tobytes()
        index = graph.edge_index_array()
        batch = EdgeDeltaBatch(update_eids=[0, 5], update_ps=[0.5, 0.25])
        applied = apply_delta(graph, batch, in_place=True)
        assert applied.graph is graph
        assert held.tobytes() == held_bytes
        assert graph.edge_index_array() is index
        assert graph.probability_array()[[0, 5]].tolist() == [0.5, 0.25]
        assert applied.old_update_ps.tolist() == held[[0, 5]].tolist()

    def test_empty_batch_is_identity(self):
        batch = EdgeDeltaBatch()
        assert not batch.is_structural and batch.size == 0
        applied = apply_delta(GRAPH, batch, in_place=False)
        assert not applied.structural
        assert np.array_equal(applied.id_map, np.arange(M))
        assert len(applied.insert_eids) == 0

    def test_delete_then_reinsert_same_pair(self):
        u, v = sorted(int(x) for x in GRAPH.edge_index_array()[0])
        batch = EdgeDeltaBatch(
            delete_eids=np.array([0]),
            insert_endpoints=np.array([[u, v]]),
            insert_ps=np.array([0.5]),
        )
        applied = apply_delta(GRAPH, batch, in_place=False)
        assert applied.new_m == M
        eid = int(applied.insert_eids[0])
        assert applied.graph.probability_array()[eid] == 0.5

    def test_inserts_follow_their_lower_endpoint_on_stored_rows(self):
        """Rows as a binary file stores them need not be in edge order;
        an insert still goes right after the last surviving row whose
        lower endpoint is at most its own, and is not appended."""
        stored = UncertainGraph._from_stored_rows(
            5, np.array([0, 3, 2]), np.array([1, 4, 1]),
            np.array([0.5, 0.25, 0.75]),
        )
        batch = EdgeDeltaBatch(
            insert_endpoints=[[0, 2], [2, 3]], insert_ps=[0.125, 0.375],
        )
        applied = apply_delta(stored, batch, in_place=True)
        assert applied.graph is stored
        assert applied.insert_eids.tolist() == [1, 4]
        assert applied.id_map.tolist() == [0, 2, 3]
        assert stored.edge_list() == [(0, 1), (0, 2), (3, 4), (2, 1), (2, 3)]
        assert stored.probability_array().tolist() == \
            [0.5, 0.125, 0.25, 0.75, 0.375]
        # Ranks follow creation: the inserts list after the stored rows.
        assert list(stored.neighbors(2)) == [1, 0, 3]


class TestBatchValidation:
    def test_duplicate_updates(self):
        with pytest.raises(GraphError, match="duplicate"):
            EdgeDeltaBatch(update_eids=[1, 1], update_ps=[0.5, 0.6])

    def test_update_and_delete_conflict(self):
        with pytest.raises(GraphError, match="updated and deleted"):
            EdgeDeltaBatch(update_eids=[2], update_ps=[0.5], delete_eids=[2])

    def test_negative_ids(self):
        with pytest.raises(GraphError, match="negative"):
            EdgeDeltaBatch(delete_eids=[-1])

    @pytest.mark.parametrize("bad", [1.7, True, 1.0, np.float64(2.0),
                                     np.bool_(True), "1", None])
    @pytest.mark.parametrize("field", ["update_eids", "delete_eids"])
    def test_non_integer_edge_ids(self, field, bad):
        kwargs = {field: [0, bad]}
        if field == "update_eids":
            kwargs["update_ps"] = [0.5, 0.5]
        with pytest.raises(GraphError, match=re.escape(f"must be an integer, got {bad!r}")):
            EdgeDeltaBatch(**kwargs)

    @pytest.mark.parametrize("ids", [np.array([1.7]), np.array([True]),
                                     np.array([1.0])])
    def test_non_integer_id_arrays(self, ids):
        with pytest.raises(GraphError, match="must be an integer"):
            EdgeDeltaBatch(update_eids=ids, update_ps=[0.5])
        with pytest.raises(GraphError, match="must be an integer"):
            EdgeDeltaBatch(delete_eids=ids)

    @pytest.mark.parametrize("bad", [1.7, True, 2.0])
    def test_non_integer_insert_endpoints(self, bad):
        with pytest.raises(GraphError, match=re.escape(f"must be an integer, got {bad!r}")):
            EdgeDeltaBatch(insert_endpoints=[[0, bad]], insert_ps=[0.5])

    @pytest.mark.parametrize("kwargs, message", [
        ({"update_eids": [[0]], "update_ps": [[0.5]]}, "update_eids must be 1-D"),
        ({"update_eids": 0, "update_ps": 0.5}, "update_eids must be 1-D"),
        ({"update_eids": np.array([[0, 1]]), "update_ps": [0.5, 0.5]},
         "update_eids must be 1-D"),
        ({"delete_eids": [[1]]}, "delete_eids must be 1-D"),
        ({"delete_eids": 1}, "delete_eids must be 1-D"),
        ({"update_eids": [0], "update_ps": [[0.5]]}, "update_ps must be 1-D"),
        ({"update_eids": [0], "update_ps": 0.5}, "update_ps must be 1-D"),
        ({"insert_endpoints": [[0, 1]], "insert_ps": [[0.5]]},
         "insert_ps must be 1-D"),
        ({"insert_endpoints": [[0, 1]], "insert_ps": 0.5}, "insert_ps must be 1-D"),
        ({"insert_endpoints": [0, 1], "insert_ps": [0.5]},
         "insert_endpoints must be shaped"),
        ({"insert_endpoints": [[[0, 1]]], "insert_ps": [0.5]},
         "insert_endpoints must be shaped"),
        ({"insert_endpoints": [[0, 1, 2]], "insert_ps": [0.5]},
         "insert_endpoints must be shaped"),
    ])
    def test_fields_of_another_shape(self, kwargs, message):
        # Flattened, each would be a batch the caller never wrote
        # (``[[0]]`` or ``0`` as one update of edge 0).
        with pytest.raises(GraphError, match=message):
            EdgeDeltaBatch(**kwargs)

    def test_empty_inserts_accepted(self):
        batch = EdgeDeltaBatch(insert_endpoints=[], insert_ps=[])
        assert batch.insert_endpoints.shape == (0, 2) and batch.size == 0

    def test_integer_ids_of_any_width_accepted(self):
        batch = EdgeDeltaBatch(
            update_eids=np.array([3, 1], dtype=np.uint8),
            update_ps=np.array([0.5, 0.25], dtype=np.float32),
            delete_eids=[np.int64(7), 2],
            insert_endpoints=np.array([[4, 1]], dtype=np.int32),
            insert_ps=[1],
        )
        assert batch.update_eids.dtype == np.int64
        assert batch.update_eids.tolist() == [1, 3]
        assert batch.update_ps.tolist() == [0.25, 0.5]
        assert batch.delete_eids.tolist() == [2, 7]
        assert batch.insert_endpoints.tolist() == [[1, 4]]
        assert batch.insert_ps.tolist() == [1.0]

    def test_input_arrays_are_not_frozen(self):
        eids = np.array([1, 2], dtype=np.int64)
        ps = np.array([0.5, 0.5])
        EdgeDeltaBatch(update_eids=eids, update_ps=ps, delete_eids=np.array([3]))
        assert eids.flags.writeable and ps.flags.writeable

    @pytest.mark.parametrize("bad", [True, np.bool_(False), "0.5", None])
    def test_non_real_probabilities(self, bad):
        with pytest.raises(ProbabilityError, match="real number"):
            EdgeDeltaBatch(update_eids=[0], update_ps=[bad])
        with pytest.raises(ProbabilityError, match="real number"):
            EdgeDeltaBatch(insert_endpoints=[[0, 1]], insert_ps=[bad])

    def test_length_mismatch(self):
        with pytest.raises(GraphError, match="mismatch"):
            EdgeDeltaBatch(update_eids=[1, 2], update_ps=[0.5])

    @pytest.mark.parametrize("bad", [0.0, -0.25, 1.5, float("nan")])
    def test_out_of_domain_probability(self, bad):
        with pytest.raises(ProbabilityError, match=r"\(0, 1\]"):
            EdgeDeltaBatch(update_eids=[0], update_ps=[bad])

    def test_self_loop_insert(self):
        with pytest.raises(GraphError, match="self-loop"):
            EdgeDeltaBatch(insert_endpoints=[[3, 3]], insert_ps=[0.5])

    def test_duplicate_insert_pairs(self):
        with pytest.raises(GraphError, match="duplicate endpoint"):
            EdgeDeltaBatch(insert_endpoints=[[1, 2], [2, 1]],
                           insert_ps=[0.5, 0.6])

    def test_out_of_range_ids_rejected_on_apply(self):
        with pytest.raises(GraphError, match="out of range"):
            apply_delta(
                GRAPH, EdgeDeltaBatch(update_eids=[M], update_ps=[0.5]),
                in_place=False,
            )

    def test_insert_outside_vertex_range(self):
        with pytest.raises(GraphError, match="vertex range"):
            apply_delta(
                GRAPH,
                EdgeDeltaBatch(insert_endpoints=[[0, N]], insert_ps=[0.5]),
                in_place=False,
            )

    def test_insert_of_existing_edge(self):
        u, v = sorted(int(x) for x in GRAPH.edge_index_array()[0])
        with pytest.raises(GraphError, match="existing edge"):
            apply_delta(
                GRAPH,
                EdgeDeltaBatch(insert_endpoints=[[u, v]], insert_ps=[0.5]),
                in_place=False,
            )

    def test_failing_in_place_batch_leaves_graph_unchanged(self):
        """An update, a delete and an insert of a surviving edge: the
        insert is refused before the update or the delete lands."""
        graph = UncertainGraph([(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7)])
        batch = EdgeDeltaBatch(
            update_eids=[0], update_ps=[0.5], delete_eids=[2],
            insert_endpoints=[[1, 2]], insert_ps=[0.3],
        )

        def views(g):
            return (list(g.edges()), g.edge_list(),
                    g.probability_array().tobytes())

        before = views(graph)
        with pytest.raises(GraphError, match=r"existing edge: \(1, 2\)"):
            apply_delta(graph, batch, in_place=True)
        assert views(graph) == before
        index = graph.edge_index_array()
        stored = UncertainGraph._from_stored_rows(
            4, index[:, 0], index[:, 1], graph.probability_array()
        )
        before = views(stored)
        with pytest.raises(GraphError, match=r"existing edge: \(1, 2\)"):
            apply_delta(stored, batch)
        assert views(stored) == before


class TestFromPairs:
    @pytest.fixture
    def labelled(self):
        # "3" is isolated: registered after the edges' endpoints.
        return UncertainGraph(
            [("0", "1", 0.9), ("1", "2", 0.8), ("0", "2", 0.7)],
            vertices=["0", "1", "2", "3"], name="labelled",
        )

    def test_string_label_fallback(self, labelled):
        # JSON clients send bare ints against parsed (string-labelled)
        # edge lists; the indexer falls back to the string form.
        batch = EdgeDeltaBatch.from_pairs(labelled, updates=[(0, 1, 0.5)])
        assert len(batch.update_eids) == 1
        applied = apply_delta(labelled, batch, in_place=False)
        eid = int(batch.update_eids[0])
        assert applied.graph.probability_array()[eid] == 0.5

    def test_unknown_vertex(self, labelled):
        with pytest.raises(GraphError, match="not in graph"):
            EdgeDeltaBatch.from_pairs(labelled, updates=[("0", "9", 0.5)])

    def test_update_of_missing_edge(self, labelled):
        with pytest.raises(GraphError, match="edge not in graph"):
            EdgeDeltaBatch.from_pairs(labelled, updates=[("0", "3", 0.5)])

    def test_insert_of_existing_edge(self, labelled):
        with pytest.raises(GraphError, match="insert of an existing"):
            EdgeDeltaBatch.from_pairs(labelled, inserts=[("0", "1", 0.5)])

    def test_self_loop(self, labelled):
        with pytest.raises(GraphError, match="self-loop"):
            EdgeDeltaBatch.from_pairs(labelled, deletes=[("1", "1")])

    @pytest.mark.parametrize("label", [True, np.bool_(True), 1.0,
                                       np.float64(1.0)])
    def test_label_of_another_type_rejected(self, label):
        # Dict equality alone would let each of these name vertex 1.
        graph = UncertainGraph([(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7)])
        for kwargs in ({"updates": [(0, label, 0.5)]},
                       {"deletes": [(label, 2)]},
                       {"inserts": [(label, 3, 0.5)]}):
            with pytest.raises(GraphError, match=re.escape(repr(label))):
                EdgeDeltaBatch.from_pairs(graph, **kwargs)

    def test_integer_labels_of_any_width_resolve(self):
        graph = UncertainGraph([(0, 1, 0.9), (1, 2, 0.8)])
        batch = EdgeDeltaBatch.from_pairs(
            graph, updates=[(np.int64(0), np.int32(1), 0.5)]
        )
        assert batch.update_eids.tolist() == [0]

    def test_boolean_never_takes_the_string_fallback(self):
        labelled = UncertainGraph(
            [("0", "1", 0.9), ("1", "2", 0.8), ("0", "2", 0.7),
             ("True", "0", 0.5)]
        )
        with pytest.raises(GraphError, match="boolean: True"):
            EdgeDeltaBatch.from_pairs(labelled, updates=[(True, "0", 0.25)])
        batch = EdgeDeltaBatch.from_pairs(labelled, updates=[("True", 0, 0.25)])
        assert len(batch.update_eids) == 1


    @pytest.mark.parametrize("kwargs, match", [
        ({"updates": [["0", "1", True]]}, "real number"),
        ({"updates": [["0", "1", "0.5"]]}, "real number"),
        ({"updates": [["0", "1", None]]}, "real number"),
        ({"updates": ["011"]}, "must be a list"),
        ({"updates": [["0", "1"]]}, "must be a list"),
        ({"updates": [["0", "1", 0.5, "extra"]]}, "must be a list"),
        ({"updates": [{"u": "0", "v": "1", "p": 0.5}]}, "must be a list"),
        ({"deletes": ["12"]}, "must be a list"),
        ({"deletes": [["1", "2", 0.5]]}, "must be a list"),
        ({"deletes": [["1"]]}, "must be a list"),
        ({"inserts": [["0", "3", False]]}, "real number"),
        ({"inserts": [("0", "3")]}, "must be a list"),
    ])
    def test_malformed_rows_rejected(self, labelled, kwargs, match):
        with pytest.raises(GraphError, match=match) as excinfo:
            EdgeDeltaBatch.from_pairs(labelled, **kwargs)
        (row,) = next(iter(kwargs.values()))
        assert repr(row) in str(excinfo.value)

    def test_well_formed_rows_of_every_kind(self, labelled):
        batch = EdgeDeltaBatch.from_pairs(
            labelled, updates=[("1", "0", np.float64(0.5)), ["1", "2", 1]],
            deletes=[("2", "0")], inserts=[[3, "0", 0.25]],
        )
        index = np.sort(labelled.edge_index_array(), axis=1).tolist()
        assert [index[e] for e in batch.update_eids] == [[0, 1], [1, 2]]
        assert batch.update_ps.tolist() == [0.5, 1.0]
        assert [index[e] for e in batch.delete_eids] == [[0, 2]]
        assert batch.insert_endpoints.tolist() == [[0, 3]]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lookup_matches_the_edge_enumeration(self, data):
        edges = GRAPH.edge_list()
        eids = data.draw(st.lists(st.integers(0, M - 1), unique=True,
                                  max_size=12))
        # Either orientation names the same edge.
        rows = [
            (edges[e][1], edges[e][0], 0.5) if data.draw(st.booleans())
            else (edges[e][0], edges[e][1], 0.5)
            for e in eids
        ]
        batch = EdgeDeltaBatch.from_pairs(GRAPH, updates=rows)
        assert batch.update_eids.tolist() == sorted(eids)
        missing = data.draw(st.sampled_from(NON_EDGES))
        with pytest.raises(GraphError, match="edge not in graph"):
            EdgeDeltaBatch.from_pairs(GRAPH, deletes=[missing])
        inserted = EdgeDeltaBatch.from_pairs(GRAPH, inserts=[(*missing, 0.5)])
        assert inserted.insert_endpoints.tolist() == [sorted(missing)]


class TestPlanRepair:
    """Repair reproduces a fresh plan on the drifted graph, bit for bit."""

    @settings(max_examples=15, deadline=None)
    @given(batch=delta_batches())
    @pytest.mark.parametrize("top_up", ["stable", "mc"])
    def test_repair_matches_fresh(self, batch, top_up):
        graph = GRAPH.copy()
        plan = BackbonePlan(graph)
        plan.backbone(0.4, rng=3, top_up=top_up)  # warm the forests first
        applied = apply_delta(graph, batch, in_place=True)
        plan.repair(applied)
        fresh = BackbonePlan(applied.graph)
        assert np.array_equal(
            plan.backbone(0.4, rng=3, top_up=top_up),
            fresh.backbone(0.4, rng=3, top_up=top_up),
        )
        k = min(plan.forests_computed, fresh.forests_computed)
        assert k >= 1
        for i in range(k):
            assert np.array_equal(plan.forest(i), fresh.forest(i))
        pr, fr = plan.peel_rank, fresh.peel_rank
        assert np.array_equal(
            np.where(pr <= k, pr, 0), np.where(fr <= k, fr, 0)
        )

    def test_stable_top_up_is_deterministic(self):
        a = BackbonePlan(GRAPH).backbone(0.4, rng=7, top_up="stable")
        b = BackbonePlan(GRAPH).backbone(0.4, rng=7, top_up="stable")
        assert np.array_equal(a, b)


class TestStateApplyDelta:
    @settings(max_examples=20, deadline=None)
    @given(batch=delta_batches())
    def test_rekey_keeps_invariants(self, batch):
        graph = GRAPH.copy()
        state = SparsificationState(graph)
        ids = BackbonePlan(graph).backbone(0.4, rng=3, top_up="stable")
        state.select_edges(ids)
        old_phat = state.phat.copy()
        old_selected = state.selected.copy()
        applied = apply_delta(graph, batch, in_place=True)
        state.apply_delta(applied)
        state.verify()
        # Surviving edges carry their phat and membership across the map.
        alive = applied.id_map >= 0
        assert np.allclose(state.phat[applied.id_map[alive]], old_phat[alive])
        assert np.array_equal(
            state.selected[applied.id_map[alive]], old_selected[alive]
        )

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_apply_probability_vector_bookkeeping(self, data):
        graph = GRAPH.copy()
        state = SparsificationState(graph)
        ids = BackbonePlan(graph).backbone(0.5, rng=1, top_up="stable")
        state.select_edges(ids)
        k = data.draw(st.integers(1, min(8, len(ids))))
        picks = data.draw(
            st.lists(st.sampled_from(sorted(int(i) for i in ids)),
                     unique=True, min_size=k, max_size=k)
        )
        values = np.array(
            [data.draw(st.floats(-0.5, 1.5)) for _ in picks]
        )
        apply_probability_vector(state, np.array(picks), values)
        assert np.all((state.phat[picks] >= 0.0) & (state.phat[picks] <= 1.0))
        state.verify()


class TestDriftWorkload:
    def test_replay_is_deterministic(self):
        def stream():
            graph = GRAPH.copy()
            workload = DriftWorkload(
                graph, edge_fraction=0.1, smoothing=5.0,
                insert_rate=0.3, delete_rate=0.3, seed=42,
            )
            out = []
            for _ in range(3):
                batch = workload.next_batch(graph)
                out.append(batch)
                apply_delta(graph, batch, in_place=True)
            return out

        for a, b in zip(stream(), stream()):
            assert np.array_equal(a.update_eids, b.update_eids)
            assert np.array_equal(a.update_ps, b.update_ps)
            assert np.array_equal(a.delete_eids, b.delete_eids)
            assert np.array_equal(a.insert_endpoints, b.insert_endpoints)
            assert np.array_equal(a.insert_ps, b.insert_ps)


class TestIncrementalSparsifier:
    def test_requires_gdb_variant(self):
        with pytest.raises(SparsificationError, match="GDB variant"):
            IncrementalSparsifier(GRAPH.copy(), 0.4, variant="EMD^R-t")

    def test_requires_integer_seed(self):
        for rng in (np.random.default_rng(0), True):
            with pytest.raises(ValueError, match="integer seed"):
                IncrementalSparsifier(GRAPH.copy(), 0.4, rng=rng)

    @pytest.mark.parametrize("variant", ["GDB^A-t", "GDB^A"])
    def test_rejects_negative_seed(self, variant):
        # Both top-ups ("stable" for -t, "mc" otherwise) refuse it alike.
        with pytest.raises(ValueError, match="non-negative"):
            IncrementalSparsifier(GRAPH.copy(), 0.4, variant=variant, rng=-3)

    def test_maintained_matches_cold_rebuild(self):
        maintainer = IncrementalSparsifier(
            GRAPH.copy(), 0.4, rng=11, tau=1e-9, max_sweeps=2000,
        )
        workload = DriftWorkload(
            maintainer.graph, edge_fraction=0.05, smoothing=8.0,
            insert_rate=0.2, delete_rate=0.2, seed=9,
        )
        for _ in range(3):
            report = maintainer.apply(workload.next_batch(maintainer.graph))
            assert report.sweeps >= 0
            plan = BackbonePlan(maintainer.graph)
            ids = plan.backbone(0.4, method="bgi", rng=11, top_up="stable")
            cold = SparsificationState(maintainer.graph)
            cold.select_edges(ids)
            sweeps = gdb_refine(
                cold, maintainer.config, plan=build_sweep_plan(cold),
            )
            assert sweeps < maintainer.config.max_sweeps
            assert np.array_equal(maintainer.state.selected, cold.selected)
            cold_d1 = cold.d1()
            assert maintainer.d1() <= cold_d1 + 1e-6 * max(1.0, cold_d1)
            maintainer.state.verify()

    def test_failing_batch_leaves_the_maintainer_intact(self):
        maintainer = IncrementalSparsifier(GRAPH.copy(), 0.4, rng=11)
        index = np.sort(maintainer.graph.edge_index_array(), axis=1)
        batch = EdgeDeltaBatch(
            update_eids=[0], update_ps=[0.5], delete_eids=[1],
            insert_endpoints=index[2:3], insert_ps=[0.3],
        )
        edges = list(maintainer.graph.edges())
        probabilities = maintainer.graph.probability_array().tobytes()
        with pytest.raises(GraphError, match="existing edge"):
            maintainer.apply(batch)
        assert list(maintainer.graph.edges()) == edges
        assert maintainer.graph.probability_array().tobytes() == probabilities
        maintainer.state.verify()
        assert maintainer.batches_applied == 0

    def test_probability_drift_keeps_selection_local(self):
        maintainer = IncrementalSparsifier(GRAPH.copy(), 0.4, rng=11)
        workload = DriftWorkload(
            maintainer.graph, edge_fraction=0.02, smoothing=8.0, seed=3,
        )
        batch = workload.next_batch(maintainer.graph)
        report = maintainer.apply(batch)
        assert not report.structural
        # Stable top-up: a small probability batch moves the selection by
        # O(|batch|) edges, not a wholesale reshuffle.
        assert report.removed + report.added <= 8 * max(1, batch.size)
