"""``POST /update``: delta pushes against registered datasets.

The contracts under test:

- an update re-registers the drifted graph under its own content digest
  and overlays the dataset path, so the next request sees the new graph;
- only the superseded digest's cached artifacts are invalidated — other
  datasets stay hot — and the invalidation is visible in ``/metrics``;
- the refreshed artifact equals a direct library call on the drifted
  graph (the overlay is transparent);
- ``resparsify`` queues a background refresh that warms the cache;
- malformed requests fail loudly (unknown params, binary datasets,
  missing edges/vertices, malformed rows) before the delta lands;
- every returned digest is ``graph_digest`` of the drifted graph, also
  when the server patched the changed edges' lines into the ones it
  kept for the overlay.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import UncertainGraph, sparsify
from repro.core.delta import EdgeDeltaBatch, apply_delta
from repro.datasets import (
    dataset_digest,
    graph_digest,
    read_edge_list,
    twitter_like,
    write_edge_list,
)
from repro.datasets.io import edge_list_lines
from repro.exceptions import GraphError, ServerError
from repro.server import ServerConfig, SparsifierService, start_server

SPARSIFY = dict(alpha=0.4, variant="GDB^A", seed=0)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("update") / "graph.txt"
    write_edge_list(twitter_like(n=60, avg_degree=10, seed=1), path)
    return str(path)


@pytest.fixture(scope="module")
def other_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("update") / "other.txt"
    write_edge_list(twitter_like(n=50, avg_degree=8, seed=2), path)
    return str(path)


@pytest.fixture()
def service():
    with SparsifierService(ServerConfig(workers=2)) as svc:
        yield svc


def _first_edge(dataset):
    graph = read_edge_list(dataset)
    u, v, p = next(iter(graph.edges()))
    return graph, u, v, p


class TestUpdateSemantics:
    def test_update_overlays_and_reports(self, service, dataset):
        graph, u, v, p = _first_edge(dataset)
        new_p = 0.5 * p if p > 0.5 else min(1.0, p + 0.25)
        out = service.update({
            "dataset": dataset, "updates": [[u, v, new_p]],
        })
        assert out["updates"] == 1
        assert out["inserts"] == out["deletes"] == 0
        assert not out["structural"]
        assert out["digest"] != out["old_digest"]
        # Overlay digest resolution: the artifact now equals a direct
        # library call on the drifted graph.
        body, _ = service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        batch = EdgeDeltaBatch.from_pairs(graph, updates=[(u, v, new_p)])
        drifted = apply_delta(graph, batch, in_place=False).graph
        direct = sparsify(drifted, SPARSIFY["alpha"], SPARSIFY["variant"],
                          rng=SPARSIFY["seed"])
        assert json.loads(body)["edges"] == direct.number_of_edges()

    def test_invalidation_is_targeted(self, service, dataset, other_dataset):
        service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        service.handle("sparsify", {"dataset": other_dataset, **SPARSIFY})
        graph, u, v, _ = _first_edge(dataset)
        out = service.update({
            "dataset": dataset, "updates": [[u, v, 0.123]],
        })
        assert out["invalidated"] >= 1
        assert service.cache.stats()["invalidations"] >= 1
        # The untouched dataset's artifact is still hot ...
        _, hit = service.handle(
            "sparsify", {"dataset": other_dataset, **SPARSIFY}
        )
        assert hit
        # ... while the drifted one recomputes.
        _, hit = service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        assert not hit

    def test_structural_update_repairs_plan(self, service, dataset):
        graph, u, v, p = _first_edge(dataset)
        # No request has built the graph's plan yet: nothing to repair.
        out = service.update({"dataset": dataset, "updates": [[u, v, p]]})
        assert not out["plan_repaired"]
        service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        out = service.update({
            "dataset": dataset, "deletes": [[u, v]],
        })
        assert out["structural"] and out["deletes"] == 1
        assert out["plan_repaired"]
        body, _ = service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        assert json.loads(body)["edges"] > 0

    def test_resparsify_warms_the_cache(self, service, dataset):
        graph, u, v, _ = _first_edge(dataset)
        out = service.update({
            "dataset": dataset, "updates": [[u, v, 0.777]],
            "resparsify": SPARSIFY,
        })
        assert out["refresh_queued"]
        deadline = time.monotonic() + 30.0
        hit = False
        while time.monotonic() < deadline and not hit:
            _, hit = service.handle(
                "sparsify", {"dataset": dataset, **SPARSIFY}
            )
            if not hit:
                time.sleep(0.05)
        assert hit, "background drift_refresh never warmed the cache"

    def test_unknown_parameters_rejected(self, service, dataset):
        with pytest.raises(ServerError, match="unknown parameters"):
            service.update({"dataset": dataset, "bogus": 1})
        with pytest.raises(ServerError, match="'dataset'"):
            service.update({"updates": [[0, 1, 0.5]]})
        with pytest.raises(ServerError, match="resparsify"):
            service.update({"dataset": dataset, "resparsify": "yes"})

    def test_bad_resparsify_rejected_before_the_delta_lands(
        self, service, dataset
    ):
        _, u, v, _ = _first_edge(dataset)
        before = service._digest(dataset)
        for engine in ("gpu", "vector"):  # no engine field at all
            with pytest.raises(ServerError, match=r"unknown parameters.*engine"):
                service.update({
                    "dataset": dataset, "updates": [[u, v, 0.321]],
                    "resparsify": {**SPARSIFY, "engine": engine},
                })
        assert service._digest(dataset) == before
        assert service.queue.stats()["submitted"] == 0

    def test_binary_datasets_are_immutable(self, service, dataset,
                                           tmp_path_factory):
        from repro.datasets import write_binary

        path = tmp_path_factory.mktemp("update") / "graph.npz"
        write_binary(read_edge_list(dataset), path)
        with pytest.raises(ServerError, match="binary"):
            service.update({
                "dataset": str(path), "updates": [[0, 1, 0.5]],
            })


def _drift_rows(model, rng, updates=0, inserts=0, deletes=0, as_int=False):
    """``/update`` rows for ``model``: distinct edges to update and
    delete, and absent pairs to insert.  ``as_int`` sends integer labels
    (parsed labels are strings; the server falls back to them)."""
    edges = model.edge_list()
    picked = rng.choice(len(edges), size=updates + deletes, replace=False)
    name = int if as_int else (lambda label: label)

    def probability():
        return float(rng.uniform(0.01, 1.0))

    rows = {
        "updates": [[name(edges[e][0]), name(edges[e][1]), probability()]
                    for e in picked[:updates].tolist()],
        "deletes": [[name(edges[e][0]), name(edges[e][1])]
                    for e in picked[updates:].tolist()],
        "inserts": [],
    }
    present = set(edges) | {(v, u) for u, v in edges}
    vertices = model.vertices()
    while len(rows["inserts"]) < inserts:
        a, b = rng.choice(len(vertices), size=2, replace=False).tolist()
        u, v = vertices[a], vertices[b]
        if (u, v) not in present:
            present |= {(u, v), (v, u)}
            rows["inserts"].append([name(u), name(v), probability()])
    return rows


class TestUpdateDigest:
    """Every ``/update`` digest is ``graph_digest`` of the drifted graph,
    whether the server patched its kept lines (a probability-only delta
    on the live overlay entry) or serialised the whole graph (the first
    update of a file, a structural delta, an update after eviction)."""

    #: (updates, inserts, deletes) per step: probability-only, structural
    #: and mixed batches, and an empty one (the digest does not move).
    CHAIN = [(30, 0, 0), (1, 0, 0), (0, 3, 2), (12, 0, 0), (5, 2, 2),
             (8, 0, 0), (0, 0, 0), (0, 0, 4), (3, 0, 0)]

    @staticmethod
    def _write(tmp_path, name, labels):
        """A text dataset with integer or string labels and two
        isolated vertices."""
        base = twitter_like(n=40, avg_degree=6, seed=5)
        label = (lambda x: f"v{x}") if labels == "str" else (lambda x: x)
        graph = UncertainGraph(
            [(label(u), label(v), p) for u, v, p in base.edges()],
            vertices=[label(1000), label(1001)],
        )
        path = tmp_path / name
        write_edge_list(graph, path)
        return str(path)

    @staticmethod
    def _lines_kept(service):
        return [entry for entry in service._datasets.values()
                if "lines" in entry]

    def _push(self, service, path, model, rows):
        out = service.update({"dataset": path, **rows})
        batch = EdgeDeltaBatch.from_pairs(model, **rows)
        apply_delta(model, batch, in_place=True)
        assert out["structural"] == batch.is_structural
        assert out["digest"] == graph_digest(model)
        return out

    @pytest.mark.parametrize("labels", ["int", "str"])
    def test_chain_of_updates(self, tmp_path, labels):
        path = self._write(tmp_path, f"{labels}.txt", labels)
        model = read_edge_list(path)
        assert model.number_of_vertices() > len(
            {v for e in model.edge_list() for v in e}
        )  # the isolated vertices are there
        rng = np.random.default_rng(3)
        with SparsifierService(ServerConfig(workers=1)) as service:
            for updates, inserts, deletes in self.CHAIN:
                rows = _drift_rows(model, rng, updates, inserts, deletes,
                                   as_int=labels == "int")
                out = self._push(service, path, model, rows)
                # Only the live overlay entry keeps its lines, and they
                # are the drifted graph's.
                kept = self._lines_kept(service)
                assert len(kept) == 1
                assert kept[0] is service._datasets[out["digest"]]
                assert kept[0]["lines"] == edge_list_lines(model)

    def test_first_update_of_a_registered_file(self, tmp_path):
        path = self._write(tmp_path, "fresh.txt", "int")
        model = read_edge_list(path)
        rng = np.random.default_rng(4)
        with SparsifierService(ServerConfig(workers=1)) as service:
            service.handle("estimate", {"dataset": path, "samples": 5})
            assert not self._lines_kept(service)
            out = self._push(service, path, model, _drift_rows(model, rng, 7))
            assert out["old_digest"] == dataset_digest(path)

    def test_update_after_the_overlay_is_evicted(self, tmp_path):
        path = self._write(tmp_path, "a.txt", "str")
        other = self._write(tmp_path, "b.txt", "int")
        model = read_edge_list(path)
        rng = np.random.default_rng(5)
        config = ServerConfig(workers=1, dataset_capacity=1)
        with SparsifierService(config) as service:
            self._push(service, path, model, _drift_rows(model, rng, 9))
            out = self._push(service, path, model, _drift_rows(model, rng, 4))
            service.handle("sparsify", {"dataset": other, **SPARSIFY})
            assert out["digest"] not in service._datasets
            assert not self._lines_kept(service)
            # The overlay went with its entry: the next delta lands on
            # the file's graph again, and takes a full pass.
            stale = read_edge_list(path)
            out = self._push(service, path, stale, _drift_rows(stale, rng, 6))
            assert out["old_digest"] == dataset_digest(path)
            self._push(service, path, stale, _drift_rows(stale, rng, 2))
            assert self._lines_kept(service)[0]["lines"] == \
                edge_list_lines(stale)


def _malformed(u, v):
    """Rows an earlier ``/update`` silently misread."""
    return [
        {"updates": [[u, v, True]]},           # was p = 1.0
        {"updates": [[u, v, "0.5"]]},          # was p = 0.5
        {"updates": ["011"]},                  # was ('0', '1', '1')
        {"updates": [[u, v, 0.5, "extra"]]},   # extra item was ignored
        {"deletes": ["12"]},                   # was the pair ('1', '2')
        {"deletes": [[u, v, 0.5]]},
    ]


class TestMalformedRows:
    def _state(self, service, dataset):
        return (
            service._digest(dataset),
            dict(service._overlays),
            service.cache.stats()["size"],
            service.cache.stats()["invalidations"],
        )

    def test_rejected_before_the_delta_lands(self, service, dataset):
        _, u, v, _ = _first_edge(dataset)
        # An overlay and a cached artifact for the drifted graph exist.
        service.update({"dataset": dataset, "updates": [[u, v, 0.5]]})
        body, _ = service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        before = self._state(service, dataset)
        assert before[1] == {dataset: before[0]}
        for rows in _malformed(u, v):
            with pytest.raises(GraphError) as excinfo:
                service.update({"dataset": dataset, **rows})
            (row,) = next(iter(rows.values()))
            assert repr(row) in str(excinfo.value)
            assert self._state(service, dataset) == before
        again, hit = service.handle(
            "sparsify", {"dataset": dataset, **SPARSIFY}
        )
        assert hit and again == body


class TestUpdateHTTP:
    def _post(self, port, path, document):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(document).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read())

    def test_update_round_trip(self, dataset):
        _, u, v, _ = _first_edge(dataset)
        with start_server(ServerConfig(port=0, workers=2)) as server:
            out = self._post(server.port, "/update", {
                "dataset": dataset, "updates": [[u, v, 0.321]],
            })
            assert out["endpoint"] == "update"
            assert out["updates"] == 1 and not out["structural"]
            metrics = json.loads(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/metrics", timeout=30
                ).read()
            )
            assert "invalidations" in metrics["cache"]

    def test_update_error_is_client_error(self, dataset):
        with start_server(ServerConfig(port=0, workers=2)) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(server.port, "/update", {
                    "dataset": dataset, "updates": [["no-such", "vertex", 0.5]],
                })
            assert 400 <= excinfo.value.code < 500

    def test_malformed_rows_are_400(self, dataset):
        _, u, v, _ = _first_edge(dataset)
        with start_server(ServerConfig(port=0, workers=2)) as server:
            before = server.service._digest(dataset)
            for rows in _malformed(u, v):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    self._post(server.port, "/update",
                               {"dataset": dataset, **rows})
                assert excinfo.value.code == 400
                assert "GraphError" in excinfo.value.read().decode()
            assert server.service._digest(dataset) == before
            assert dataset not in server.service._overlays
