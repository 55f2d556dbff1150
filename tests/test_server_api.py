"""The assembled job server: service semantics + the HTTP surface.

The load-bearing contracts:

- a repeated request with identical parameters is served from the
  artifact cache with *zero recomputation* and a *byte-identical*
  response body,
- N concurrent identical requests compute at most once (single flight),
- the artifact equals what a direct library call produces (the cache
  is transparent),
- admission control sheds overflow with 429,
- estimate jobs never leak a process pool past their completion.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro.core import sparsify
from repro.datasets import format_edge_list, twitter_like, write_edge_list
from repro.exceptions import AdmissionError, ServerError
from repro.server import ServerConfig, SparsifierService, start_server

N_VERTICES = 60


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "graph.txt"
    write_edge_list(twitter_like(n=N_VERTICES, avg_degree=10, seed=1), path)
    return str(path)


@pytest.fixture()
def service(dataset):
    with SparsifierService(ServerConfig(workers=2)) as svc:
        yield svc


SPARSIFY = dict(alpha=0.4, variant="GDB^A", seed=0)


class TestServiceCore:
    def test_repeat_is_cached_byte_identical_zero_recompute(self, service, dataset):
        body1, hit1 = service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        body2, hit2 = service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        assert (hit1, hit2) == (False, True)
        assert body1 == body2  # byte-identical
        # Zero recomputation: exactly one job ever reached the queue.
        assert service.queue.stats()["submitted"] == 1

    def test_artifact_matches_direct_library_call(self, service, dataset):
        body, _ = service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        document = json.loads(body)
        from repro.datasets import read_edge_list

        graph = read_edge_list(dataset)
        expected = sparsify(
            graph, SPARSIFY["alpha"], variant=SPARSIFY["variant"],
            rng=SPARSIFY["seed"],
        )
        assert document["artifact"] == format_edge_list(expected, header=False)
        assert document["edges"] == expected.number_of_edges()

    def test_concurrent_identical_requests_compute_once(self, service, dataset):
        n = 6
        barrier = threading.Barrier(n)
        results: list = [None] * n

        def request(i):
            barrier.wait()
            results[i] = service.handle(
                "sparsify", {"dataset": dataset, "alpha": 0.5,
                             "variant": "EMD^A", "seed": 3}
            )

        threads = [threading.Thread(target=request, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        bodies = {body for body, _ in results}
        assert len(bodies) == 1, "all callers must share one artifact"
        # At most one computation: single flight collapses the burst.
        assert service.queue.stats()["submitted"] == 1
        assert sum(1 for _, hit in results if hit) == n - 1

    def test_seed_and_params_partition_the_cache(self, service, dataset):
        body_a, _ = service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        body_b, hit = service.handle(
            "sparsify", {"dataset": dataset, **{**SPARSIFY, "seed": 1}}
        )
        assert not hit
        assert body_a != body_b

    def test_dataset_rewrite_invalidates_via_digest(self, service, tmp_path):
        path = tmp_path / "mutable.txt"
        write_edge_list(twitter_like(n=40, avg_degree=8, seed=2), path)
        body1, _ = service.handle(
            "sparsify", {"dataset": str(path), "alpha": 0.6, "seed": 0}
        )
        write_edge_list(twitter_like(n=40, avg_degree=8, seed=9), path)
        body2, hit = service.handle(
            "sparsify", {"dataset": str(path), "alpha": 0.6, "seed": 0}
        )
        assert not hit and body1 != body2

    def test_rewrite_between_digest_and_execution_cannot_mislabel(
        self, service, tmp_path
    ):
        # The digest is computed from the same bytes the job parses:
        # a rewrite after request admission must never let the *new*
        # graph be computed (and cached) under the *old* digest.
        original = twitter_like(n=40, avg_degree=8, seed=2)
        path = tmp_path / "racy.txt"
        write_edge_list(original, path)
        digest = service._digest(str(path))
        write_edge_list(twitter_like(n=50, avg_degree=6, seed=9), path)
        # Registry still holds the graph parsed from the digested bytes.
        entry = service._dataset(str(path), digest)
        assert entry["graph"].number_of_edges() == original.number_of_edges()
        # If the entry was evicted, the re-read is verified against the
        # digest instead of silently computing on the rewritten file.
        with service._datasets_lock:
            service._datasets.clear()
        with pytest.raises(ServerError, match="changed on disk"):
            service._dataset(str(path), digest)

    def test_estimate_deterministic_and_pool_reaped(self, dataset):
        with SparsifierService(ServerConfig(workers=1)) as svc:
            params = {"dataset": dataset, "query": "reliability",
                      "samples": 40, "pairs": 10, "seed": 7}
            body1, hit1 = svc.handle("estimate", params)
            body2, hit2 = svc.handle("estimate", params)
        assert (hit1, hit2) == (False, True)
        assert body1 == body2

    @pytest.mark.parametrize("query", ["connectivity", "reliability", "distance"])
    def test_single_sample_width_is_strict_json_null(self, service, dataset, query):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            body, _ = service.handle("estimate", {
                "dataset": dataset, "query": query, "samples": 1, "pairs": 5,
            })
        document = json.loads(body, parse_constant=reject)
        assert document["confidence_width"] is None
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_grid_endpoint_rows(self, service, dataset):
        body, _ = service.handle(
            "grid", {"dataset": dataset, "alphas": [0.4, 0.6],
                     "h_values": [0.05], "seed": 0}
        )
        cells = json.loads(body)["cells"]
        assert [(c["alpha"], c["h"]) for c in cells] == [(0.4, 0.05), (0.6, 0.05)]
        assert all(c["objective"] >= 0.0 for c in cells)

    def test_admission_control_sheds_overflow(self, service, dataset, monkeypatch):
        release = threading.Event()
        original = service._run_sparsify

        def slow_sparsify(norm):
            release.wait(30)
            return original(norm)

        monkeypatch.setattr(service, "_run_sparsify", slow_sparsify)
        monkeypatch.setattr(service.queue, "max_depth", 1)
        errors: list = []
        done: list = []

        def request(alpha):
            try:
                done.append(service.handle(
                    "sparsify", {"dataset": dataset, "alpha": alpha, "seed": 0}
                ))
            except AdmissionError as error:
                errors.append(error)

        # 2 workers occupy themselves, 1 fits the queue, the rest shed.
        threads = [
            threading.Thread(target=request, args=(0.40 + 0.01 * i,))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        deadline = time.time() + 10
        while not errors and time.time() < deadline:
            time.sleep(0.01)
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert errors, "overflow submissions must raise AdmissionError"
        assert len(done) + len(errors) == 6
        assert service.queue.stats()["rejected"] == len(errors)

    def test_bad_requests_rejected(self, service, dataset):
        with pytest.raises(ServerError, match="alpha"):
            service.handle("sparsify", {"dataset": dataset})
        with pytest.raises(ValueError, match="variant"):
            service.handle(
                "sparsify", {"dataset": dataset, "alpha": 0.4, "variant": "XXL"}
            )
        with pytest.raises(ServerError, match="dataset"):
            service.handle("sparsify", {"alpha": 0.4})
        with pytest.raises(ServerError, match="cannot read"):
            service.handle("sparsify", {"dataset": "/nonexistent", "alpha": 0.4})
        with pytest.raises(ServerError, match="unknown parameters"):
            service.handle(
                "sparsify", {"dataset": dataset, "alpha": 0.4, "typo": 1}
            )
        with pytest.raises(ServerError, match="unknown endpoint"):
            service.handle("evaluate", {"dataset": dataset})
        # The Monte-Carlo process pool is gone: only mc_workers=1 starts.
        for mc_workers in (2, 0, None, True):
            with pytest.raises(ServerError, match="mc_workers"):
                SparsifierService(ServerConfig(mc_workers=mc_workers))

    def test_bad_enumerated_params_rejected_before_queueing(
        self, service, dataset
    ):
        # Integral fields are checked, not truncated: a fractional seed
        # would otherwise be served another seed's artifact.
        for endpoint, extra in (
            ("sparsify", SPARSIFY), ("estimate", {}), ("grid", {}),
        ):
            for field, value in (
                ("seed", -1), ("seed", 2.9), ("seed", "3"), ("seed", True),
                ("priority", 1.5),
            ):
                with pytest.raises(ServerError, match=f"{field} must be"):
                    service.handle(endpoint, {
                        "dataset": dataset, **extra, field: value,
                    })
        for field, value in (
            ("seed", -5), ("samples", 2.5), ("pairs", 1.5),
            ("weighted", "false"), ("weighted", 1),
        ):
            with pytest.raises(ServerError, match=f"{field} must be"):
                service.handle("estimate", {
                    "dataset": dataset, "query": "distance", field: value,
                })
        for fields, name in (
            ({"k": 0}, "k"), ({"k": -3}, "k"), ({"k": 2.5}, "k"),
            ({"k": "m"}, "k"), ({"backbone_method": "nope"}, "backbone_method"),
            ({"k": 2, "relative": True}, "relative"),
            ({"k": "n", "relative": True}, "relative"),
            ({"relative": "false"}, "relative"),
        ):
            with pytest.raises(ServerError, match=f"{name} (must be|applies)"):
                service.handle("grid", {"dataset": dataset, **fields})
        # Entropy parameters and grid ratios are range-checked up front
        # (NaN and infinities included), for every variant.
        for variant in ("GDB^A", "LP-t"):
            for h in (2.0, -0.5, float("nan"), float("inf")):
                with pytest.raises(ServerError, match="h must be"):
                    service.handle("sparsify", {
                        "dataset": dataset, **SPARSIFY, "variant": variant,
                        "h": h,
                    })
        for h_values in ([1.5], [0.05, float("nan")]):
            with pytest.raises(ServerError, match="h_values"):
                service.handle(
                    "grid", {"dataset": dataset, "h_values": h_values}
                )
        for alphas in ([1.4], [0.0], [0.2, float("nan")]):
            with pytest.raises(ServerError, match="alphas"):
                service.handle("grid", {"dataset": dataset, "alphas": alphas})
        # There is no array-backend knob, no EMD mode, no sweep engine
        # and no LP solver: each field is just unknown, for every variant.
        for field, value in (
            ("backend", "numpy"), ("emd_mode", "fast"), ("engine", "vector"),
            ("engine", "loop"), ("lp_solver", "highs"), ("lp_solver", "pdp"),
        ):
            for variant in ("GDB^A-t", "EMD^R-t", "LP-t"):
                with pytest.raises(ServerError, match="unknown parameters"):
                    service.handle("sparsify", {
                        "dataset": dataset, **SPARSIFY, "variant": variant,
                        field: value,
                    })
        for value in ("vector", "loop", "gpu"):
            with pytest.raises(ServerError, match="unknown parameters"):
                service.handle("grid", {"dataset": dataset, "engine": value})
        for query in ("reliability", "distance", "pagerank"):
            for pairs in (0, -3):
                with pytest.raises(ServerError, match="pairs"):
                    service.handle("estimate", {
                        "dataset": dataset, "query": query, "pairs": pairs,
                    })
        stats = service.queue.stats()
        assert (stats["submitted"], stats["failed"]) == (0, 0)

    def test_unused_fields_stay_out_of_the_cache_key(self, service, dataset):
        gdb = {"dataset": dataset, "alpha": 0.4, "variant": "GDB^A-t", "seed": 0}
        lp = {**gdb, "variant": "LP-t"}
        emd = {**gdb, "variant": "EMD^A-t"}
        ni = {**gdb, "variant": "NI"}
        for params in (lp, ni):
            body, hit = service.handle("sparsify", params)
            assert not hit and "h" not in json.loads(body)
            again, hit = service.handle("sparsify", {**params, "h": 0.5})
            assert hit and again == body  # byte-identical hit
        # There is no LP solver to choose: the field is refused before
        # queueing, whichever variant the request names.
        for params in (gdb, lp, emd):
            with pytest.raises(
                ServerError,
                match=r"unknown parameters for sparsify: \['lp_solver'\]",
            ):
                service.handle("sparsify", {**params, "lp_solver": "pdp"})
        assert service.queue.stats()["submitted"] == 2
        # A field the variant does read partitions the cache.
        for params in (gdb, emd):
            body, hit = service.handle("sparsify", params)
            assert not hit and json.loads(body)["h"] == 0.05
            body, hit = service.handle("sparsify", {**params, "h": 0.5})
            assert not hit and json.loads(body)["h"] == 0.5
        # Only the pair queries read ``pairs``.
        for query in ("pagerank", "clustering", "connectivity"):
            params = {"dataset": dataset, "query": query, "samples": 8}
            body, hit = service.handle("estimate", params)
            assert not hit
            again, hit = service.handle("estimate", {**params, "pairs": 7})
            assert hit and again == body
        reliability = {"dataset": dataset, "query": "reliability", "samples": 8}
        service.handle("estimate", reliability)
        _, hit = service.handle("estimate", {**reliability, "pairs": 7})
        assert not hit

    def test_variant_keyed_on_its_canonical_name(self, service, dataset):
        """Spellings of one variant are one computation: one miss, then
        byte-identical hits, one job per canonical variant."""
        spellings = {
            "EMD^R-t": ("EMD^R-t", "emd^r-t", " EMD^R-t "),
            "LP^A": ("LP", "LP^A", "lp^a", "LP_1"),
            "SP": ("SP", "SS", "sp"),
            "GDB^A_2": ("GDB^A_2", "GDB_2", "gdb^a_2"),
        }
        for canonical, names in spellings.items():
            bodies = set()
            for i, variant in enumerate(names):
                body, hit = service.handle("sparsify", {
                    "dataset": dataset, **SPARSIFY, "variant": variant,
                })
                assert hit == (i > 0), variant
                assert json.loads(body)["variant"] == canonical
                bodies.add(body)
            assert len(bodies) == 1
        assert service.queue.stats()["submitted"] == len(spellings)

    def test_unread_variant_notation_refused_before_queueing(
        self, service, dataset
    ):
        for variant in ("EMD^A_2", "LP^R", "LP_2", "NI^R", "NI-t", "SP_2",
                        "ER-t", "RANDOM^A"):
            with pytest.raises(ValueError, match="does not read"):
                service.handle("sparsify", {
                    "dataset": dataset, **SPARSIFY, "variant": variant,
                })
            with pytest.raises(ValueError, match="does not read"):
                service.update({
                    "dataset": dataset, "updates": [],
                    "resparsify": {**SPARSIFY, "variant": variant},
                })
        stats = service.queue.stats()
        assert (stats["submitted"], stats["failed"]) == (0, 0)

    def test_scheduled_refresh_warms_the_cache(self, service, dataset):
        params = {"dataset": dataset, "alpha": 0.45, "variant": "GDB^A",
                  "seed": 0}
        service.schedule_resparsify("warm", params, interval=3600.0)
        # Fire the schedule by hand (the driver thread isn't running in
        # tests): afterwards the first interactive request is a hit.
        fired = service.scheduler.tick(time.monotonic() + 3601.0)
        assert fired == ["warm"]
        body, hit = service.handle("sparsify", params)
        assert hit, "the refresh must have warmed the cache"
        assert json.loads(body)["alpha"] == 0.45
        [schedule] = service.status()["schedules"]
        assert schedule["runs"] == 1 and schedule["last_error"] is None

    def test_status_and_metrics_documents(self, service, dataset):
        service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        service.handle("sparsify", {"dataset": dataset, **SPARSIFY})
        status = service.status()
        assert status["queue"]["completed"] == 1
        assert status["datasets_loaded"] == 1
        metrics = service.metrics()
        assert metrics["total_requests"] == 2
        assert metrics["cache"]["hits"] == 1
        assert set(metrics["endpoints"]["sparsify"]["latency_s"]) == {
            "p50", "p90", "p99"
        }


class TestHTTPSurface:
    @pytest.fixture(scope="class")
    def server(self, dataset):
        with start_server(ServerConfig(port=0, workers=2)) as server:
            yield server

    @staticmethod
    def _post(server, path, document):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}",
            data=json.dumps(document).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return (response.status, response.headers.get("X-Repro-Cache"),
                    response.read())

    @staticmethod
    def _get(server, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}{path}", timeout=60
        ) as response:
            return response.status, response.read()

    def test_sparsify_roundtrip_and_cache_header(self, server, dataset):
        document = {"dataset": dataset, "alpha": 0.4, "variant": "GDB^A",
                    "seed": 0}
        status1, cache1, body1 = self._post(server, "/sparsify", document)
        status2, cache2, body2 = self._post(server, "/sparsify", document)
        assert (status1, status2) == (200, 200)
        assert (cache1, cache2) == ("miss", "hit")
        assert body1 == body2
        artifact = json.loads(body1)["artifact"]
        assert len(artifact.splitlines()) >= json.loads(body1)["edges"]

    def test_estimate_and_metrics(self, server, dataset):
        status, _, body = self._post(server, "/estimate", {
            "dataset": dataset, "query": "reliability", "samples": 30,
            "pairs": 5, "seed": 2,
        })
        assert status == 200
        assert 0.0 <= json.loads(body)["estimate"] <= 1.0
        status, body = self._get(server, "/metrics")
        metrics = json.loads(body)
        assert status == 200
        assert metrics["total_worlds"] >= 30
        assert "estimate" in metrics["endpoints"]

    def test_status_and_healthz(self, server):
        status, body = self._get(server, "/status")
        assert status == 200 and "queue" in json.loads(body)
        status, body = self._get(server, "/healthz")
        assert status == 200 and json.loads(body) == {"ok": True}

    def test_http_error_codes(self, server, dataset):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/sparsify", {"dataset": dataset})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/nonsense", {})
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/nonsense")
        assert excinfo.value.code == 404
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/sparsify", data=b"not json{{",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_queue_overflow_maps_to_429(self, server, dataset):
        service = server.service
        release = threading.Event()
        original = service._run_sparsify

        def slow_sparsify(norm):
            release.wait(30)
            return original(norm)

        service._run_sparsify = slow_sparsify
        saved_depth = service.queue.max_depth
        service.queue.max_depth = 1
        codes: list[int] = []

        def request(alpha):
            try:
                status, _, _ = self._post(server, "/sparsify", {
                    "dataset": dataset, "alpha": alpha, "seed": 0,
                })
                codes.append(status)
            except urllib.error.HTTPError as error:
                codes.append(error.code)

        try:
            threads = [
                threading.Thread(target=request, args=(0.60 + 0.01 * i,))
                for i in range(6)
            ]
            for t in threads:
                t.start()
            deadline = time.time() + 10
            while 429 not in codes and time.time() < deadline:
                time.sleep(0.01)
            release.set()
            for t in threads:
                t.join(timeout=60)
        finally:
            service._run_sparsify = original
            service.queue.max_depth = saved_depth
            release.set()
        assert codes.count(429) >= 1
        assert codes.count(200) == 6 - codes.count(429)

    def test_unread_body_closes_keep_alive_connection(self, server):
        # An error response sent before the body was read must carry
        # 'Connection: close' (and actually close), or the unread body
        # bytes would be parsed as the next request on the connection.
        import socket

        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /sparsify HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Length: 2000000\r\n"
                b"\r\n"
            )  # body intentionally never sent
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closed the connection
                chunks.append(chunk)
            response = b"".join(chunks)
        status_line = response.split(b"\r\n", 1)[0]
        assert b"400" in status_line
        headers = response.split(b"\r\n\r\n", 1)[0].lower()
        assert b"connection: close" in headers

    def test_schedule_endpoint(self, server, dataset):
        status, _, body = self._post(server, "/schedule", {
            "name": "nightly", "interval_s": 3600.0,
            "params": {"dataset": dataset, "alpha": 0.5, "seed": 0},
        })
        assert status == 200
        assert json.loads(body)["name"] == "nightly"
        status, body = self._get(server, "/status")
        names = [s["name"] for s in json.loads(body)["schedules"]]
        assert "nightly" in names


class TestBinaryDatasets:
    """Binary datasets: O(header) digest keys, mmap registry, guards."""

    @pytest.fixture(scope="class")
    def binary(self, dataset, tmp_path_factory):
        from repro.datasets import read_edge_list, write_binary

        path = tmp_path_factory.mktemp("serve-bin") / "graph.bin"
        write_binary(read_edge_list(dataset), path)
        return str(path)

    def test_sparsify_on_binary_matches_text_dataset(self, service, dataset,
                                                     binary):
        from_text, _ = service.handle(
            "sparsify", {"dataset": dataset, **SPARSIFY})
        from_binary, _ = service.handle(
            "sparsify", {"dataset": binary, **SPARSIFY})
        # Bit-identity holds per input, not across formats: the text
        # dataset's graph numbers its vertices in first-touch order while
        # the binary file stores the numeric labels themselves as dense
        # ids, so pipeline sums run in different orders and GDB may
        # legitimately keep a slightly different edge set.  What must
        # agree: the structural invariants of the sparsifier — same edge
        # budget, same vertex universe, probabilities in (0, 1].
        def parse(body):
            artifact = json.loads(body)["artifact"]
            edges = {}
            for line in artifact.splitlines():
                parts = line.split()
                if len(parts) == 3 and not line.startswith("#"):
                    edges[frozenset((parts[0], parts[1]))] = float(parts[2])
            return edges

        text_edges, binary_edges = parse(from_text), parse(from_binary)
        assert len(text_edges) == len(binary_edges) > 0
        for edges in (text_edges, binary_edges):
            assert all(0.0 < p <= 1.0 for p in edges.values())
        # The overwhelming majority of selections still coincide.
        shared = text_edges.keys() & binary_edges.keys()
        assert len(shared) >= int(0.8 * len(text_edges))

    def test_digest_key_is_header_digest(self, service, binary):
        from repro.datasets import binary_digest

        service.handle("sparsify", {"dataset": binary, **SPARSIFY})
        digest = binary_digest(binary).encode()
        assert any(digest in key for key in service.cache._entries)

    def test_rewrite_on_disk_detected(self, service, binary, tmp_path):
        import shutil

        from repro.datasets import read_edge_list, write_binary

        copy = str(tmp_path / "mutable.bin")
        shutil.copy(binary, copy)
        service.handle("sparsify", {"dataset": copy, **SPARSIFY})
        # Rewrite the file with different content: the registry entry is
        # keyed by digest, so the stale digest must not be served.
        write_binary(twitter_like(n=30, avg_degree=6, seed=9), copy,
                     allow_relabel=True)
        body, hit = service.handle("sparsify", {"dataset": copy, **SPARSIFY})
        assert not hit
        assert body  # computed against the new content

    def test_corrupt_binary_rejected(self, service, binary, tmp_path):
        from repro.datasets.binary_io import HEADER_SIZE

        bad = tmp_path / "corrupt.bin"
        raw = bytearray(open(binary, "rb").read())
        raw[HEADER_SIZE + 1] ^= 0xFF
        bad.write_bytes(bytes(raw))
        with pytest.raises(ServerError, match="digest"):
            service.handle("sparsify", {"dataset": str(bad), **SPARSIFY})

    def test_every_variant_runs_on_binary(self, service, binary):
        from repro.core import available_variants
        from repro.datasets import read_binary

        graph = read_binary(binary, mmap=True).graph()
        for variant in available_variants():
            body, _ = service.handle("sparsify", {
                "dataset": binary, "alpha": 0.4, "variant": variant,
                "seed": 0,
            })
            expected = sparsify(graph, 0.4, variant=variant, rng=0)
            assert json.loads(body)["artifact"] == \
                format_edge_list(expected, header=False), variant

    def test_estimate_on_binary(self, service, binary):
        body, _ = service.handle("estimate", {
            "dataset": binary, "query": "connectivity",
            "samples": 16, "seed": 3,
        })
        assert json.loads(body)
