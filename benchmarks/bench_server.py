"""Server smoke benchmark: cache latency and the update write path.

Three layers, matching the other benches' "equality always gates, speed
floors are environment-tunable" idiom:

1. **In-process** — drive :class:`SparsifierService` directly: a cold
   ``sparsify`` request computes, the identical repeat must be a cache
   hit with a byte-identical body and *zero* extra queue submissions.
   The hot/cold speedup is reported and gated via
   ``REPRO_BENCH_SERVER_MIN_SPEEDUP`` (default 5x — a hot hit is a dict
   lookup; cold runs a full GDB sweep), and archived as
   ``results/BENCH_server.json``.

2. **Update write path** — time a run of probability-only ``update``
   calls (1% drift per call, as in perfbench's serve-3k) on a
   3000-vertex graph and archive the median as ``update_ms``.  Each
   returned ``digest`` must equal ``graph_digest`` of the client's own
   copy, drifted by the same batches through ``apply_delta``.

3. **Subprocess** — boot ``python -m repro.server --port 0`` exactly as
   an operator would, parse the advertised port from stdout, and drive
   ``sparsify`` twice + ``estimate`` + ``metrics`` over real HTTP.  The
   repeat must arrive with ``X-Repro-Cache: hit`` and a bit-identical
   artifact.  This is the CI ``server`` job's gate.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.core.delta import apply_delta
from repro.datasets import flickr_like, graph_digest, read_edge_list, write_edge_list
from repro.datasets.drift import DriftWorkload
from repro.experiments.common import ResultTable
from repro.server import ServerConfig, SparsifierService

#: A hot request is an LRU lookup; anything under this floor means the
#: cache is recomputing.  Tunable for noisy shared runners — the
#: byte-identity and zero-recompute assertions always gate.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SERVER_MIN_SPEEDUP", "5.0"))

REPEATS = 5

#: Probability-only ``update`` calls timed by the write-path bench.
UPDATES = 10

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def results():
    """``BENCH_server.json``'s payload: each bench adds its figures and
    writes the union, so running one bench alone still writes a file."""
    return {}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench_server") / "flickr_like.txt"
    write_edge_list(flickr_like(n=400, avg_degree=12, seed=11), path)
    return str(path)


def test_bench_cache_hot_vs_cold(dataset, results, emit, emit_json):
    params = {"dataset": dataset, "alpha": 0.3, "variant": "EMD^R-t",
              "seed": 0}
    with SparsifierService(ServerConfig(workers=2)) as service:
        start = time.perf_counter()
        cold_body, cold_hit = service.handle("sparsify", params)
        cold_s = time.perf_counter() - start

        hot_s = float("inf")
        for _ in range(REPEATS):  # best-of: hit latency, not scheduler noise
            start = time.perf_counter()
            hot_body, hot_hit = service.handle("sparsify", params)
            hot_s = min(hot_s, time.perf_counter() - start)

        # Correctness gates (unconditional): byte identity and zero
        # recomputation on the hot path.
        assert not cold_hit and hot_hit
        assert hot_body == cold_body, "cache hit changed the artifact bytes"
        assert service.queue.stats()["submitted"] == 1, (
            "repeat request re-entered the job queue"
        )

        speedup = cold_s / max(hot_s, 1e-9)
        table = ResultTable(
            title=f"Artifact cache, EMD^R-t alpha=0.3 -> "
            f"{json.loads(cold_body)['edges']} kept edges, flickr-like n=400",
            headers=["path", "seconds", "speedup"],
        )
        table.add_row("cold (computed)", cold_s, 1.0)
        table.add_row("hot (cache hit)", hot_s, speedup)
        emit("bench_server_cache", table)
        results.update(cold_s=cold_s, hot_s=hot_s, speedup=speedup)
        emit_json("server", results)

    assert speedup >= MIN_SPEEDUP, (
        f"hot request only {speedup:.1f}x faster than cold "
        f"(need >= {MIN_SPEEDUP}x — is the cache recomputing?)"
    )


def test_bench_update_write_path(tmp_path, results, emit, emit_json):
    path = tmp_path / "serve.txt"
    write_edge_list(flickr_like(n=3000, avg_degree=16, seed=11), path)
    dataset = str(path)
    model = read_edge_list(dataset)  # the client's own copy
    stream = DriftWorkload(model, edge_fraction=0.01, seed=11)
    params = {"dataset": dataset, "alpha": 0.4, "variant": "GDB^A-t",
              "seed": 0}
    seconds = []
    with SparsifierService(ServerConfig(workers=1)) as service:
        service.handle("sparsify", params)  # registers the graph, builds its plan
        for _ in range(UPDATES):
            batch = stream.next_batch(model)
            edges = model.edge_list()
            rows = [
                [*edges[eid], p] for eid, p in
                zip(batch.update_eids.tolist(), batch.update_ps.tolist())
            ]
            start = time.perf_counter()
            out = service.update({"dataset": dataset, "updates": rows})
            seconds.append(time.perf_counter() - start)
            apply_delta(model, batch, in_place=True)
            # Correctness gates: a probability-only delta repairs the plan,
            # and the served digest names exactly the client's graph.
            assert not out["structural"] and out["plan_repaired"]
            assert out["updates"] == len(rows)
            assert out["digest"] == graph_digest(model), (
                "served digest differs from the client's drifted copy"
            )

    update_ms = 1e3 * statistics.median(seconds)
    table = ResultTable(
        title=f"Probability-only update, {len(rows)} edges of "
        f"{model.number_of_edges()} per call, flickr-like n=3000",
        headers=["calls", "median ms", "min ms"],
    )
    table.add_row(UPDATES, update_ms, 1e3 * min(seconds))
    emit("bench_server_update", table)
    results.update(update_ms=update_ms, update_calls=UPDATES,
                   update_edges=len(rows), edges=model.number_of_edges())
    emit_json("server", results)


def _post(port, path, document):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.headers.get("X-Repro-Cache"), response.read()


def test_server_subprocess_smoke(dataset):
    env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"listening on http://[\w.]+:(\d+)", line)
        assert match, f"no listening banner, got: {line!r}"
        port = int(match.group(1))

        params = {"dataset": dataset, "alpha": 0.3, "variant": "GDB^A",
                  "seed": 0}
        cache1, body1 = _post(port, "/sparsify", params)
        cache2, body2 = _post(port, "/sparsify", params)
        assert (cache1, cache2) == ("miss", "hit")
        assert body1 == body2, "cache hit must be bit-identical"

        _, body = _post(port, "/estimate", {
            "dataset": dataset, "query": "reliability", "samples": 50,
            "pairs": 10, "seed": 4,
        })
        assert 0.0 <= json.loads(body)["estimate"] <= 1.0

        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=30
        ) as response:
            metrics = json.loads(response.read())
        assert metrics["total_requests"] >= 3
        assert metrics["cache"]["hits"] >= 1
        assert metrics["total_worlds"] >= 50
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
