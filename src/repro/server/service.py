"""The sparsification service: jobs, datasets, artifacts, schedules.

:class:`SparsifierService` is the worker core the HTTP layer fronts.
A request becomes a :class:`~repro.server.queue.Job` only on a cache
miss; the artifact cache (keyed by the full parameter tuple including
the dataset's content digest) intercepts repeats and deduplicates
concurrent identical requests down to one computation (single flight).
Job workers are plain threads claiming from the priority queue; the
heavy lifting inside a job is numpy, so threads overlap fine.
Estimates evaluate their Monte-Carlo chunks in the worker thread too.

Determinism contract: artifacts are canonical JSON (sorted keys) whose
payload is a pure function of ``(dataset digest, endpoint params,
seed)`` — the compute layers underneath are bit-identical under a fixed
seed, so a cache hit is byte-identical to recomputation.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.backbone import BACKBONE_METHODS, BackbonePlan
from repro.core.delta import EdgeDeltaBatch, apply_delta
from repro.core.grid import gdb_grid, objective_rows
from repro.core.sparsify import parse_variant, sparsify
from repro.datasets.io import (
    content_digest,
    edge_list_lines,
    format_edge_list,
    lines_digest,
    parse_edge_list,
    patch_edge_list_lines,
)
from repro.exceptions import AdmissionError, ServerError
from repro.server.cache import ArtifactCache
from repro.server.meter import ThroughputMeter
from repro.server.queue import PriorityJobQueue
from repro.server.scheduler import Scheduler

#: Lower value = more urgent.  Interactive estimates beat sparsify jobs
#: beat grid sweeps; scheduler-driven refreshes yield to everything.
DEFAULT_PRIORITIES = {"estimate": 10, "sparsify": 20, "grid": 30}
REFRESH_PRIORITY = 60

_ESTIMATE_QUERIES = (
    "reliability", "distance", "pagerank", "clustering", "connectivity"
)
#: The estimate queries that read ``pairs``; the others validate it but
#: keep it out of the cache key.
_PAIR_QUERIES = ("reliability", "distance")


#: The methods whose iterative core reads the entropy parameter ``h``;
#: for the others it is validated but kept out of the cache key and the
#: artifact (and left to the default).
_ENTROPY_METHODS = ("gdb", "emd")


def _choice(params: dict, name: str, default: str, allowed: tuple) -> str:
    """Pop an enumerated request field, rejecting values outside
    ``allowed`` before the request can occupy a queue slot."""
    value = str(params.pop(name, default))
    if value not in allowed:
        raise ServerError(
            f"{name} must be one of {list(allowed)}, got {value!r}"
        )
    return value


def _integer(value, name: str, minimum: "int | None" = None) -> int:
    """Coerce an integral request field, rejecting a fractional,
    non-numeric or boolean value (or one below ``minimum``) before the
    request is queued, instead of truncating it or failing in a job."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
        not isinstance(value, numbers.Integral)
        and not float(value).is_integer()
    ):
        raise ServerError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ServerError(f"{name} must be >= {minimum}, got {value}")
    return value


def _flag(params: dict, name: str) -> bool:
    """Pop a boolean request field; only a JSON boolean is accepted
    (``bool("false")`` is ``True``)."""
    value = params.pop(name, False)
    if not isinstance(value, bool):
        raise ServerError(f"{name} must be a JSON boolean, got {value!r}")
    return value


def _entropy_parameter(value, name: str = "h") -> float:
    """Coerce an entropy parameter, rejecting one outside ``[0, 1]``
    (NaN and infinities included) before the request is queued."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ServerError(f"{name} must be in [0, 1], got {value}")
    return value


@dataclass
class ServerConfig:
    """Tunables for the job server."""

    host: str = "127.0.0.1"
    port: int = 8765
    queue_depth: int = 64          # admission-control bound (429 beyond it)
    cache_capacity: int = 256      # artifact LRU entries
    workers: int = 2               # job worker threads
    mc_workers: int = 1            # must be 1: estimates run in-process
    max_samples: int = 100_000     # per-request Monte-Carlo world cap
    max_grid_cells: int = 256      # per-request (alpha, h) grid cap
    dataset_capacity: int = 16     # parsed graphs + plans kept in RAM
    request_timeout: float = 600.0  # seconds a request waits on its job
    datasets_root: "str | None" = None  # confine dataset paths when set
    cache_spill_dir: "str | None" = None  # disk tier for evicted artifacts
    cache_spill_mb: int = 256      # spill tier byte budget (MiB)


def canonical_body(document: dict) -> bytes:
    """Serialise a response document to canonical (byte-stable) JSON.

    Strict JSON: a non-finite float raises ``ValueError`` instead of
    leaking a ``NaN``/``Infinity`` token that strict parsers reject.
    """
    return (json.dumps(document, sort_keys=True, separators=(",", ":"),
                       allow_nan=False)
            + "\n").encode("utf-8")


class SparsifierService:
    """Long-lived worker core: queue + cache + meter + scheduler."""

    def __init__(self, config: "ServerConfig | None" = None) -> None:
        self.config = config or ServerConfig()
        mc_workers = self.config.mc_workers
        if isinstance(mc_workers, bool) or mc_workers != 1:
            raise ServerError(
                f"mc_workers must be 1, got {mc_workers!r}: the Monte-Carlo "
                "process pool was removed and estimates run in-process"
            )
        self.queue = PriorityJobQueue(max_depth=self.config.queue_depth)
        self.cache = ArtifactCache(
            capacity=self.config.cache_capacity,
            spill_dir=self.config.cache_spill_dir,
            spill_capacity_bytes=self.config.cache_spill_mb << 20,
        )
        self.meter = ThroughputMeter()
        self.scheduler = Scheduler()
        self.started = time.monotonic()
        self._datasets: "OrderedDict[str, dict]" = OrderedDict()
        self._datasets_lock = threading.Lock()
        #: dataset path -> live digest after a ``/update`` delta push.
        #: Consulted before the on-disk content so later requests see
        #: the drifted graph; guarded by ``_datasets_lock``.
        self._overlays: dict[str, str] = {}
        self._update_lock = threading.Lock()
        self._stop = threading.Event()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(max(1, self.config.workers))
        ]
        for thread in self._workers:
            thread.start()

    # -- lifecycle -----------------------------------------------------------
    def __enter__(self) -> "SparsifierService":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Shut down: scheduler, queue, worker threads, datasets."""
        self.scheduler.close()
        self._stop.set()
        self.queue.close()
        for thread in self._workers:
            thread.join(timeout=10.0)
        with self._datasets_lock:
            self._datasets.clear()

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.claim(timeout=0.1)
            if job is not None:
                self.queue.run_job(job, self._execute)

    # -- request entry point -------------------------------------------------
    def handle(self, endpoint: str, params: dict) -> tuple[bytes, bool]:
        """Serve one request: ``(response body, served_from_cache)``.

        Cache hits (and single-flight joins) never touch the queue; a
        miss enqueues one job and waits for it.  Raises
        :class:`~repro.exceptions.AdmissionError` when the queue is
        full and :class:`ReproError` subclasses on bad parameters.
        """
        if endpoint not in DEFAULT_PRIORITIES:
            raise ServerError(f"unknown endpoint {endpoint!r}")
        start = time.perf_counter()
        norm = self._normalise(endpoint, dict(params))
        priority = norm.pop("priority")
        key = canonical_body({"endpoint": endpoint, **norm})
        body, served_from_cache = self.cache.get_or_compute(
            key, lambda: self._compute(endpoint, norm, priority),
            tag=norm["digest"],
        )
        worlds = 0
        if endpoint == "estimate" and not served_from_cache:
            worlds = norm["samples"]
        self.meter.record(endpoint, time.perf_counter() - start, worlds=worlds)
        return body, served_from_cache

    def _compute(self, endpoint: str, norm: dict, priority: int) -> bytes:
        job = self.queue.submit(endpoint, norm, priority=priority)
        return job.wait(timeout=self.config.request_timeout)

    def _execute(self, job) -> bytes:
        if job.kind == "sparsify":
            return self._run_sparsify(job.params)
        if job.kind == "estimate":
            return self._run_estimate(job.params)
        if job.kind == "grid":
            return self._run_grid(job.params)
        if job.kind == "drift_refresh":
            body = self._run_sparsify(job.params["norm"])
            self.cache.put(job.params["key"], body,
                           tag=job.params["norm"]["digest"])
            return body
        raise ServerError(f"unknown job kind {job.kind!r}")

    # -- parameter normalisation ---------------------------------------------
    def _normalise(self, endpoint: str, params: dict) -> dict:
        """Canonicalise request params (also the cache-key material).

        Every field is defaulted, validated and type-coerced here, and an
        optional sparsify field enters only when the variant reads it,
        so two requests meaning the same computation produce identical
        keys.
        """
        if not isinstance(params, dict):
            raise ServerError("request body must be a JSON object")
        dataset = params.pop("dataset", None)
        if not dataset or not isinstance(dataset, str):
            raise ServerError("request needs a 'dataset' path")
        digest = self._digest(dataset)
        priority = params.pop("priority", DEFAULT_PRIORITIES[endpoint])
        norm: dict = {
            "dataset": dataset,
            "digest": digest,
            "seed": _integer(params.pop("seed", 0), "seed", minimum=0),
            "priority": _integer(priority, "priority"),
        }
        if endpoint == "sparsify":
            if "alpha" not in params:
                raise ServerError("sparsify needs an 'alpha' in (0, 1)")
            norm["alpha"] = float(params.pop("alpha"))
            # Fail fast on bad notation, and key on the canonical name:
            # "emd^r-t" and "EMD^R-t" are one computation.
            spec = parse_variant(str(params.pop("variant", "EMD^R-t")))
            norm["variant"] = spec.canonical_name
            h = _entropy_parameter(params.pop("h", 0.05))
            if spec.method in _ENTROPY_METHODS:
                norm["h"] = h
            if not 0.0 < norm["alpha"] < 1.0:
                raise ServerError(f"alpha must be in (0, 1), got {norm['alpha']}")
        elif endpoint == "estimate":
            norm.update(
                query=str(params.pop("query", "reliability")),
                samples=_integer(params.pop("samples", 200), "samples"),
                weighted=_flag(params, "weighted"),
            )
            pairs = _integer(params.pop("pairs", 50), "pairs")
            if norm["query"] not in _ESTIMATE_QUERIES:
                raise ServerError(
                    f"query must be one of {_ESTIMATE_QUERIES}, "
                    f"got {norm['query']!r}"
                )
            if pairs < 1:
                raise ServerError(f"pairs must be >= 1, got {pairs}")
            if norm["query"] in _PAIR_QUERIES:
                norm["pairs"] = pairs
            if norm["weighted"] and norm["query"] != "distance":
                raise ServerError("weighted only applies to the distance query")
            if not 1 <= norm["samples"] <= self.config.max_samples:
                raise ServerError(
                    f"samples must be in [1, {self.config.max_samples}]"
                )
        elif endpoint == "grid":
            alphas = [float(a) for a in params.pop("alphas", [0.2, 0.4])]
            h_values = [
                _entropy_parameter(h, "h_values")
                for h in params.pop("h_values", [0.05])
            ]
            if not alphas or not h_values:
                raise ServerError("grid needs non-empty alphas and h_values")
            for alpha in alphas:
                if not 0.0 < alpha < 1.0:
                    raise ServerError(f"alphas must be in (0, 1), got {alpha}")
            if len(alphas) * len(h_values) > self.config.max_grid_cells:
                raise ServerError(
                    f"grid larger than {self.config.max_grid_cells} cells"
                )
            k = params.pop("k", 1)
            if k != "n":
                k = _integer(k, "k", minimum=1)
            norm.update(
                alphas=alphas,
                h_values=h_values,
                k=k,
                relative=_flag(params, "relative"),
                backbone_method=_choice(
                    params, "backbone_method", "bgi", BACKBONE_METHODS
                ),
            )
            if norm["relative"] and k != 1:
                raise ServerError(
                    f"relative applies to k = 1 only, got k = {k!r}"
                )
        if params:
            raise ServerError(
                f"unknown parameters for {endpoint}: {sorted(params)}"
            )
        return norm

    # -- dataset registry ----------------------------------------------------
    def _resolve_path(self, dataset: str) -> str:
        root = self.config.datasets_root
        if root is None:
            return dataset
        resolved = os.path.realpath(os.path.join(root, dataset))
        if os.path.commonpath([resolved, os.path.realpath(root)]) != \
                os.path.realpath(root):
            raise ServerError(f"dataset path {dataset!r} escapes datasets root")
        return resolved

    def _read_bytes(self, dataset: str) -> bytes:
        path = self._resolve_path(dataset)
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except OSError as error:
            raise ServerError(f"cannot read dataset {dataset!r}: {error}") \
                from error

    def _sniff_binary(self, dataset: str) -> bool:
        """Whether the file starts with the binary dataset magic."""
        from repro.datasets.binary_io import is_binary_data

        path = self._resolve_path(dataset)
        try:
            with open(path, "rb") as fh:
                return is_binary_data(fh.read(4))
        except OSError as error:
            raise ServerError(f"cannot read dataset {dataset!r}: {error}") \
                from error

    def _digest(self, dataset: str) -> str:
        """Content digest of a dataset, binding it to the parsed graph.

        Text datasets: reads the file *once*, digests those bytes, and
        registers the graph parsed from the very same bytes — so the
        digest in a cache key can never name content other than what
        the job computes on, even if the file is rewritten mid-request.

        Binary datasets: the header's payload digest is the content
        digest (O(header), no full read).  Registration memory-maps the
        sections and *verifies* them against that digest, closing the
        same rewrite race from the other side: a digest only ever keys
        mapped content that hashes to it.

        A ``/update`` delta push overlays the dataset path with the
        drifted graph's digest: while the overlaid entry is registered,
        requests resolve to the in-memory drifted graph rather than the
        (now stale) file bytes.  If the entry gets LRU-evicted the
        overlay is dropped and the disk content becomes the truth again
        — deltas are an in-memory view, not a persistence layer.
        """
        with self._datasets_lock:
            overlay = self._overlays.get(dataset)
            if overlay is not None:
                if overlay in self._datasets:
                    self._datasets.move_to_end(overlay)
                    return overlay
                del self._overlays[dataset]  # drifted graph was evicted
        if self._sniff_binary(dataset):
            from repro.datasets.binary_io import binary_digest

            from repro.exceptions import GraphError

            path = self._resolve_path(dataset)
            try:
                digest = binary_digest(path)
            except (OSError, GraphError) as error:
                raise ServerError(
                    f"cannot read binary dataset {dataset!r}: {error}"
                ) from error
            self._register_binary(dataset, digest)
            return digest
        raw = self._read_bytes(dataset)
        digest = content_digest(raw)
        self._register(dataset, digest, raw)
        return digest

    def _register_binary(self, dataset: str, digest: str) -> dict:
        """Memory-map + digest-verify a binary dataset into the registry.

        The mapped arrays are shared by every concurrent job on the
        dataset (one page-cache copy), and verification binds the
        registry entry to the digest used in cache keys.
        """
        with self._datasets_lock:
            entry = self._datasets.get(digest)
            if entry is not None:
                self._datasets.move_to_end(digest)
                return entry
        from repro.datasets.binary_io import read_binary

        from repro.exceptions import GraphError

        path = self._resolve_path(dataset)
        try:
            ds = read_binary(
                path, mmap=True, name=os.path.basename(dataset) or dataset
            )
        except (OSError, GraphError) as error:
            raise ServerError(
                f"cannot read binary dataset {dataset!r}: {error}"
            ) from error
        if ds.digest != digest:
            raise ServerError(
                f"dataset {dataset!r} changed on disk since the request was "
                f"admitted (content digest mismatch); retry the request"
            )
        try:
            ds.verify()
        except GraphError as error:
            raise ServerError(
                f"binary dataset {dataset!r} failed digest verification: "
                f"{error}"
            ) from error
        entry = {"graph": ds.graph(), "binary": True}
        with self._datasets_lock:
            entry = self._datasets.setdefault(digest, entry)
            self._datasets.move_to_end(digest)
            while len(self._datasets) > self.config.dataset_capacity:
                self._datasets.popitem(last=False)
        return entry

    def _register(self, dataset: str, digest: str, raw: bytes) -> dict:
        """Parse ``raw`` (whose digest is ``digest``) into the registry."""
        with self._datasets_lock:
            entry = self._datasets.get(digest)
            if entry is not None:
                self._datasets.move_to_end(digest)
                return entry
        graph = parse_edge_list(
            raw.decode("utf-8"),
            name=os.path.basename(dataset) or dataset,
            source=dataset,
        )
        entry = {"graph": graph}
        with self._datasets_lock:
            entry = self._datasets.setdefault(digest, entry)
            self._datasets.move_to_end(digest)
            while len(self._datasets) > self.config.dataset_capacity:
                self._datasets.popitem(last=False)
        return entry

    def _dataset(self, dataset: str, digest: str) -> dict:
        """The registry entry holding the parsed graph for a digest.

        Content-addressed: rewriting a file changes its digest and loads
        a fresh entry, so stale graphs are never served.  Bounded LRU
        like the artifact cache.  Normally a registry hit (``_digest``
        registers the graph at request time); if the entry was evicted
        in between, the file is re-read and *verified* against the
        requested digest, so an artifact cached under a digest always
        derives from bytes with that digest.
        """
        with self._datasets_lock:
            entry = self._datasets.get(digest)
            if entry is not None:
                self._datasets.move_to_end(digest)
                return entry
        if self._sniff_binary(dataset):
            # _register_binary rejects a digest mismatch itself.
            return self._register_binary(dataset, digest)
        raw = self._read_bytes(dataset)
        if content_digest(raw) != digest:
            raise ServerError(
                f"dataset {dataset!r} changed on disk since the request was "
                f"admitted (content digest mismatch); retry the request"
            )
        return self._register(dataset, digest, raw)

    # -- job bodies ----------------------------------------------------------
    def _run_sparsify(self, norm: dict) -> bytes:
        entry = self._dataset(norm["dataset"], norm["digest"])
        graph = entry["graph"]
        options = {"h": norm["h"]} if "h" in norm else {}
        result = sparsify(
            graph,
            norm["alpha"],
            variant=norm["variant"],
            rng=norm["seed"],
            **options,
        )
        return canonical_body({
            "endpoint": "sparsify",
            "digest": norm["digest"],
            "variant": norm["variant"],
            "alpha": norm["alpha"],
            "seed": norm["seed"],
            "vertices": result.number_of_vertices(),
            "edges": result.number_of_edges(),
            "artifact": format_edge_list(result, header=False),
            **options,
        })

    def _run_estimate(self, norm: dict) -> bytes:
        from repro.queries import (
            ClusteringCoefficientQuery,
            ConnectivityQuery,
            PageRankQuery,
            ReliabilityQuery,
            ShortestPathQuery,
            sample_vertex_pairs,
        )
        from repro.sampling import MonteCarloEstimator

        entry = self._dataset(norm["dataset"], norm["digest"])
        graph = entry["graph"]
        name = norm["query"]
        if name in _PAIR_QUERIES:
            pairs = sample_vertex_pairs(graph, norm["pairs"], rng=norm["seed"])
            query = (
                ReliabilityQuery(pairs) if name == "reliability"
                else ShortestPathQuery(pairs, weighted=norm["weighted"])
            )
        elif name == "pagerank":
            query = PageRankQuery(graph.number_of_vertices())
        elif name == "clustering":
            query = ClusteringCoefficientQuery(graph.number_of_vertices())
        else:
            query = ConnectivityQuery()
        result = MonteCarloEstimator(graph, n_samples=norm["samples"]).run(
            query, rng=norm["seed"]
        )
        width = result.confidence_width()
        return canonical_body({
            "endpoint": "estimate",
            "digest": norm["digest"],
            "query": name,
            "weighted": norm["weighted"],
            "samples": norm["samples"],
            "seed": norm["seed"],
            "estimate": result.scalar_estimate(),
            # null when undefined (fewer than two samples).
            "confidence_width": width if math.isfinite(width) else None,
        })

    def _run_grid(self, norm: dict) -> bytes:
        entry = self._dataset(norm["dataset"], norm["digest"])
        results = gdb_grid(
            entry["graph"],
            norm["alphas"],
            norm["h_values"],
            k=norm["k"],
            relative=norm["relative"],
            backbone_method=norm["backbone_method"],
            rng=norm["seed"],
            build_graphs=False,
        )
        return canonical_body({
            "endpoint": "grid",
            "digest": norm["digest"],
            "seed": norm["seed"],
            "k": norm["k"],
            "relative": norm["relative"],
            "cells": objective_rows(results),
        })

    # -- streaming deltas ----------------------------------------------------
    def update(self, params: dict) -> dict:
        """Apply an edge-delta batch to a registered dataset.

        The drifted graph is registered under its *own* content digest
        and overlays the dataset path, the superseded digest's cached
        artifacts are invalidated (only those — other datasets stay
        hot), and the old graph's :class:`BackbonePlan`, when a request
        built one, is *repaired* into the drifted graph's plan rather
        than rebuilt, so the next sparsify request re-peels only the
        dirty forest ranks.  With ``resparsify``
        params the refreshed artifact is recomputed eagerly at
        background priority (behind all interactive traffic).

        The new digest is :func:`~repro.datasets.io.graph_digest` of the
        drifted graph.  The live overlay entry keeps the graph's
        serialised lines, so a probability-only delta on it rewrites
        only the changed edges' lines before hashing; the first update
        of a registered file, a structural delta and an update after
        the entry was evicted serialise the whole graph.
        """
        params = dict(params)
        dataset = params.pop("dataset", None)
        if not dataset or not isinstance(dataset, str):
            raise ServerError("update needs a 'dataset' path")
        updates = params.pop("updates", [])
        inserts = params.pop("inserts", [])
        deletes = params.pop("deletes", [])
        resparsify = params.pop("resparsify", None)
        if params:
            raise ServerError(
                f"unknown parameters for update: {sorted(params)}"
            )
        if resparsify is not None:
            if not isinstance(resparsify, dict):
                raise ServerError("'resparsify' must be a sparsify params object")
            # Reject a bad refresh request before the delta lands, so a
            # client that gets an error can retry the same update.
            self._normalise("sparsify", {**resparsify, "dataset": dataset})
        with self._update_lock:  # serialise delta pushes across datasets
            old_digest = self._digest(dataset)
            entry = self._dataset(dataset, old_digest)
            if entry.get("binary"):
                raise ServerError(
                    "update applies to text datasets; binary datasets are "
                    "immutable snapshots (re-export and rewrite instead)"
                )
            graph = entry["graph"]
            batch = EdgeDeltaBatch.from_pairs(
                graph, updates=updates, inserts=inserts, deletes=deletes,
            )
            applied = apply_delta(graph, batch, in_place=False)
            kept = entry.get("lines")
            if kept is None or batch.is_structural:
                lines = edge_list_lines(applied.graph)
            else:
                lines = patch_edge_list_lines(
                    kept, applied.graph, batch.update_eids
                )
            new_digest = lines_digest(lines)
            plan = BackbonePlan.lookup(graph)
            if plan is not None:
                plan.clone().repair(applied)
            new_entry = {"graph": applied.graph}
            with self._datasets_lock:
                new_entry = self._datasets.setdefault(new_digest, new_entry)
                self._datasets.move_to_end(new_digest)
                self._overlays[dataset] = new_digest
                while len(self._datasets) > self.config.dataset_capacity:
                    self._datasets.popitem(last=False)
            # Only the live overlay entry keeps its serialised lines.
            if entry is not new_entry:
                entry.pop("lines", None)
            new_entry["lines"] = lines
            invalidated = self.cache.invalidate(old_digest)
        refresh_queued = False
        if resparsify is not None:
            norm = self._normalise(
                "sparsify", {**resparsify, "dataset": dataset}
            )
            norm.pop("priority")
            key = canonical_body({"endpoint": "sparsify", **norm})
            try:
                self.queue.submit(
                    "drift_refresh", {"key": key, "norm": norm},
                    priority=REFRESH_PRIORITY,
                )
                refresh_queued = True
            except AdmissionError:
                pass  # best-effort warm-up; next request recomputes
        return {
            "endpoint": "update",
            "dataset": dataset,
            "old_digest": old_digest,
            "digest": new_digest,
            "updates": int(len(batch.update_eids)),
            "inserts": int(len(batch.insert_ps)),
            "deletes": int(len(batch.delete_eids)),
            "structural": bool(batch.is_structural),
            "invalidated": invalidated,
            "plan_repaired": plan is not None,
            "refresh_queued": refresh_queued,
        }

    # -- recurring re-sparsification -----------------------------------------
    def schedule_resparsify(
        self, name: str, params: dict, interval: float,
        delay: "float | None" = None,
    ) -> dict:
        """Register a recurring job refreshing a sparsify artifact.

        Each firing recomputes the artifact at refresh priority (behind
        all interactive traffic) and overwrites the cache entry, so hot
        keys stay warm even across dataset rewrites (the digest — and
        hence the key — tracks the file content at refresh time).
        """
        norm = self._normalise("sparsify", dict(params))
        norm["priority"] = REFRESH_PRIORITY

        def refresh() -> None:
            fresh = self._normalise("sparsify", dict(params))
            fresh["priority"] = REFRESH_PRIORITY
            priority = fresh.pop("priority")
            key = canonical_body({"endpoint": "sparsify", **fresh})
            self.cache.put(key, self._compute("sparsify", fresh, priority),
                           tag=fresh["digest"])

        task = self.scheduler.add(name, interval, refresh, delay=delay)
        return task.describe()

    # -- introspection -------------------------------------------------------
    def status(self) -> dict:
        with self._datasets_lock:
            datasets = len(self._datasets)
        return {
            "uptime_s": time.monotonic() - self.started,
            "queue": self.queue.stats(),
            "cache": self.cache.stats(),
            "datasets_loaded": datasets,
            "schedules": self.scheduler.tasks(),
            "workers": len(self._workers),
        }

    def metrics(self) -> dict:
        document = self.meter.snapshot()
        document["cache"] = self.cache.stats()
        return document
