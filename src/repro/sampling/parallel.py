"""Parallel batch execution: fan Monte-Carlo chunks over a process pool.

The batched engine (:mod:`repro.sampling.batch`) already splits an
estimation run into memory-bounded chunks, and chunks are embarrassingly
parallel: each one is a ``(B, m)`` mask matrix evaluated independently
through the ensemble kernels.  :class:`ParallelBatchExecutor` exploits
that — it keeps the exact chunk boundaries :func:`auto_chunk_size`
produces, ships chunks to a :class:`concurrent.futures.ProcessPoolExecutor`,
and stitches the outcome matrices back in submission order, so the
parallel schedule can never change the answer (the deterministic-
partitioning contract: fixed split points, order-preserving merge).

Two RNG regimes are supported, both independent of the worker count:

``rng_mode="sequential"`` (default)
    The parent draws every chunk's masks from the single RNG stream in
    chunk order — exactly the uniforms today's serial path consumes —
    and workers only evaluate.  Results are *bit-identical* to the
    serial batched path (and hence to the legacy per-world loop) under
    a fixed seed, for any ``workers``.
``rng_mode="spawn"``
    One independent child generator per chunk, derived up front via
    ``SeedSequence.spawn`` (through :meth:`numpy.random.Generator.spawn`).
    Workers sample their own masks, so no mask bytes cross the process
    boundary; results differ from the sequential stream but are still a
    pure function of ``(seed, chunk boundaries)`` — never of the pool
    schedule or worker count.

Workers rebuild the shared :class:`~repro.sampling.batch.BatchTopology`
once per process from the read-only parent arrays (pool initializer),
not once per chunk.  When ``workers <= 1``, the pool cannot start, or it
breaks mid-run, evaluation gracefully falls back in-process — same
chunks, same masks, same answer — with a single :class:`RuntimeWarning`
on failure.
"""

from __future__ import annotations

import os
import warnings
import weakref
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import EstimationError
from repro.sampling.batch import auto_chunk_size
from repro.sampling.worlds import WorldSampler
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.base import Query

#: Supported per-chunk RNG derivation strategies.
RNG_MODES = ("sequential", "spawn")

#: Every live process pool, tracked so long-lived processes (the job
#: server) can assert that no pool outlives its executor's close().
#: Weak references only: an executor dropped without close() still
#: lets its pool be collected.
_LIVE_POOLS: "weakref.WeakSet[ProcessPoolExecutor]" = weakref.WeakSet()


def active_pool_count() -> int:
    """Number of process pools currently held open by executors.

    The lifecycle invariant a long-lived process relies on: after every
    :meth:`ParallelBatchExecutor.close` (or context-manager exit) this
    returns to its prior value — no pool outlives a completed batch.
    """
    return len(_LIVE_POOLS)


def resolve_workers(workers: "int | None") -> int:
    """Normalise a ``workers`` knob: ``None`` means one per CPU."""
    if workers is None:
        return os.cpu_count() or 1
    return int(workers)


def chunk_counts(n_samples: int, chunk: int) -> list[int]:
    """Canonical chunk boundaries: full chunks, then the remainder.

    These are the split points the serial batched path already uses, so
    sequential-mode masks (and spawn-mode child generators) line up with
    it chunk for chunk.
    """
    if n_samples < 0:
        raise EstimationError(f"n_samples must be non-negative, got {n_samples}")
    if chunk < 1:
        raise EstimationError(f"chunk must be positive, got {chunk}")
    counts = [chunk] * (n_samples // chunk)
    if n_samples % chunk:
        counts.append(n_samples % chunk)
    return counts


# -- worker-process side -----------------------------------------------------
#: Per-process state installed by the pool initializer: the parent
#: arrays (read-only) and the BatchTopology rebuilt once per worker.
_WORKER_STATE: dict = {}


def _init_worker(
    n: int,
    edge_vertices: np.ndarray,
    probabilities: np.ndarray,
    query: "Query",
) -> None:
    """Pool initializer: cache arrays + topology once per worker process."""
    from repro.sampling.batch import BatchTopology
    from repro.sampling.kernels import most_probable_path_weights

    edge_vertices = np.asarray(edge_vertices)
    probabilities = np.asarray(probabilities)
    for array in (edge_vertices, probabilities):
        if array.flags.owndata:
            array.setflags(write=False)
    _WORKER_STATE["n"] = int(n)
    _WORKER_STATE["edge_vertices"] = edge_vertices
    _WORKER_STATE["probabilities"] = probabilities
    _WORKER_STATE["query"] = query
    _WORKER_STATE["topology"] = BatchTopology(int(n), edge_vertices)
    # The -log p transform rides the initializer (derived from the
    # probabilities already shipped), so weighted queries never pay
    # per-chunk weight IPC.
    _WORKER_STATE["edge_weights"] = most_probable_path_weights(probabilities)


def _init_worker_from_dataset(path: str, query: "Query") -> None:
    """Pool initializer for binary datasets: mmap instead of pickling.

    Each worker maps the ``src``/``dst``/``prob`` sections read-only
    (:func:`repro.datasets.binary_io.read_binary` with ``mmap=True``) and
    builds its state from the mapped arrays — the same values
    :func:`_init_worker` would have received over IPC, but shared
    through the page cache instead of copied per process.
    """
    from repro.datasets.binary_io import read_binary

    dataset = read_binary(path, mmap=True)
    graph = dataset.graph()
    _init_worker(
        graph.number_of_vertices(),
        graph.edge_index_array(),
        graph.probability_array(),
        query,
    )


def _pool_evaluate_masks(masks: np.ndarray) -> np.ndarray:
    """Worker task: evaluate one pre-drawn mask chunk."""
    from repro.queries.base import evaluate_query_batch
    from repro.sampling.batch import WorldBatch

    state = _WORKER_STATE
    batch = WorldBatch(
        state["n"], state["edge_vertices"], masks, topology=state["topology"],
        edge_weights=state["edge_weights"],
    )
    return evaluate_query_batch(state["query"], batch)


def _draw_masks(
    chunk_rng: np.random.Generator, count: int, probabilities: np.ndarray
) -> np.ndarray:
    """Spawn-mode Bernoulli draw, shared by pool workers and the
    in-process fallback — one definition so the two sides of the
    worker-count-invariance contract cannot drift apart."""
    return chunk_rng.random((count, len(probabilities))) < probabilities


def _pool_sample_and_evaluate(chunk_rng: np.random.Generator, count: int) -> np.ndarray:
    """Worker task: draw ``count`` worlds from the chunk's own generator."""
    return _pool_evaluate_masks(
        _draw_masks(chunk_rng, count, _WORKER_STATE["probabilities"])
    )


class ParallelBatchExecutor:
    """Evaluate Monte-Carlo batch chunks concurrently on a process pool.

    Parameters
    ----------
    graph:
        The uncertain graph, or an existing :class:`WorldSampler` for it
        (the estimators pass their sampler so the cached topology is
        shared with any in-process evaluation).
    query:
        The query to evaluate; shipped to each worker once via the pool
        initializer, never per chunk.
    workers:
        Process count.  ``<= 1`` evaluates in-process (no pool at all);
        ``None`` means one worker per CPU.
    chunk_size:
        Worlds per chunk; ``None`` auto-sizes from the memory budget
        exactly like the serial batched path
        (:func:`repro.sampling.batch.auto_chunk_size`, which is
        kernel-footprint-aware).
    rng_mode:
        ``"sequential"`` (default) or ``"spawn"`` — see the module
        docstring for the determinism contract of each.
    dataset:
        Optional path to the binary dataset backing ``graph`` (or a
        :class:`~repro.datasets.binary_io.BinaryDataset` with one).
        When given, pool workers ``mmap`` the edge arrays from disk
        instead of receiving them pickled over IPC — the out-of-core
        path for large graphs.  The header's vertex/edge counts are
        checked against the sampler at construction; the values must be
        the graph's (the answer is a pure function of the arrays, so a
        matching dataset keeps results bit-identical to the in-IPC
        path).

    The pool is created lazily on first use and reused across runs (the
    adaptive estimator issues many small draws; the variance protocol
    many runs).  Call :meth:`close` — or use the instance as a context
    manager — to release it.

    Examples
    --------
    >>> from repro.core import UncertainGraph
    >>> from repro.queries import DegreeQuery
    >>> g = UncertainGraph([(0, 1, 1.0), (1, 2, 1.0)])
    >>> with ParallelBatchExecutor(g, DegreeQuery(3), workers=1) as ex:
    ...     ex.run(4, rng=0).shape
    (4, 3)
    """

    def __init__(
        self,
        graph: "UncertainGraph | WorldSampler",
        query: "Query",
        workers: "int | None" = 1,
        chunk_size: "int | None" = None,
        rng_mode: str = "sequential",
        dataset=None,
    ) -> None:
        if rng_mode not in RNG_MODES:
            raise EstimationError(
                f"rng_mode must be one of {RNG_MODES}, got {rng_mode!r}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise EstimationError(f"chunk_size must be positive, got {chunk_size}")
        self.sampler = (
            graph if isinstance(graph, WorldSampler) else WorldSampler(graph)
        )
        self.query = query
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.rng_mode = rng_mode
        self.dataset_path = self._resolve_dataset(dataset)
        self._pool: "ProcessPoolExecutor | None" = None
        self._pool_failed = False

    def _resolve_dataset(self, dataset) -> "str | None":
        if dataset is None:
            return None
        from repro.datasets.binary_io import BinaryDataset, read_header

        if isinstance(dataset, BinaryDataset):
            if dataset.path is None:
                raise EstimationError(
                    "dataset-backed execution needs an on-disk binary "
                    "dataset (this BinaryDataset has no path)"
                )
            path, header = dataset.path, dataset.header
        else:
            path = str(dataset)
            header = read_header(path)
        if header.n_vertices != self.sampler.n or header.n_edges != self.sampler.m:
            raise EstimationError(
                f"dataset {path!r} ({header.n_vertices} vertices, "
                f"{header.n_edges} edges) does not match the sampler "
                f"({self.sampler.n} vertices, {self.sampler.m} edges)"
            )
        return path

    # -- lifecycle -----------------------------------------------------------
    def __enter__(self) -> "ParallelBatchExecutor":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Shut the pool down (idempotent; serial executors are a no-op).

        Blocks until the worker processes are reaped, so on return
        :func:`active_pool_count` no longer counts this executor — the
        contract long-lived callers (the job server) shut down through.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=True)
            _LIVE_POOLS.discard(pool)

    # -- public API ----------------------------------------------------------
    def run(
        self, n_samples: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        """Sample and evaluate ``n_samples`` worlds: the ``(N, units)`` matrix.

        In sequential mode this consumes ``rng`` exactly like the serial
        batched path; in spawn mode it only advances the generator's
        spawn counter (child streams are derived, the parent stream is
        untouched).
        """
        if n_samples < 0:
            raise EstimationError(
                f"n_samples must be non-negative, got {n_samples}"
            )
        rng = ensure_rng(rng)
        if n_samples == 0:
            return np.empty((0, self.query.unit_count()), dtype=np.float64)
        counts = chunk_counts(n_samples, self._chunk_for(n_samples))
        if self.rng_mode == "spawn":
            tasks = self._spawn_tasks(rng, counts)
        else:
            tasks = self._sequential_tasks(rng, counts)
        return np.concatenate(self._evaluate_stream(tasks), axis=0)

    def map_masks(self, mask_chunks: Iterable[np.ndarray]) -> np.ndarray:
        """Evaluate pre-drawn mask chunks, rows stitched in chunk order.

        The escape hatch for callers that need custom mask construction
        (the stratified estimator overwrites its conditioned columns):
        chunks stream through the pool with bounded look-ahead, so a
        lazy generator keeps parent memory at a few chunks.
        """
        def tasks() -> Iterator[tuple]:
            for masks in mask_chunks:
                masks = np.asarray(masks, dtype=bool)
                yield (
                    _pool_evaluate_masks,
                    (masks,),
                    lambda m=masks: self._evaluate_local(m),
                )

        results = self._evaluate_stream(tasks())
        if not results:
            return np.empty((0, self.query.unit_count()), dtype=np.float64)
        return np.concatenate(results, axis=0)

    # -- task construction ---------------------------------------------------
    def _chunk_for(self, n_samples: int) -> int:
        if self.chunk_size is not None:
            return min(self.chunk_size, max(n_samples, 1))
        return auto_chunk_size(
            n_samples, self.sampler.m, n_vertices=self.sampler.n
        )

    def _sequential_tasks(
        self, rng: np.random.Generator, counts: list[int]
    ) -> Iterator[tuple]:
        # Masks are drawn lazily at submission time, in chunk order, so
        # the single stream is consumed exactly as the serial path does
        # and in-flight memory stays bounded by the look-ahead window.
        for count in counts:
            masks = self.sampler.sample_mask_matrix(count, rng)
            yield (
                _pool_evaluate_masks,
                (masks,),
                lambda m=masks: self._evaluate_local(m),
            )

    def _spawn_tasks(
        self, rng: np.random.Generator, counts: list[int]
    ) -> Iterator[tuple]:
        # All children derived up front: chunk i always gets child i, so
        # results depend on the boundaries, never on the pool schedule.
        children = rng.spawn(len(counts))
        for child, count in zip(children, counts):
            yield (
                _pool_sample_and_evaluate,
                (child, count),
                lambda c=child, k=count: self._sample_and_evaluate_local(c, k),
            )

    def _evaluate_local(self, masks: np.ndarray) -> np.ndarray:
        from repro.queries.base import evaluate_query_batch

        return evaluate_query_batch(self.query, self.sampler.batch_from_masks(masks))

    def _sample_and_evaluate_local(
        self, chunk_rng: np.random.Generator, count: int
    ) -> np.ndarray:
        return self._evaluate_local(
            _draw_masks(chunk_rng, count, self.sampler.probabilities)
        )

    # -- pool plumbing -------------------------------------------------------
    def _acquire_pool(self) -> "ProcessPoolExecutor | None":
        if self._pool is not None:
            return self._pool
        if self._pool_failed or self.workers <= 1:
            return None
        sampler = self.sampler
        if self.dataset_path is not None:
            initializer, initargs = (
                _init_worker_from_dataset,
                (self.dataset_path, self.query),
            )
        else:
            initializer, initargs = (
                _init_worker,
                (
                    sampler.n,
                    sampler.edge_vertices,
                    sampler.probabilities,
                    self.query,
                ),
            )
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=initializer,
                initargs=initargs,
            )
        except Exception as error:
            self._mark_pool_failed(error)
            return None
        _LIVE_POOLS.add(self._pool)
        return self._pool

    def _mark_pool_failed(self, error: Exception) -> None:
        if not self._pool_failed:
            self._pool_failed = True
            warnings.warn(
                f"process pool unavailable ({type(error).__name__}: {error}); "
                "evaluating Monte-Carlo chunks in-process",
                RuntimeWarning,
                stacklevel=4,
            )
        if self._pool is not None:
            pool, self._pool = self._pool, None
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            _LIVE_POOLS.discard(pool)

    def _evaluate_stream(self, tasks: Iterable[tuple]) -> list[np.ndarray]:
        """Run tasks through the pool, results in submission order.

        Submission keeps a bounded look-ahead (``2 * workers + 2``
        in-flight chunks) so the pipeline stays full without drawing
        every chunk's masks up front.  Any pool failure — at
        construction, submission, or completion — downgrades the rest of
        the stream to in-process fallbacks; chunk inputs are retained
        while in flight, so the answer is unchanged.
        """
        pool = self._acquire_pool()
        if pool is None:
            return [
                np.asarray(fallback(), dtype=np.float64)
                for _task, _args, fallback in tasks
            ]
        results: list[np.ndarray] = []
        pending: deque = deque()
        max_pending = 2 * self.workers + 2
        for task, args, fallback in tasks:
            if self._pool_failed:
                pending.append((None, fallback))
            else:
                try:
                    pending.append((self._pool.submit(task, *args), fallback))
                except Exception as error:
                    self._mark_pool_failed(error)
                    pending.append((None, fallback))
            while len(pending) >= max_pending:
                results.append(self._finish(*pending.popleft()))
        while pending:
            results.append(self._finish(*pending.popleft()))
        return results

    def _finish(self, future, fallback: Callable[[], np.ndarray]) -> np.ndarray:
        if future is not None:
            try:
                return np.asarray(future.result(), dtype=np.float64)
            except Exception as error:
                self._mark_pool_failed(error)
        return np.asarray(fallback(), dtype=np.float64)
