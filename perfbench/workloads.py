"""The four benchmark workloads and their correctness checks.

Every workload is a closed loop with one client: the next operation
starts only after the previous one returned.  Inputs are generated from
the workload seed into the run's scratch directory before anything is
timed, and each input file's SHA-256 is recorded.

- ``cold-200k`` — one cold ``sparsify(g, 0.4, "GDB^A-t", h=0.25)`` per
  operation on a 200k-edge forest-fire graph.
- ``query-5k`` — per operation, a cold ``EMD^R-t`` sparsify of a
  5k-edge forest-fire graph, then 300-world RL, SP, CC and PR estimates
  on the original and on the sparse graph.
- ``drift-3k`` — one ``IncrementalSparsifier.apply`` per operation along
  a structural drift stream over ``flickr_like(n=3000, avg_degree=16)``;
  the stream restarts from a fresh build every 40 batches, so every run
  times the same batches.
- ``serve-3k`` — per operation, one request cycle against an in-process
  ``SparsifierService``: ``update`` (1% probability drift), ``sparsify``
  (a read-after-write miss), the same ``sparsify`` (a hit), ``estimate``.

Every timed interval is rescaled by the host-speed calibration of
:class:`Calibration`; the raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.core.backbone import target_edge_count
from repro.core.delta import apply_delta
from repro.core.discrepancy import SparsificationState
from repro.core.maintain import IncrementalSparsifier
from repro.core.sparsify import check_budget, sparsify
from repro.core.uncertain_graph import UncertainGraph
from repro.datasets.drift import DriftWorkload
from repro.datasets.io import format_edge_list, read_edge_list
from repro.datasets.synthetic import flickr_like, forest_fire_like_arrays
from repro.exceptions import ReproError
from repro.queries import (
    ClusteringCoefficientQuery,
    PageRankQuery,
    ReliabilityQuery,
    ShortestPathQuery,
    sample_vertex_pairs,
)
from repro.sampling import MonteCarloEstimator
from repro.server.service import ServerConfig, SparsifierService

#: One-sided converged-objective slack, relative to max(1, D1): the
#: repository's contract wherever the order of operations may differ.
D1_TOL = 1e-6

#: Set-up repetitions before the loop, and more spread over the loop;
#: ``setup_s`` is the median of all of them.
SETUP_REPEATS = 3
SETUP_PROBES = 8

#: Seconds the calibration kernel takes on the reference host: scaled
#: times read as they would on a host running it in this time.
CAL_REF_S = 0.0033
CAL_LOOP = 20_000
CAL_N = 60_000
#: Kernel runs per calibration; the fastest one counts, so that a
#: momentary interruption does not pass for a slow host.
CAL_REPEATS = 3


class Calibration:
    """Host speed, from a fixed kernel timed around every timed interval.

    The shared VMs this benchmark runs on switch, for seconds to minutes
    at a time, between faster and slower states that move every latency
    by up to ~1.4x, which no single run can average out.  A fixed mix of
    interpreter and numpy work, timed just before and just after an
    interval, tells how fast the host ran meanwhile; :meth:`factor`
    rescales the interval to a host on which that kernel takes
    :data:`CAL_REF_S`.  The kernel is the benchmark's own code: a change
    to the program moves the scaled times, never the kernel.
    """

    def __init__(self):
        rng = np.random.default_rng(20190408)
        self.values = rng.random(CAL_N)
        self.index = rng.integers(0, CAL_N, CAL_N)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def _kernel(self):
        total = 0
        table = {}
        for i in range(CAL_LOOP):
            total += i * i
            table[i & 1023] = total
        order = np.argsort(self.values)
        sums = np.bincount(self.index, weights=self.values, minlength=CAL_N)
        return total, order[0], sums[0]

    def measure(self) -> None:
        self.starts.append(time.perf_counter())
        times = []
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.ends.append(time.perf_counter())
        self.seconds.append(min(times))

    def factor(self, start: float, end: float) -> float:
        """:data:`CAL_REF_S` over the mean of the kernel times measured
        last before ``start`` and first after ``end``."""
        near = []
        before = bisect.bisect_right(self.ends, start) - 1
        if before >= 0:
            near.append(self.seconds[before])
        after = bisect.bisect_left(self.starts, end)
        if after < len(self.starts):
            near.append(self.seconds[after])
        if not near:
            raise AssertionError("an interval was timed without calibration")
        return CAL_REF_S / statistics.mean(near)

    def scaled(self, interval: tuple) -> float:
        """Seconds of ``interval`` (start, end) on the reference host."""
        start, end = interval
        return (end - start) * self.factor(start, end)


@dataclass(frozen=True)
class Scale:
    """Input sizes and minimum operation counts of one benchmark scale."""

    cold_n: int
    cold_graphs: int
    query_n: int
    query_graphs: int
    query_worlds: int
    query_pairs: int
    drift_n: int
    drift_min_batches: int
    serve_n: int
    serve_worlds: int
    serve_min_cycles: int


FULL = Scale(cold_n=20000, cold_graphs=3, query_n=500, query_graphs=4,
             query_worlds=300, query_pairs=100,
             drift_n=3000, drift_min_batches=40, serve_n=3000,
             serve_worlds=200, serve_min_cycles=3)
SMOKE = Scale(cold_n=400, cold_graphs=2, query_n=120, query_graphs=2,
              query_worlds=20, query_pairs=10,
              drift_n=200, drift_min_batches=4, serve_n=200,
              serve_worlds=20, serve_min_cycles=2)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def graph_sha(graph: UncertainGraph) -> str:
    """Digest of a graph's dense edge arrays and probabilities."""
    ev = np.ascontiguousarray(graph.edge_index_array(), dtype=np.int64)
    ps = np.ascontiguousarray(graph.probability_array(), dtype=np.float64)
    return sha256(ev.tobytes() + ps.tobytes())


class Run:
    """One benchmark run: tracer, inputs, checks and the closed loop."""

    def __init__(self, seed, seconds, tracer, scale, workdir, expected):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.scale = scale
        self.workdir = workdir
        self.expected = expected or {}
        self.inputs: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cal = Calibration()
        self.setup_times: list[tuple] = []  # (start, end)
        self._rebuild = None  # (build, close) of the set-up
        self.groups = 1
        self.samples: list[tuple] = []  # (group, traced, {part: (start, end)})
        # Sparse graphs the traced Monte-Carlo runs used; kept alive so
        # the tracer can tell them apart from originals by id().
        self.sparse_graphs: list = []
        self.recorded: dict = {}      # values comparable across commits
        self.differs: list[str] = []  # informational mismatches vs expected

    # -- checks -------------------------------------------------------------
    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def comparable(self, key: str) -> bool:
        """Whether ``key`` was recorded for these very inputs."""
        return key in self.expected and all(
            self.expected.get(f"input_sha:{name}", sha) == sha
            for name, sha in self.inputs.items()
        )

    def expect_d1(self, key: str, d1: float) -> None:
        """Record ``d1``; fail if it exceeds the recorded value's slack."""
        self.recorded[key] = d1
        if self.comparable(key):
            want = self.expected[key]
            self.check(key, d1 <= want + D1_TOL * max(1.0, want),
                       f"{d1!r} > recorded {want!r}")

    def expect_exact(self, key: str, value) -> None:
        """Record ``value``; fail unless it equals the recorded one."""
        self.recorded[key] = value
        if self.comparable(key):
            self.check(key, value == self.expected[key],
                       f"{value!r} != recorded {self.expected[key]!r}")

    def note(self, key: str, value) -> None:
        """Record a value that may legitimately change; report a change."""
        self.recorded[key] = value
        if key in self.expected and self.expected[key] != value:
            self.differs.append(key)

    # -- inputs, set-up and the closed loop ------------------------------
    def write_input(self, name: str, graph: UncertainGraph) -> str:
        path = os.path.join(self.workdir, name)
        data = format_edge_list(graph).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        self.inputs[name] = sha256(data)
        self.note(f"input_sha:{name}", self.inputs[name])
        return path

    def setup(self, build, close=None):
        """Run ``build`` :data:`SETUP_REPEATS` times; keep the last value,
        closing earlier ones with ``close``.  :meth:`loop` repeats it
        :data:`SETUP_PROBES` more times spread over the run."""
        self.tracer.install()
        self._rebuild = (build, close)
        value = None
        for _ in range(SETUP_REPEATS):
            if value is not None and close is not None:
                close(value)
            value = None  # let the previous inputs go before rebuilding
            value = self._timed_setup(build)
        return value

    def _timed_setup(self, build):
        with self.tracer.phase("setup", len(self.setup_times)):
            self.cal.measure()
            start = time.perf_counter()
            value = build()
            self.setup_times.append((start, time.perf_counter()))
            self.cal.measure()
        return value

    def rebuild(self):
        """One more timed set-up, whose value the caller keeps."""
        return self._timed_setup(self._rebuild[0])

    def setup_seconds(self, raw: bool = False) -> list[float]:
        """Every set-up's time, scaled to the reference host unless ``raw``."""
        return [self.seconds_of(t, raw) for t in self.setup_times]

    def seconds_of(self, interval: tuple, raw: bool = False) -> float:
        return interval[1] - interval[0] if raw else self.cal.scaled(interval)

    def timed(self, call):
        """``(call(), (start, end))``, with a calibration after the call."""
        start = time.perf_counter()
        value = call()
        end = time.perf_counter()
        self.cal.measure()
        return value, (start, end)

    def loop(self, operation, check, min_ops: int, groups: int = 1,
             probes: int = SETUP_PROBES) -> None:
        """Closed loop over ``operation(index)`` for the run's seconds.

        ``operation`` returns ``(parts, outcome)``, where ``parts`` names
        the ``(start, end)`` intervals the operation timed; its latency is
        their sum.  It times them with :meth:`timed`, which calibrates the
        host after each; the loop calibrates before each operation.
        ``check(index, outcome)`` then runs outside the timed phase.
        Operation ``index`` works on input group ``index % groups``.  A
        traced run traces every other round of ``groups`` operations, so
        traced and untraced latencies of the same inputs give the tracing
        overhead.  ``probes`` more set-ups are spread over the run.
        """
        self.groups = groups
        if self.tracer.enabled:  # one traced and one untraced round at least
            min_ops = max(min_ops, 2 * groups)
        deadline = time.perf_counter() + self.seconds
        # Set-up probes sample the host's speed over the whole run, as the
        # operations do, instead of only at its start.
        probe_every = self.seconds / (probes + 1)
        next_probe = time.perf_counter() + probe_every
        probed = 0
        walls: list[float] = []
        index = 0
        while True:
            traced = self.is_traced(index)
            if traced:
                self.tracer.install()
            else:
                self.tracer.uninstall()
            phase = (
                self.tracer.phase("op", index) if traced
                else contextlib.nullcontext()
            )
            start = time.perf_counter()
            # Each operation starts from a collected heap, so none pays for
            # the garbage of the one before (or of the checks).
            gc.collect()
            self.cal.measure()
            with phase:
                parts, outcome = operation(index)
            self.samples.append((index % groups, traced, parts))
            check(index, outcome)
            walls.append(time.perf_counter() - start)
            index += 1
            if probed < probes and time.perf_counter() >= next_probe:
                build, close = self._rebuild
                value = self._timed_setup(build)
                if close is not None:
                    close(value)
                del value
                gc.collect()  # the probe's garbage is not the next op's cost
                probed += 1
                next_probe += probe_every
            now = time.perf_counter()
            if index >= min_ops and now + statistics.median(walls) > deadline:
                break
        self.tracer.uninstall()

    def is_traced(self, index: int) -> bool:
        """Whether :meth:`loop` traced operation ``index``."""
        return self.tracer.enabled and (index // self.groups) % 2 == 0

    def latencies(self, part="op", traced: "bool | None" = None,
                  raw: bool = False) -> dict:
        """Group -> latencies (s) of a part; untraced ones by default.

        ``part`` names one part, or is a tuple of parts to add up;
        ``"op"`` adds up all of them.  Latencies are scaled to the
        reference host unless ``raw``.  With ``traced=None`` the untraced
        operations are used, or the traced ones when every operation was
        traced.
        """
        if traced is None:
            traced = not any(not t for _, t, _ in self.samples)
        by_group: dict[int, list] = {}
        for group, was_traced, parts in self.samples:
            if was_traced == traced:
                names = parts if part == "op" else (
                    (part,) if isinstance(part, str) else part)
                by_group.setdefault(group, []).append(
                    sum(self.seconds_of(parts[name], raw) for name in names))
        return by_group

    def median(self, part="op", traced: "bool | None" = None,
               raw: bool = False) -> float:
        """Mean over input groups of each group's median latency (s)."""
        by_group = self.latencies(part, traced, raw)
        return statistics.mean(statistics.median(v) for v in by_group.values())

    def overhead_pct(self) -> "float | None":
        """Traced vs untraced operation latency, over groups having both."""
        traced, untraced = self.latencies(traced=True), self.latencies(traced=False)
        common = sorted(set(traced) & set(untraced))
        if not common:
            return None
        ratio = statistics.mean(
            statistics.median(traced[g]) / statistics.median(untraced[g])
            for g in common)
        return 100.0 * (ratio - 1.0)


# -- shared checks ---------------------------------------------------------------
def result_state(graph: UncertainGraph, result: UncertainGraph) -> SparsificationState:
    """The sparsification state that ``result`` describes over ``graph``."""
    n = graph.number_of_vertices()
    ev = np.asarray(graph.edge_index_array(), dtype=np.int64)
    keys = np.minimum(ev[:, 0], ev[:, 1]) * n + np.maximum(ev[:, 0], ev[:, 1])
    order = np.argsort(keys, kind="stable")
    indexer = graph.vertex_indexer()
    pairs = np.array(
        [(indexer[u], indexer[v]) for u, v in result.edge_list()], dtype=np.int64
    ).reshape(-1, 2)
    rkeys = np.minimum(pairs[:, 0], pairs[:, 1]) * n + np.maximum(pairs[:, 0], pairs[:, 1])
    pos = np.minimum(np.searchsorted(keys[order], rkeys), len(order) - 1)
    eids = order[pos]
    if not np.array_equal(keys[eids], rkeys):
        raise AssertionError("sparsified graph has an edge the input lacks")
    state = SparsificationState(graph)
    state.select_edges(eids, np.asarray(result.probability_array(), dtype=np.float64))
    return state


def check_sparsifier(run: Run, graph, result, alpha: float, relative: bool) -> float:
    """Budget, state bookkeeping and objective of one sparsifier; its D1."""
    run.check("budget", check_budget(graph, result, alpha),
              f"{result.number_of_edges()} edges")
    try:
        state = result_state(graph, result)
        state.verify()
    except AssertionError as error:
        run.check("state.verify", False, str(error))
        return float("nan")
    run.check("state.verify", True)
    return state.d1(relative=relative)


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input of a run with workload seed ``seed``."""
    return 1000 * seed + index


def forest_fire_graph(n: int, seed: int, name: str) -> UncertainGraph:
    n, src, dst, prob = forest_fire_like_arrays(n, avg_degree=20, rng=seed)
    return UncertainGraph.from_edge_arrays(
        range(n), np.stack([src, dst], axis=1), prob, name=name
    )


# -- cold-200k ---------------------------------------------------------------
def cold(run: Run) -> dict:
    alpha = 0.4
    k = run.scale.cold_graphs
    paths = [
        run.write_input(f"cold-{j}.txt", forest_fire_graph(
            run.scale.cold_n, sub_seed(run.seed, j), f"cold-{j}"))
        for j in range(k)
    ]
    graphs = run.setup(lambda: [read_edge_list(path) for path in paths])
    digests: dict[int, str] = {}
    d1s: dict[int, float] = {}

    def operation(index):
        graph = graphs[index % k]
        with run.tracer.span("op.sparsify"):
            result, interval = run.timed(
                lambda: sparsify(graph, alpha, "GDB^A-t", rng=run.seed, h=0.25))
        return {"sparsify": interval}, result

    def check(index, result):
        j = index % k
        digest = graph_sha(result)
        if j in digests:  # a repeat must reproduce the checked result
            run.check("deterministic", digest == digests[j], f"op {index}")
            return
        d1 = check_sparsifier(run, graphs[j], result, alpha, relative=False)
        digests[j], d1s[j] = digest, d1
        run.expect_d1(f"d1:{j}", d1)
        run.note(f"result_sha:{j}", digest)

    run.loop(operation, check, min_ops=k, groups=k)
    return {
        "sparsify_s": (run.median(), "s"),
        "d1": (statistics.mean(d1s.values()), "1"),
    }


# -- query-5k ---------------------------------------------------------------
QUERY_NAMES = ("RL", "SP", "CC", "PR")


def query(run: Run) -> dict:
    alpha = 0.4
    scale = run.scale
    k = scale.query_graphs
    paths = [
        run.write_input(f"query-{j}.txt", forest_fire_graph(
            scale.query_n, sub_seed(run.seed, j), f"query-{j}"))
        for j in range(k)
    ]
    graphs = run.setup(lambda: [read_edge_list(path) for path in paths])
    workloads = []
    for j, graph in enumerate(graphs):
        n = graph.number_of_vertices()
        pairs = sample_vertex_pairs(graph, scale.query_pairs, rng=sub_seed(run.seed, j))
        workloads.append((ReliabilityQuery(pairs), ShortestPathQuery(pairs),
                          ClusteringCoefficientQuery(n), PageRankQuery(n)))
    # Untimed, on a tiny graph: the first calls' one-off costs.
    tiny = forest_fire_graph(120, sub_seed(run.seed, k), "warm-up")
    tiny_pairs = sample_vertex_pairs(tiny, 10, rng=run.seed)
    tiny_sparse = sparsify(tiny, alpha, "EMD^R-t", rng=run.seed)
    tiny_n = tiny.number_of_vertices()
    for q in (ReliabilityQuery(tiny_pairs), ShortestPathQuery(tiny_pairs),
              ClusteringCoefficientQuery(tiny_n), PageRankQuery(tiny_n)):
        MonteCarloEstimator(tiny_sparse, n_samples=20, workers=1).run(q, rng=run.seed)

    def estimates(target, queries, kind, parts):
        outcomes = []
        with run.tracer.span(f"op.estimate.{kind}"):
            for offset, (name, q) in enumerate(zip(QUERY_NAMES, queries)):
                estimator = MonteCarloEstimator(
                    target, n_samples=scale.query_worlds, workers=1)
                outcome, parts[f"{name}_{kind}"] = run.timed(
                    lambda: estimator.run(q, rng=run.seed + offset))
                outcomes.append(outcome)
        return outcomes

    def operation(index):
        graph, queries = graphs[index % k], workloads[index % k]
        parts = {}
        with run.tracer.span("op.sparsify"):
            sparse, parts["sparsify"] = run.timed(
                lambda: sparsify(graph, alpha, "EMD^R-t", rng=run.seed))
        if run.is_traced(index):
            run.sparse_graphs.append(sparse)
        orig = estimates(graph, queries, "orig", parts)
        sparse_out = estimates(sparse, queries, "sparse", parts)
        return parts, (sparse, orig, sparse_out)

    digests: dict[int, tuple] = {}
    quality: dict[int, tuple] = {}

    def check(index, outcome):
        j = index % k
        sparse, orig, sparse_out = outcome
        digest = (
            graph_sha(sparse),
            sha256(b"".join(r.outcomes.tobytes() for r in orig)),
            sha256(b"".join(r.outcomes.tobytes() for r in sparse_out)),
        )
        if j in digests:
            run.check("deterministic", digest == digests[j], f"op {index}")
            return
        digests[j] = digest
        d1 = check_sparsifier(run, graphs[j], sparse, alpha, relative=True)
        errors = []
        for a, b in zip(orig, sparse_out):
            want, got = a.scalar_estimate(), b.scalar_estimate()
            errors.append(abs(got - want) / abs(want) if want else abs(got))
        quality[j] = (d1, errors)
        sparse_sha, orig_mc, sparse_mc = digest
        run.expect_d1(f"d1:{j}", d1)
        run.note(f"sparse_sha:{j}", sparse_sha)
        # Sampling is seeded, so an outcome matrix is an exact function of
        # the graph it ran on; the sparse graph itself may change.
        run.expect_exact(f"orig_mc_sha:{j}", orig_mc)
        if run.expected.get(f"sparse_sha:{j}", sparse_sha) == sparse_sha:
            run.expect_exact(f"sparse_mc_sha:{j}", sparse_mc)
        else:
            run.note(f"sparse_mc_sha:{j}", sparse_mc)

    run.loop(operation, check, min_ops=k, groups=k)
    per_query = np.mean([errors for _, errors in quality.values()], axis=0)
    return {
        "sparsify_s": (run.median("sparsify"), "s"),
        "estimate_orig_s": (run.median(tuple(f"{q}_orig" for q in QUERY_NAMES)), "s"),
        "estimate_s": (run.median(tuple(f"{q}_sparse" for q in QUERY_NAMES)), "s"),
        "query_rel_err": (float(per_query.mean()), "1"),
        "query_rel_err_by_query": (dict(zip(QUERY_NAMES, per_query.tolist())), "1"),
        "d1": (statistics.mean(d1 for d1, _ in quality.values()), "1"),
    }


# -- drift-3k ----------------------------------------------------------------
DRIFT = dict(alpha=0.4, variant="GDB^A-t", tau=1e-8)


def drift(run: Run) -> dict:
    scale = run.scale
    batches = scale.drift_min_batches  # of one stream, from a fresh build
    path = run.write_input(
        "drift.txt", flickr_like(n=scale.drift_n, avg_degree=16, seed=run.seed))

    def build():
        maintainer = IncrementalSparsifier(
            read_edge_list(path), DRIFT["alpha"], variant=DRIFT["variant"],
            rng=run.seed, tau=DRIFT["tau"])
        stream = DriftWorkload(maintainer.graph, edge_fraction=0.01,
                               insert_rate=0.1, delete_rate=0.1, seed=run.seed)
        return maintainer, stream

    maintainer, stream = run.setup(build)
    # One untimed batch warms the write path; the stream then restarts.
    maintainer.apply(stream.next_batch(maintainer.graph))
    del maintainer, stream
    live = list(run.rebuild())  # [maintainer, stream]
    churn: list[int] = []
    selections: list[str] = []
    d1s: list[float] = []

    def operation(index):
        maintainer, stream = live
        batch = stream.next_batch(maintainer.graph)
        with run.tracer.span("op.maintain"):
            report, interval = run.timed(lambda: maintainer.apply(batch))
        return {"maintain": interval}, report

    def check(index, report):
        maintainer = live[0]
        churn.append(report.removed + report.added)
        state = maintainer.state
        try:
            state.verify()
            run.check("state.verify", True)
        except AssertionError as error:
            run.check("state.verify", False, f"batch {index}: {error}")
        run.check("budget", state.edge_count() == target_edge_count(
            state.m, DRIFT["alpha"]), f"batch {index}")
        if (index + 1) % batches:
            return
        # The end of a stream: check it, then restart from a fresh build.
        selection = sha256(state.selected.tobytes())
        if selections:  # a replayed stream must end where the first did
            run.check("deterministic", selection == selections[0], f"batch {index}")
        else:
            end_of_stream(maintainer, selection)
        selections.append(selection)
        live.clear()
        gc.collect()
        live.extend(run.rebuild())

    def end_of_stream(maintainer, selection):
        run.expect_d1("d1", maintainer.d1())
        run.note("selection_sha", selection)
        rebuilt = IncrementalSparsifier(
            maintainer.graph.copy(), DRIFT["alpha"], variant=DRIFT["variant"],
            rng=run.seed, tau=DRIFT["tau"])
        run.check("selection_matches_rebuild",
                  np.array_equal(maintainer.state.selected, rebuilt.state.selected))
        cold_d1 = rebuilt.d1()
        run.check("d1_matches_rebuild",
                  maintainer.d1() <= cold_d1 + D1_TOL * max(1.0, cold_d1),
                  f"maintained {maintainer.d1()!r} vs rebuilt {cold_d1!r}")
        d1s.append(maintainer.d1())

    run.loop(operation, check, min_ops=batches, groups=batches, probes=0)
    latencies = [t for group in run.latencies().values() for t in group]
    p75 = float(np.percentile(latencies, 75))
    return {
        "maintain_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "maintain_ms_p75": (1e3 * p75, "ms"),
        "maintain_samples_above_p75": (sum(1 for t in latencies if t > p75), "count"),
        "churn_median": (statistics.median(churn), "count"),
        "d1": (d1s[0], "1"),
    }


# -- serve-3k ----------------------------------------------------------------
def serve(run: Run) -> dict:
    scale = run.scale
    path = run.write_input(
        "serve.txt", flickr_like(n=scale.serve_n, avg_degree=16, seed=run.seed))
    sparsify_params = {"dataset": path, "alpha": 0.4, "variant": "GDB^A-t",
                       "seed": run.seed}
    estimate_params = {"dataset": path, "query": "reliability",
                       "samples": scale.serve_worlds, "seed": run.seed}

    def start_service():
        # A small registry keeps memory flat however many cycles run: it
        # holds the live drifted graph plus a few superseded ones.
        service = SparsifierService(
            ServerConfig(workers=1, mc_workers=1, dataset_capacity=4))
        # The first request registers (reads, digests, parses) the dataset.
        service.handle("estimate", {"dataset": path, "query": "connectivity",
                                    "samples": 1, "seed": run.seed})
        return service

    service = run.setup(start_service, close=lambda s: s.close())
    model = read_edge_list(path)  # the client's own copy of the dataset
    stream = DriftWorkload(model, edge_fraction=0.01, seed=run.seed)
    d1s: list[float] = []

    def request(kind, call):
        def guarded():
            try:
                return call()
            except ReproError as error:
                run.check(f"request.{kind}", False, repr(error))
                return None

        return run.timed(guarded)

    def cycle(index):
        batch = stream.next_batch(model)
        edges = model.edge_list()
        updates = [
            [edges[eid][0], edges[eid][1], float(p)]
            for eid, p in zip(batch.update_eids.tolist(), batch.update_ps)
        ]
        with run.tracer.span("op.cycle"):
            update, t_update = request("update", lambda: service.update(
                {"dataset": path, "updates": updates}))
            miss, t_miss = request("sparsify", lambda: service.handle(
                "sparsify", dict(sparsify_params)))
            hit, t_hit = request("sparsify", lambda: service.handle(
                "sparsify", dict(sparsify_params)))
            estimate, t_estimate = request("estimate", lambda: service.handle(
                "estimate", dict(estimate_params)))
        parts = {"update": t_update, "resparsify": t_miss, "hit": t_hit,
                 "estimate": t_estimate}
        return parts, (batch, update, miss, hit, estimate)

    def check(index, outcome):
        batch, update, miss, hit, estimate = outcome
        apply_delta(model, batch, in_place=True)
        if update is not None:
            run.check("update.applied", update["updates"] == len(batch.update_eids)
                      and not update["structural"] and update["invalidated"] >= 1,
                      json.dumps(update))
            run.check("update.plan_repaired", index < 1 or update["plan_repaired"])
        if miss is None or hit is None or estimate is None:
            return
        run.check("sparsify.miss", not miss[1], "served from cache")
        run.check("sparsify.hit", hit[1] and hit[0] == miss[0],
                  "hit differs from its miss")
        direct = sparsify(model, sparsify_params["alpha"],
                          sparsify_params["variant"], rng=run.seed)
        body = json.loads(miss[0])
        run.check("sparsify.matches_direct",
                  body["artifact"] == format_edge_list(direct, header=False),
                  f"cycle {index}")
        d1s.append(check_sparsifier(run, model, direct,
                                    sparsify_params["alpha"], relative=False))
        if index == -1:
            run.expect_d1("d1", d1s[-1])
            run.expect_exact("estimate_sha", sha256(estimate[0]))

    try:
        # One untimed cycle first builds the dataset's backbone plan.
        check(-1, cycle(-1)[1])
        run.loop(cycle, check, min_ops=scale.serve_min_cycles)
        stats = service.status()
    finally:
        service.close()
    run.check("queue.failed", stats["queue"]["failed"] == 0, json.dumps(stats["queue"]))
    cycles = len(run.latencies()[0])
    request_time = sum(
        sum(run.latencies(kind)[0])
        for kind in ("update", "resparsify", "hit", "estimate"))
    return {
        "update_ms_p50": (1e3 * run.median("update"), "ms"),
        "resparsify_ms_p50": (1e3 * run.median("resparsify"), "ms"),
        "hit_ms_p50": (1e3 * run.median("hit"), "ms"),
        "estimate_ms_p50": (1e3 * run.median("estimate"), "ms"),
        "serve_rps": (4 * cycles / request_time, "1/s"),
        "cache_hit_rate": (stats["cache"]["hit_rate"], "ratio"),
        "d1": (d1s[-1], "1"),
    }


WORKLOADS = {
    "cold-200k": cold,
    "query-5k": query,
    "drift-3k": drift,
    "serve-3k": serve,
}
