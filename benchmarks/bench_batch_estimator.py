"""Smoke benchmark: batched vs legacy Monte-Carlo estimator throughput.

Times reliability (RL), shortest-path distance (SP), clustering
coefficient (CC) and PageRank (PR) estimates on a ~2k-edge synthetic
graph through :class:`MonteCarloEstimator` (the world-ensemble engine,
"batched") and through its world-at-a-time reference loop
(``oracles.estimators.monte_carlo_outcomes``, "legacy").  For every
query the engine must return the exact same outcome matrix as the
per-world loop; the reliability workload (the headline claim) must also
beat it by at least ``MIN_SPEEDUP``.
Tables are archived under ``benchmarks/results/`` like the figure
benchmarks, and every query's timings are collected in the JSON twin
``benchmarks/results/BENCH_batch_estimator.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from oracles.estimators import monte_carlo_outcomes
from repro.datasets import flickr_like
from repro.experiments.common import ResultTable
from repro.queries import (
    ClusteringCoefficientQuery,
    PageRankQuery,
    ReliabilityQuery,
    ShortestPathQuery,
    sample_vertex_pairs,
)
from repro.sampling import MonteCarloEstimator

#: Acceptance floor for the reliability workload (the headline claim).
#: Shared CI runners have noisy clocks — they override this via
#: REPRO_BENCH_MIN_SPEEDUP; the correctness assertion always holds.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))

N_WORLDS = 500
N_PAIRS = 20


@pytest.fixture(scope="module")
def graph():
    # ~2000 edges: n=200, avg_degree=20 -> 20/2 * (200 - 10) + 55 = 1955.
    g = flickr_like(n=200, avg_degree=20, seed=17)
    assert 1800 <= g.number_of_edges() <= 2200
    return g


@pytest.fixture(scope="module")
def report(graph):
    """Per-query timings, shared by the module's tests for the JSON twin."""
    return {
        "graph": {
            "vertices": graph.number_of_vertices(),
            "edges": graph.number_of_edges(),
        },
        "queries": {},
    }


def _run_both(graph, query, n_samples=N_WORLDS, legacy_samples=None):
    """(speedup, batched seconds, legacy seconds) for one query.

    ``legacy_samples`` lets slow queries time the legacy path on fewer
    worlds and extrapolate per-world cost; outcomes are then compared on
    that prefix (the RNG stream is shared, so prefixes coincide).
    """
    legacy_samples = legacy_samples or n_samples
    batched = MonteCarloEstimator(graph, n_samples=n_samples)
    start = time.perf_counter()
    batched_result = batched.run(query, rng=3)
    batched_seconds = time.perf_counter() - start

    legacy = MonteCarloEstimator(graph, n_samples=legacy_samples)
    start = time.perf_counter()
    legacy_outcomes = monte_carlo_outcomes(legacy, query, rng=3)
    legacy_seconds = (time.perf_counter() - start) * (n_samples / legacy_samples)

    assert np.array_equal(
        batched_result.outcomes[:legacy_samples],
        legacy_outcomes,
        equal_nan=True,
    )
    return legacy_seconds / batched_seconds, batched_seconds, legacy_seconds


def _measure(graph, report, emit, emit_json, name, label, query,
             n_samples=N_WORLDS, legacy_samples=None):
    """Time one query both ways, archive its table and refresh the JSON."""
    speedup, batched_s, legacy_s = _run_both(
        graph, query, n_samples=n_samples, legacy_samples=legacy_samples
    )
    table = ResultTable(
        title=f"Batched vs legacy estimator — {label}, {n_samples} worlds, "
        f"{graph.number_of_edges()} edges",
        headers=["path", "seconds", "speedup"],
    )
    table.add_row("legacy", legacy_s, 1.0)
    table.add_row("batched", batched_s, speedup)
    emit(name, table)
    report["queries"][label] = {
        "worlds": n_samples,
        "legacy_worlds": legacy_samples or n_samples,
        "batched_s": batched_s,
        "legacy_s": legacy_s,
        "speedup": speedup,
    }
    emit_json("batch_estimator", report)
    return speedup


def test_bench_batch_vs_legacy_reliability(graph, report, emit, emit_json):
    pairs = sample_vertex_pairs(graph, N_PAIRS, rng=7)
    speedup = _measure(
        graph, report, emit, emit_json, "bench_batch_estimator", "RL",
        ReliabilityQuery(pairs),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched reliability estimate only {speedup:.1f}x faster "
        f"(need >= {MIN_SPEEDUP}x)"
    )


def test_bench_batch_vs_legacy_shortest_path(graph, report, emit, emit_json):
    pairs = sample_vertex_pairs(graph, N_PAIRS, rng=7)
    _measure(
        graph, report, emit, emit_json, "bench_batch_estimator_sp", "SP",
        ShortestPathQuery(pairs), legacy_samples=100,
    )


def test_bench_batch_vs_legacy_clustering(graph, report, emit, emit_json):
    _measure(
        graph, report, emit, emit_json, "bench_batch_estimator_cc", "CC",
        ClusteringCoefficientQuery(graph.number_of_vertices()),
        legacy_samples=50,
    )


def test_bench_batch_vs_legacy_pagerank(graph, report, emit, emit_json):
    speedup = _measure(
        graph, report, emit, emit_json, "bench_batch_estimator_pagerank", "PR",
        PageRankQuery(graph.number_of_vertices()),
        n_samples=100, legacy_samples=100,
    )
    # PR's legacy inner loop is already vectorised; just require a win.
    assert speedup >= 1.0
