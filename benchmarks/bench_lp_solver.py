"""Smoke benchmark: first-order pdp LP solver vs the HiGHS reference.

The Theorem-1 LP on a ~100k-edge Forest-Fire sample of a Flickr-style
topology (the paper's "Flickr reduced" construction at the scale where
the paper dismisses LP as impractical), with a BGI backbone of ~40k
edges:

- **quality gate (always on)**: the pdp objective must land within 1%
  of the HiGHS optimum (``MAX_GAP``; the solver's own duality-gap
  stop is 0.1%), and the returned point must be strictly feasible —
  ``A_b p' <= d`` and ``0 <= p' <= 1`` (Lemma 1).
- **timing gate**: pdp must beat HiGHS by ``MIN_SPEEDUP`` (default 3x;
  measured ~100-150x single-core — the floor is deliberately loose for
  noisy shared runners and is env-overridable like the other benches).
  Skipped on single-core machines; the quality gate still runs there.

Results land under ``benchmarks/results/`` like the other benches, with
a machine-readable twin in ``BENCH_lp_solver.json``: both solvers'
seconds and objectives, the speedup and the pdp shortfall.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.backbone import bgi_backbone
from repro.core.lp import backbone_incidence, lp_assign_probabilities
from repro.datasets import flickr_like, forest_fire_sample
from repro.experiments.common import ResultTable

#: Relative objective shortfall allowed for pdp vs the HiGHS optimum.
MAX_GAP = float(os.environ.get("REPRO_BENCH_LP_MAX_GAP", "0.01"))

#: Acceptance floor for pdp vs HiGHS wall time (measured ~100-150x).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_LP_MIN_SPEEDUP", "3.0"))

ALPHA = 0.45


@pytest.fixture(scope="module")
def bench_graph():
    """~100k-edge Forest-Fire sample (the paper's reduction protocol)."""
    base = flickr_like(n=16_000, avg_degree=18, seed=17)
    graph = forest_fire_sample(base, 12_000, rng=17)
    assert 80_000 <= graph.number_of_edges() <= 130_000
    return graph


@pytest.fixture(scope="module")
def backbone(bench_graph):
    ids = bgi_backbone(bench_graph, ALPHA, rng=17)
    assert len(ids) >= 30_000
    return ids


def test_bench_pdp_vs_highs(bench_graph, backbone, emit, emit_json):
    solutions = {}
    timings = {}
    for solver in ("highs", "pdp"):
        start = time.perf_counter()
        solutions[solver] = lp_assign_probabilities(
            bench_graph, backbone, solver=solver
        )
        timings[solver] = time.perf_counter() - start

    objectives = {k: float(v.sum()) for k, v in solutions.items()}

    # Quality gate (always on): within MAX_GAP of the exact optimum,
    # never above it, and strictly feasible.
    shortfall = (objectives["highs"] - objectives["pdp"]) / objectives["highs"]
    assert objectives["pdp"] <= objectives["highs"] + 1e-6
    assert shortfall <= MAX_GAP, (
        f"pdp objective {shortfall:.2%} below HiGHS (allowed {MAX_GAP:.0%})"
    )
    pdp = solutions["pdp"]
    assert np.all(pdp >= 0.0) and np.all(pdp <= 1.0)
    products = backbone_incidence(bench_graph, np.asarray(backbone)) @ pdp
    assert np.all(products <= bench_graph.expected_degree_array() + 1e-9)

    speedup = timings["highs"] / timings["pdp"]
    table = ResultTable(
        title=(
            f"Theorem-1 LP solvers — {len(backbone)} backbone edges of "
            f"{bench_graph.number_of_edges()} "
            f"(|V|={bench_graph.number_of_vertices()}, alpha={ALPHA:.0%})"
        ),
        headers=["solver", "seconds", "speedup", "objective"],
        notes=(
            f"pdp lands {shortfall:.3%} below the HiGHS optimum "
            f"(gated <= {MAX_GAP:.0%}); feasibility gated exactly"
        ),
    )
    table.add_row("highs", timings["highs"], 1.0, objectives["highs"])
    table.add_row("pdp", timings["pdp"], speedup, objectives["pdp"])
    emit("bench_lp_solver", table)
    emit_json("lp_solver", {
        "backbone_edges": len(backbone),
        "highs_s": timings["highs"],
        "pdp_s": timings["pdp"],
        "highs_objective": objectives["highs"],
        "pdp_objective": objectives["pdp"],
        "speedup": speedup,
        "pdp_shortfall": shortfall,
    })

    if (os.cpu_count() or 1) < 2:
        pytest.skip(
            f"single-core machine — quality checked, speedup gate skipped "
            f"(measured {speedup:.2f}x)"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"pdp only {speedup:.2f}x faster than HiGHS (need >= {MIN_SPEEDUP}x)"
    )
