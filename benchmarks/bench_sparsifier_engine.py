"""Smoke benchmark: the array-native sparsifier engine.

GDB and EMD on a ~10k-edge Forest-Fire sample of a Flickr-style
topology (the paper's "Flickr reduced" construction), loop engine vs
vector engine:

- **GDB sweeps** (the hot path of every fig04-08 grid point): a fixed
  number of ``k = 1`` coordinate-descent sweeps, color-blocked arrays
  against the scalar reference loop.  The speedup gate (``MIN_SPEEDUP``,
  default 3x) is timing-based and therefore core-count-aware — it skips
  itself on single-core machines; equality always gates via a separate
  run to the exact descent fixed point (``h = 1``), where the two
  engines' converged objectives must agree within 1e-6.
- **EMD**: the full Algorithm 3 with the vectorised E-phase candidate
  scan + fused M-phase against the scalar reference.  Here the engines
  are *bit-identical by construction*, so the equality gate is exact
  (``tol=0``) and always runs; the speedup floor is softer
  (``MIN_EMD_SPEEDUP``, default 1.2 — the E-phase is only part of EMD's
  cost).
- **EMD E-phase, lazy vs eager heap**: the isolated outer-loop E-phase
  (heap construction + one full swap pass over the backbone) with the
  eager per-swap ``IndexedMaxHeap`` discipline against the deferred
  ``LazyMaxHeap`` one.  The modes are only tie-equivalent, so the gate
  is converged-``D_1`` agreement on full EMD runs (<= 1e-6 of the seed
  backbone's initial discrepancy, the objective's natural scale); the
  timing floor is ``MIN_LAZY_SPEEDUP`` (default 1.5, measured ~2.1x
  single-core).

Results land under ``benchmarks/results/`` like the other benches, with
a machine-readable twin in ``BENCH_sparsifier_engine.json``: one section
per test (``gdb_sweep``, ``emd``, ``emd_lazy_e_phase``), each holding
both sides' seconds and the speedup; ``gdb_sweep`` adds ms per sweep.
Each test rewrites the file with every section measured so far in the
run.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import EMDConfig, GDBConfig, SparsificationState, emd, gdb_refine
from repro.core.backbone import bgi_backbone
from repro.core.discrepancy import delta_1
from repro.core.emd_sparsifier import _e_phase_lazy, _e_phase_vector
from repro.datasets import flickr_like, forest_fire_sample
from repro.experiments.common import ResultTable
from repro.utils.heap import IndexedMaxHeap, LazyMaxHeap

#: Acceptance floor for the color-blocked GDB sweep vs the scalar loop
#: (measured ~11-22x on a 2-vCPU host; CI overrides via
#: REPRO_BENCH_SPARSIFIER_MIN_SPEEDUP for noisy shared runners).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SPARSIFIER_MIN_SPEEDUP", "3.0"))

#: Acceptance floor for full EMD (measured ~2-2.8x single-core).
MIN_EMD_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_SPARSIFIER_MIN_EMD_SPEEDUP", "1.2")
)

#: Acceptance floor for the lazy vs eager E-phase (measured ~2.1x).
MIN_LAZY_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_SPARSIFIER_MIN_LAZY_SPEEDUP", "1.5")
)

ALPHA = 0.3
N_SWEEPS = 10


@pytest.fixture(scope="module")
def sections():
    """Sections of ``BENCH_sparsifier_engine.json`` measured so far."""
    return {}


@pytest.fixture(scope="module")
def bench_graph():
    """~10k-edge Forest-Fire sample (the paper's reduction protocol)."""
    base = flickr_like(n=2500, avg_degree=16, seed=17)
    graph = forest_fire_sample(base, 1600, rng=17)
    assert 9_000 <= graph.number_of_edges() <= 13_000
    return graph


@pytest.fixture(scope="module")
def backbone(bench_graph):
    return bgi_backbone(bench_graph, ALPHA, rng=17)


def seeded_state(graph, backbone_ids):
    state = SparsificationState(graph)
    for eid in backbone_ids:
        state.select_edge(eid)
    return state


def fixed_point_objective(graph, backbone_ids, engine):
    """Converged D1 at ``h = 1``: chunked sweeps to the exact fixed point."""
    state = seeded_state(graph, backbone_ids)
    chunk = GDBConfig(h=1.0, tau=0.0, max_sweeps=200)
    previous = None
    for _ in range(10):
        gdb_refine(state, chunk, engine=engine)
        current = state.d1()
        if current == previous:
            break
        previous = current
    return current


def test_bench_gdb_sweep_engine(bench_graph, backbone, emit, emit_json,
                                sections):
    timings = {}
    sweep_objectives = {}
    for engine in ("loop", "vector"):
        state = seeded_state(bench_graph, backbone)
        config = GDBConfig(h=0.05, tau=0.0, max_sweeps=N_SWEEPS)
        start = time.perf_counter()
        gdb_refine(state, config, engine=engine)
        timings[engine] = time.perf_counter() - start
        sweep_objectives[engine] = state.d1()
        state.verify()

    # Equality always gates: both engines descend to the same fixed
    # point of the h = 1 dynamics (within the loop-vs-vector contract).
    converged = {
        engine: fixed_point_objective(bench_graph, backbone, engine)
        for engine in ("loop", "vector")
    }
    gap = abs(converged["loop"] - converged["vector"])
    assert gap <= 1e-6 * max(1.0, abs(converged["loop"])), (
        f"engines converged {gap:.3e} apart"
    )

    speedup = timings["loop"] / timings["vector"]
    table = ResultTable(
        title=(
            f"GDB sweep engines — {N_SWEEPS} sweeps, "
            f"{len(backbone)} backbone edges of {bench_graph.number_of_edges()} "
            f"(alpha={ALPHA:.0%}, h=0.05, k=1)"
        ),
        headers=["engine", "seconds", "speedup", "D1 after sweeps"],
        notes=(
            f"converged objectives (h=1 fixed point) agree to {gap:.2e}; "
            f"gated <= 1e-6"
        ),
    )
    table.add_row("loop", timings["loop"], 1.0, sweep_objectives["loop"])
    table.add_row("vector", timings["vector"], speedup, sweep_objectives["vector"])
    emit("bench_sparsifier_gdb", table)
    sections["gdb_sweep"] = {
        "sweeps": N_SWEEPS,
        "backbone_edges": len(backbone),
        "loop_s": timings["loop"],
        "vector_s": timings["vector"],
        "loop_ms_per_sweep": 1e3 * timings["loop"] / N_SWEEPS,
        "vector_ms_per_sweep": 1e3 * timings["vector"] / N_SWEEPS,
        "speedup": speedup,
        "converged_gap": gap,
    }
    emit_json("sparsifier_engine", sections)

    if (os.cpu_count() or 1) < 2:
        pytest.skip(
            f"single-core machine — equality checked, speedup gate skipped "
            f"(measured {speedup:.2f}x)"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"vector GDB sweep only {speedup:.2f}x faster (need >= {MIN_SPEEDUP}x)"
    )


def test_bench_emd_engine(bench_graph, backbone, emit, emit_json, sections):
    config = EMDConfig()
    results = {}
    timings = {}
    for engine in ("loop", "vector"):
        start = time.perf_counter()
        results[engine] = emd(
            bench_graph, backbone_ids=list(backbone), config=config,
            engine=engine,
        )
        timings[engine] = time.perf_counter() - start

    # Bit-identity always gates: same edge set, exactly equal
    # probabilities.
    assert results["loop"].isomorphic_probabilities(results["vector"], tol=0.0)

    speedup = timings["loop"] / timings["vector"]
    table = ResultTable(
        title=(
            f"EMD engines — full Algorithm 3, {len(backbone)} backbone edges "
            f"of {bench_graph.number_of_edges()} (alpha={ALPHA:.0%})"
        ),
        headers=["engine", "seconds", "speedup"],
        notes="outputs bit-identical (gated, tol=0)",
    )
    table.add_row("loop", timings["loop"], 1.0)
    table.add_row("vector", timings["vector"], speedup)
    emit("bench_sparsifier_emd", table)
    sections["emd"] = {
        "loop_s": timings["loop"],
        "vector_s": timings["vector"],
        "speedup": speedup,
    }
    emit_json("sparsifier_engine", sections)

    if (os.cpu_count() or 1) < 2:
        pytest.skip(
            f"single-core machine — equality checked, speedup gate skipped "
            f"(measured {speedup:.2f}x)"
        )
    assert speedup >= MIN_EMD_SPEEDUP, (
        f"vector EMD only {speedup:.2f}x faster (need >= {MIN_EMD_SPEEDUP}x)"
    )


def test_bench_emd_lazy_e_phase(bench_graph, backbone, emit, emit_json,
                                sections):
    """Lazy deferred-heap E-phase vs the eager indexed-heap reference.

    Times the isolated outer-loop E-phase — heap construction plus one
    full swap pass — because the full ``emd()`` wall time is M-phase
    dominated.  Equality gates on the converged objective of *complete*
    EMD runs: the modes make tie-different swap choices, so the contract
    is converged-``D_1`` agreement, not bit-identity.
    """
    config = EMDConfig()

    def timed_e_phase(mode):
        state = seeded_state(bench_graph, backbone)
        start = time.perf_counter()
        if mode == "lazy":
            heap = LazyMaxHeap(state.delta)
            swaps = _e_phase_lazy(state, heap, config)
        else:
            heap = IndexedMaxHeap(
                {v: abs(float(state.delta[v])) for v in range(state.n)}
            )
            swaps = _e_phase_vector(state, heap, config)
        seconds = time.perf_counter() - start
        state.verify()
        return seconds, swaps

    timings = {}
    swap_counts = {}
    for mode in ("eager", "lazy"):
        timings[mode], swap_counts[mode] = min(
            timed_e_phase(mode) for _ in range(3)
        )

    # Converged-objective gate on full EMD runs (always on).  The gap
    # is measured against the seed backbone's initial discrepancy: both
    # modes recover the same fraction of it to within 1e-6 (the
    # converged objectives themselves sit ~6 orders of magnitude below
    # the initial mass, so an absolute gate would compare tie-different
    # local optima at noise level).
    initial_d1 = float(
        np.abs(seeded_state(bench_graph, backbone).delta).sum()
    )
    results = {
        mode: emd(
            bench_graph, backbone_ids=list(backbone), config=config,
            emd_mode=mode,
        )
        for mode in ("eager", "lazy")
    }
    d1 = {
        mode: delta_1(bench_graph, graph) for mode, graph in results.items()
    }
    gap = abs(d1["lazy"] - d1["eager"])
    assert gap <= 1e-6 * max(1.0, initial_d1), (
        f"lazy EMD converged D1 {gap:.3e} away from eager "
        f"(initial discrepancy {initial_d1:.3e})"
    )
    assert (
        results["lazy"].number_of_edges() == results["eager"].number_of_edges()
    )

    speedup = timings["eager"] / timings["lazy"]
    table = ResultTable(
        title=(
            f"EMD E-phase heap modes — heap build + one swap pass, "
            f"{len(backbone)} backbone edges of "
            f"{bench_graph.number_of_edges()} (alpha={ALPHA:.0%})"
        ),
        headers=["mode", "seconds", "speedup", "swaps"],
        notes=(
            f"full-run converged D1 agree to {gap:.2e} "
            f"(gated <= 1e-6 x initial discrepancy {initial_d1:.3g}); "
            f"min of 3 repetitions"
        ),
    )
    table.add_row("eager", timings["eager"], 1.0, swap_counts["eager"])
    table.add_row("lazy", timings["lazy"], speedup, swap_counts["lazy"])
    emit("bench_sparsifier_emd_lazy", table)
    sections["emd_lazy_e_phase"] = {
        "eager_s": timings["eager"],
        "lazy_s": timings["lazy"],
        "speedup": speedup,
        "eager_swaps": swap_counts["eager"],
        "lazy_swaps": swap_counts["lazy"],
        "converged_gap": gap,
    }
    emit_json("sparsifier_engine", sections)

    if (os.cpu_count() or 1) < 2:
        pytest.skip(
            f"single-core machine — equality checked, speedup gate skipped "
            f"(measured {speedup:.2f}x)"
        )
    assert speedup >= MIN_LAZY_SPEEDUP, (
        f"lazy E-phase only {speedup:.2f}x faster (need >= {MIN_LAZY_SPEEDUP}x)"
    )
