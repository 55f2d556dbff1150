"""Smoke benchmark: the array-native sparsifiers against their scalar
references.

GDB and EMD on a ~10k-edge Forest-Fire sample of a Flickr-style
topology (the paper's "Flickr reduced" construction).  The ``loop``
side of every table is the scalar reference in ``tests/oracles/``
(``benchmarks/conftest.py`` puts ``tests/`` on ``sys.path``), the
``vector`` side the production path:

- **GDB sweeps** (the hot path of every fig04-08 grid point): a fixed
  number of ``k = 1`` coordinate-descent sweeps, color-blocked arrays
  against the scalar reference loop.  The speedup gate (``MIN_SPEEDUP``,
  default 3x) is timing-based and therefore core-count-aware — it skips
  itself on single-core machines; equality always gates, twice: a
  separate run to the exact descent fixed point (``h = 1``), where the
  two converged objectives must agree within 1e-6, and the bytes of
  ``phat``, ``delta`` and ``total_residual`` after the timed sweeps,
  which must equal those ``reference_colored_sweep`` leaves after as
  many sweeps in the same (color, edge-id) order.
- **EMD**: the full Algorithm 3 with the deferred-heap E-phase and its
  candidate-table scan + sequential M-phase against the scalar
  reference.  Here the two sides are *bit-identical by construction*, so
  the equality gate is exact (``tol=0``) and always runs; the speedup
  floor is softer (``MIN_EMD_SPEEDUP``, default 1.2 — the E-phase is
  only part of EMD's cost).
- **EMD E-phase**: one isolated swap pass over the backbone, the
  production deferred-heap pass against the scalar reference (brute-force
  max-discrepancy scan, one candidate at a time).  Both make the same
  decisions, so the gate is exact equality of ``phat``, ``delta``,
  ``selected``, ``total_residual`` and the swap count after the pass;
  the timing floor is ``MIN_LAZY_SPEEDUP`` (default 1.5).  The vector
  side includes building the candidate table, which :func:`emd` does
  once per call.
- **EMD M-phase**: one ``gdb_refine`` call on a sequential plan (EMD's
  M-phase config) against the scalar reference loop.  Equality gates
  exactly (``phat``, ``delta``, ``total_residual`` and the sweep
  count); the timing is recorded, with no floor.

Results land under ``benchmarks/results/`` like the other benches, with
a machine-readable twin in ``BENCH_sparsifier_engine.json``: one section
per test (``gdb_sweep``, ``emd``, ``emd_e_phase``, ``emd_m_phase``),
each holding both sides' seconds and the speedup; ``gdb_sweep`` adds ms
per sweep for the loop, the colored-sweep oracle and production,
``emd_e_phase`` the swap count and ``emd_m_phase`` the sweep count.
Each test rewrites the file with every section measured so far in the
run.
"""

from __future__ import annotations

import os
import time

import pytest

from oracles.emd import e_phase, reference_emd
from oracles.gdb import loop_refine, reference_colored_sweep
from repro.core import (
    EMDConfig,
    GDBConfig,
    SparsificationState,
    build_sweep_plan,
    emd,
    gdb_refine,
)
from repro.core.backbone import bgi_backbone
from repro.core.emd_sparsifier import _candidate_table, _e_phase_lazy
from repro.datasets import flickr_like, forest_fire_sample
from repro.experiments.common import ResultTable

#: Acceptance floor for the color-blocked GDB sweep vs the scalar loop
#: (measured 21.9-23.5x on a 2-vCPU host, plan build included; CI
#: overrides via REPRO_BENCH_SPARSIFIER_MIN_SPEEDUP for noisy shared
#: runners).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SPARSIFIER_MIN_SPEEDUP", "3.0"))

#: Acceptance floor for full EMD (measured ~6.3-8.1x on a 2-vCPU host).
MIN_EMD_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_SPARSIFIER_MIN_EMD_SPEEDUP", "1.2")
)

#: Acceptance floor for the vector vs reference E-phase pass (measured
#: ~7.3-10.6x on a 2-vCPU host, candidate-table build included).
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


#: The two sides of every table: the scalar reference and production.
REFINES = {"loop": loop_refine, "vector": gdb_refine}


def fixed_point_objective(graph, backbone_ids, engine):
    """Converged D1 at ``h = 1``: chunked sweeps to the exact fixed point."""
    state = seeded_state(graph, backbone_ids)
    chunk = GDBConfig(h=1.0, tau=0.0, max_sweeps=200)
    previous = None
    for _ in range(10):
        REFINES[engine](state, chunk)
        current = state.d1()
        if current == previous:
            break
        previous = current
    return current


def test_bench_gdb_sweep_engine(bench_graph, backbone, emit, emit_json,
                                sections):
    timings = {}
    sweep_objectives = {}
    for engine in ("loop", "vector"):  # ``state`` stays the vector side's
        state = seeded_state(bench_graph, backbone)
        config = GDBConfig(h=0.05, tau=0.0, max_sweeps=N_SWEEPS)
        start = time.perf_counter()
        REFINES[engine](state, config)
        timings[engine] = time.perf_counter() - start
        sweep_objectives[engine] = state.d1()
        state.verify()

    # Equality always gates: both sides descend to the same fixed point
    # of the h = 1 dynamics (within the converged-D1 contract).
    converged = {
        engine: fixed_point_objective(bench_graph, backbone, engine)
        for engine in ("loop", "vector")
    }
    gap = abs(converged["loop"] - converged["vector"])
    assert gap <= 1e-6 * max(1.0, abs(converged["loop"])), (
        f"loop and vector converged {gap:.3e} apart"
    )

    # Exactness always gates too: the colored-sweep oracle, run for the
    # same number of sweeps in the same (color, edge-id) order, leaves
    # the same bytes behind as the timed vector side.
    oracle = seeded_state(bench_graph, backbone)
    plan = build_sweep_plan(oracle)
    start = time.perf_counter()
    for _ in range(N_SWEEPS):
        reference_colored_sweep(oracle, plan, False, 0.05)
    oracle_s = time.perf_counter() - start
    for name in ("phat", "delta"):
        assert getattr(oracle, name).tobytes() == getattr(state, name).tobytes(), (
            f"colored sweep {name} differs from reference_colored_sweep"
        )
    assert float(oracle.total_residual).hex() == float(state.total_residual).hex()

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
            f"gated <= 1e-6; after {N_SWEEPS} sweeps phat, delta and "
            f"total_residual equal reference_colored_sweep's bytes (gated)"
        ),
    )
    table.add_row("loop", timings["loop"], 1.0, sweep_objectives["loop"])
    table.add_row("reference colored", oracle_s, timings["loop"] / oracle_s,
                  oracle.d1())
    table.add_row("vector", timings["vector"], speedup, sweep_objectives["vector"])
    emit("bench_sparsifier_gdb", table)
    sections["gdb_sweep"] = {
        "sweeps": N_SWEEPS,
        "backbone_edges": len(backbone),
        "loop_s": timings["loop"],
        "vector_s": timings["vector"],
        "loop_ms_per_sweep": 1e3 * timings["loop"] / N_SWEEPS,
        "reference_colored_ms_per_sweep": 1e3 * oracle_s / N_SWEEPS,
        "vector_ms_per_sweep": 1e3 * timings["vector"] / N_SWEEPS,
        "colored_bytes_equal": True,
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
    runs = {
        "loop": lambda: reference_emd(bench_graph, backbone, config),
        "vector": lambda: emd(
            bench_graph, backbone_ids=list(backbone), config=config
        ),
    }
    results = {}
    timings = {}
    for engine, run in runs.items():
        start = time.perf_counter()
        results[engine] = run()
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
    """Deferred-heap E-phase vs the scalar reference, one swap pass each.

    Times the isolated E-phase, because the full ``emd()`` wall time is
    M-phase dominated.  The two passes make the same swaps, so equality
    always gates exactly on the state they leave behind.
    """
    config = EMDConfig()
    passes = {
        "loop": e_phase,
        "vector": lambda state, config: _e_phase_lazy(
            state, config, _candidate_table(state)
        ),
    }

    def timed_e_phase(engine):
        state = seeded_state(bench_graph, backbone)
        start = time.perf_counter()
        swaps = passes[engine](state, config)
        seconds = time.perf_counter() - start
        state.verify()
        return seconds, swaps, state

    timings = {}
    runs = {}
    for engine in passes:
        repeats = [timed_e_phase(engine) for _ in range(3)]
        timings[engine] = min(seconds for seconds, _, _ in repeats)
        runs[engine] = repeats[-1]

    _, loop_swaps, loop = runs["loop"]
    _, vector_swaps, vector = runs["vector"]
    assert vector_swaps == loop_swaps
    for name in ("phat", "delta", "selected"):
        assert getattr(vector, name).tobytes() == getattr(loop, name).tobytes(), (
            f"E-phase {name} differs between loop and vector"
        )
    assert float(vector.total_residual).hex() == float(loop.total_residual).hex()

    speedup = timings["loop"] / timings["vector"]
    table = ResultTable(
        title=(
            f"EMD E-phase — one swap pass, {len(backbone)} backbone edges of "
            f"{bench_graph.number_of_edges()} (alpha={ALPHA:.0%})"
        ),
        headers=["engine", "seconds", "speedup", "swaps"],
        notes=(
            "phat, delta, selected, total_residual and swaps identical "
            "(gated); min of 3 repetitions"
        ),
    )
    table.add_row("loop", timings["loop"], 1.0, loop_swaps)
    table.add_row("vector", timings["vector"], speedup, vector_swaps)
    emit("bench_sparsifier_emd_e_phase", table)
    sections["emd_e_phase"] = {
        "loop_s": timings["loop"],
        "vector_s": timings["vector"],
        "speedup": speedup,
        "swaps": loop_swaps,
    }
    emit_json("sparsifier_engine", sections)

    if (os.cpu_count() or 1) < 2:
        pytest.skip(
            f"single-core machine — equality checked, speedup gate skipped "
            f"(measured {speedup:.2f}x)"
        )
    assert speedup >= MIN_LAZY_SPEEDUP, (
        f"vector E-phase only {speedup:.2f}x faster (need >= {MIN_LAZY_SPEEDUP}x)"
    )


def test_bench_emd_m_phase(bench_graph, backbone, emit, emit_json, sections):
    """EMD's M-phase, ``gdb_refine`` on a sequential plan, vs the scalar
    reference loop from the same seeded backbone.

    Both run the same edge-id-order sweeps and stopping rule, so
    equality always gates exactly on the state they leave behind and on
    the sweep count.
    """
    emd_config = EMDConfig()
    config = GDBConfig(
        h=emd_config.h, tau=emd_config.tau,
        max_sweeps=emd_config.gdb_max_sweeps, k=1,
        relative=emd_config.relative,
    )
    refines = {
        "loop": loop_refine,
        "vector": lambda state, config: gdb_refine(
            state, config, plan=build_sweep_plan(state, sequential_only=True)
        ),
    }
    timings = {}
    runs = {}
    for engine, refine in refines.items():
        state = seeded_state(bench_graph, backbone)
        start = time.perf_counter()
        sweeps = refine(state, config)
        timings[engine] = time.perf_counter() - start
        state.verify()
        runs[engine] = (sweeps, state)

    loop_sweeps, loop = runs["loop"]
    vector_sweeps, vector = runs["vector"]
    assert vector_sweeps == loop_sweeps
    for name in ("phat", "delta"):
        assert getattr(vector, name).tobytes() == getattr(loop, name).tobytes(), (
            f"M-phase {name} differs between loop and vector"
        )
    assert float(vector.total_residual).hex() == float(loop.total_residual).hex()

    speedup = timings["loop"] / timings["vector"]
    table = ResultTable(
        title=(
            f"EMD M-phase — gdb_refine on a sequential plan, {len(backbone)} "
            f"backbone edges of {bench_graph.number_of_edges()} "
            f"(alpha={ALPHA:.0%})"
        ),
        headers=["engine", "seconds", "speedup", "sweeps"],
        notes="phat, delta, total_residual and sweep count identical (gated)",
    )
    table.add_row("loop", timings["loop"], 1.0, loop_sweeps)
    table.add_row("vector", timings["vector"], speedup, vector_sweeps)
    emit("bench_sparsifier_emd_m_phase", table)
    sections["emd_m_phase"] = {
        "loop_s": timings["loop"],
        "vector_s": timings["vector"],
        "speedup": speedup,
        "sweeps": loop_sweeps,
    }
    emit_json("sparsifier_engine", sections)
