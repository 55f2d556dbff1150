"""Micro-scale smoke tests for every experiment module.

The benchmarks exercise these at `tiny` scale with shape assertions;
here a *micro* scale (the smallest feasible proxies, 2 alphas, minimal
MC budgets) checks that each run function returns well-formed tables —
fast enough for the unit suite.
"""

import dataclasses
import math

import pytest

from repro.experiments import (
    ExperimentScale,
    run_fig04a,
    run_fig04b,
    run_fig06,
    run_fig07,
    run_fig08,
    run_fig09,
    run_fig09_estimation,
    run_fig10,
    run_fig11,
    run_fig12,
    run_sample_budget,
)

MICRO = ExperimentScale(
    name="micro",
    flickr_n=40, flickr_avg_degree=30, twitter_n=40, twitter_avg_degree=26,
    reduced_n=30, mc_samples=10, query_pairs=8, variance_runs=3,
    variance_samples=10, cut_samples_per_k=5, density_base_n=90,
    alphas=(0.2, 0.5),
)


def assert_table_ok(table, rows=None):
    assert table.rows, table.title
    if rows is not None:
        assert len(table.rows) == rows
    for row in table.rows:
        assert len(row) == len(table.headers)
        for value in row[1:]:
            assert not (isinstance(value, float) and math.isnan(value)), table.title


def test_fig04(capsys):
    assert_table_ok(run_fig04a(MICRO))
    timing = run_fig04b(MICRO)
    assert_table_ok(timing, rows=3)
    assert all(v >= 0 for row in timing.rows for v in row[1:])


def test_fig05_engines_agree():
    """fig05 rides the grid driver; every cell agrees with the scalar
    reference loop run on the cell's backbone (GDB-only, so values agree
    within the converged-D1 contract's tolerances)."""
    from oracles.gdb import loop_refine
    from repro.core import GDBConfig, SparsificationState
    from repro.core.backbone import BackbonePlan
    from repro.experiments import run_fig05
    from repro.experiments.common import make_flickr_reduced
    from repro.metrics import degree_discrepancy_mae, relative_entropy

    h_values = (0.0, 1.0)
    mae, entropy = run_fig05(MICRO, h_values=h_values)
    for table in (mae, entropy):
        assert_table_ok(table, rows=2)
    graph = make_flickr_reduced(MICRO, seed=19)
    plan = BackbonePlan(graph)
    for row, (mae_row, entropy_row) in enumerate(zip(mae.rows, entropy.rows)):
        h = h_values[row]
        assert mae_row[0] == entropy_row[0] == h
        for column, alpha in enumerate(MICRO.alphas, start=1):
            state = SparsificationState(graph)
            state.select_edges(plan.backbone(alpha, rng=19))
            loop_refine(state, GDBConfig(h=h))
            loop = state.build_graph()
            assert mae_row[column] == pytest.approx(
                degree_discrepancy_mae(graph, loop), rel=0.05, abs=1e-3
            )
            assert entropy_row[column] == pytest.approx(
                relative_entropy(loop, graph), rel=0.05, abs=1e-3
            )


def test_fig06():
    results = run_fig06(MICRO)
    assert set(results) == {"flickr", "twitter"}
    for degree, cuts in results.values():
        assert_table_ok(degree, rows=4)
        assert_table_ok(cuts, rows=4)


def test_fig07_and_fig08():
    degree, cuts = run_fig07(MICRO)
    assert_table_ok(degree, rows=4)
    assert_table_ok(cuts, rows=4)
    entropy = run_fig08(MICRO)
    assert set(entropy) == {"flickr", "twitter", "density"}
    for table in entropy.values():
        assert_table_ok(table, rows=4)
        for row in table.rows:
            assert all(0.0 <= v <= 1.0 for v in row[1:])


def test_fig09():
    results = run_fig09(MICRO)
    for table in results.values():
        assert_table_ok(table, rows=3)


def test_fig09_estimation():
    results = run_fig09_estimation(MICRO)
    for table in results.values():
        assert_table_ok(table, rows=3)
        assert table.column("query") == ["SP", "WSP", "RL"]
        assert all(s >= 0 for s in table.column("seconds"))


def test_fig10_single_query():
    results = run_fig10(MICRO, query_names=("RL",))
    for tables in results.values():
        assert set(tables) == {"RL"}
        assert_table_ok(tables["RL"], rows=4)


def test_fig10_weighted_query():
    results = run_fig10(MICRO, query_names=("WSP",))
    for tables in results.values():
        assert set(tables) == {"WSP"}
        assert_table_ok(tables["WSP"], rows=4)


def test_fig11_single_query():
    tables = run_fig11(MICRO, query_names=("PR",))
    assert set(tables) == {"PR"}
    assert_table_ok(tables["PR"], rows=4)


def test_fig11_weighted_query():
    # Sparse density rungs can disconnect a pair in every sampled world
    # at micro scale (an all-nan unit for SP and WSP alike), so sweep
    # only the dense rungs here.
    dense = dataclasses.replace(MICRO, densities=(0.5, 0.9))
    tables = run_fig11(dense, query_names=("WSP",))
    assert set(tables) == {"WSP"}
    assert_table_ok(tables["WSP"], rows=4)


def test_fig12_single_query():
    results = run_fig12(MICRO, query_names=("RL",), alphas=(0.2,))
    for tables in results.values():
        table = tables["RL"]
        assert table.rows
        for row in table.rows:
            value = row[1]
            assert value >= 0 or math.isinf(value)


def test_sample_budget():
    table = run_sample_budget(MICRO, max_samples=200)
    assert_table_ok(table, rows=5)
    assert table.cell("original", "vs_original") == 1.0
