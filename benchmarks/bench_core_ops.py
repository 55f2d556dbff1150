"""Micro-benchmarks of the core operations (true pytest-benchmark timing).

Not tied to a paper figure: these time the primitives the paper's cost
arguments rest on — O(|E|) world sampling, GDB sweeps, EMD E-phases, NI
forest peeling — so regressions in the hot paths are visible.
"""

import pytest

from repro.baselines import ni_sparsify
from repro.core import GDBConfig, gdb, sparsify
from repro.core.backbone import bgi_backbone
from repro.datasets import flickr_like
from repro.queries import PageRankQuery
from repro.sampling import MonteCarloEstimator, WorldSampler


@pytest.fixture(scope="module")
def graph():
    return flickr_like(n=150, avg_degree=30, seed=21)


def test_bench_world_sampling(benchmark, graph):
    sampler = WorldSampler(graph)
    import numpy as np

    rng = np.random.default_rng(0)
    benchmark(lambda: sampler.sample_mask_matrix(1, rng))


def test_bench_bgi_backbone(benchmark, graph):
    benchmark(lambda: bgi_backbone(graph, 0.3, rng=0))


def test_bench_gdb_sparsify(benchmark, graph):
    ids = bgi_backbone(graph, 0.3, rng=0)
    benchmark(lambda: gdb(graph, backbone_ids=list(ids), config=GDBConfig(max_sweeps=30)))


def test_bench_emd_sparsify(benchmark, graph):
    benchmark.pedantic(
        lambda: sparsify(graph, 0.3, variant="EMD^A-t", rng=0),
        rounds=1, iterations=1,
    )


def test_bench_ni_sparsify(benchmark, graph):
    benchmark.pedantic(lambda: ni_sparsify(graph, 0.3, rng=0), rounds=1, iterations=1)


def test_bench_pagerank_mc(benchmark, graph):
    estimator = MonteCarloEstimator(graph, n_samples=20)
    query = PageRankQuery(graph.number_of_vertices())
    benchmark.pedantic(lambda: estimator.run(query, rng=0), rounds=1, iterations=1)
