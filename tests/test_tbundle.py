"""t-bundle backbone (footnote 8 / Koutis [21])."""

import hashlib

import numpy as np
import pytest

from repro.core import UncertainGraph
from repro.core.backbone import build_backbone, target_edge_count
from repro.datasets import erdos_renyi_uncertain, flickr_like, twitter_like


@pytest.fixture
def dense_graph():
    return flickr_like(n=60, avg_degree=20, seed=8)


def test_budget_met(dense_graph):
    ids = build_backbone(dense_graph, 0.4, method="t_bundle", rng=0)
    assert len(ids) == target_edge_count(dense_graph.number_of_edges(), 0.4)
    assert len(set(ids)) == len(ids)


def test_valid_edge_ids(dense_graph):
    m = dense_graph.number_of_edges()
    ids = build_backbone(dense_graph, 0.4, method="t_bundle", rng=0)
    assert all(0 <= e < m for e in ids)


def test_first_layer_preserves_connectivity(dense_graph):
    """If one full spanner layer fits, the backbone is connected."""
    ids = build_backbone(dense_graph, 0.6, method="t_bundle", rng=0)
    edge_list = dense_graph.edge_list()
    probs = dense_graph.probability_array()
    backbone = dense_graph.subgraph_with_edges(
        (edge_list[e][0], edge_list[e][1], float(probs[e])) for e in ids
    )
    assert backbone.is_connected()


def test_small_budget_truncates_layer(dense_graph):
    """Budget below one spanner layer: lightest edges kept, budget exact."""
    tiny_alpha = (dense_graph.number_of_vertices() - 1) / (
        dense_graph.number_of_edges()
    ) * 1.05
    ids = build_backbone(dense_graph, tiny_alpha, method="t_bundle", rng=0)
    assert len(ids) == target_edge_count(
        dense_graph.number_of_edges(), tiny_alpha
    )


def test_dispatch_through_build_backbone(dense_graph):
    ids = build_backbone(dense_graph, 0.4, method="t_bundle", rng=1)
    assert len(ids) == target_edge_count(dense_graph.number_of_edges(), 0.4)


def test_stretch_parameter(dense_graph):
    narrow = build_backbone(dense_graph, 0.5, method="t_bundle", rng=0, stretch=2)
    wide = build_backbone(dense_graph, 0.5, method="t_bundle", rng=0, stretch=4)
    assert len(narrow) == len(wide)  # same budget either way


#: Graphs whose first spanner layer holds 60-99% of the edges, so the
#: pinned alphas cover a first layer overflowing the budget (0.1, 0.3:
#: its lightest edges are kept), a later layer overflowing it (0.8, and
#: 0.95 at stretch 3 after two layers fit) and the MC top-up after it.
DIGEST_GRAPHS = {
    "flickr": lambda: flickr_like(n=120, avg_degree=40, seed=8),
    "twitter": lambda: twitter_like(n=150, avg_degree=12, seed=6),
    "er": lambda: erdos_renyi_uncertain(80, 24, p_mean=0.3, rng=3),
    # Every weight ties: an overflowing layer keeps its smallest ids.
    "tied": lambda: UncertainGraph(
        [(u, v, 0.5) for u, v in
         flickr_like(n=120, avg_degree=40, seed=8).edge_list()]
    ),
}

#: First 16 hex digits of the sha256 over the ids for seeds 0, 1, 2 and
#: for a ``default_rng(7)`` generator followed by that generator's next
#: draw, per ``(graph, stretch, alpha)``.  Recorded with the scalar
#: set-based top-up (``oracles.backbone._mc_top_up``).
SCALAR_TOP_UP_DIGESTS = {
    ("flickr", 2, 0.1): "dea17295df37c066",
    ("flickr", 2, 0.3): "db31ac644b436b26",
    ("flickr", 2, 0.8): "2e0a20c57c32b4fe",
    ("flickr", 2, 0.95): "dff41c1496117581",
    ("flickr", 3, 0.1): "85c982cd4101ec3b",
    ("flickr", 3, 0.3): "e920b48def50fa94",
    ("flickr", 3, 0.8): "49d99ff83c08ba75",
    ("flickr", 3, 0.95): "6831aa69a81bb688",
    ("twitter", 2, 0.1): "9b89f180b568d8b5",
    ("twitter", 2, 0.3): "02f7ac8fa5dfeff9",
    ("twitter", 2, 0.8): "a3c3dbb68fdbf6e8",
    ("twitter", 3, 0.1): "5e7ce62dfdb068e5",
    ("twitter", 3, 0.3): "e34b480729d83fac",
    ("twitter", 3, 0.8): "3ef47e639fc7df69",
    ("er", 2, 0.1): "7ffab43ccfb3d107",
    ("er", 2, 0.3): "a81d4c9df4368885",
    ("er", 2, 0.8): "3bc3e628e6c4291d",
    ("er", 2, 0.95): "759a848a13d31b27",
    ("er", 3, 0.1): "70fd6fe4c768ec4d",
    ("er", 3, 0.3): "618c72bd08247504",
    ("er", 3, 0.8): "c997974b88f1c19c",
    ("er", 3, 0.95): "f99bd97ce97f61be",
    ("tied", 2, 0.1): "449ec859328213da",
    ("tied", 2, 0.3): "bebcb7c8184081f3",
    ("tied", 2, 0.8): "cf16eac256fe2e8e",
    ("tied", 2, 0.95): "2cf4f9e7bb0d1efd",
    ("tied", 3, 0.1): "fef53d4d96df9989",
    ("tied", 3, 0.3): "51b5f3c853d2aae1",
    ("tied", 3, 0.8): "806ae01febd76f9e",
}

#: Where the top-up draws over ascending ids and the scalar top-up did
#: not: its ``set`` of remaining ids, shrunk by a layer holding more
#: than three quarters of the edges, was re-hashed by CPython into a
#: table smaller than the largest id, so it iterated out of id order
#: for some of the seeds here.  Both orders are uniform permutation
#: draws; only the ascending one is a function of the ids alone.
ASCENDING_TOP_UP_DIGESTS = {
    ("twitter", 2, 0.95): "ed3ec0ecf6169b3c",
    ("twitter", 3, 0.95): "07cebf07c4cabe62",
    ("tied", 3, 0.95): "e1c94d38b02f1d15",
}


@pytest.fixture(scope="module")
def digest_graphs():
    return {name: make() for name, make in DIGEST_GRAPHS.items()}


@pytest.mark.parametrize(
    "case", sorted({**SCALAR_TOP_UP_DIGESTS, **ASCENDING_TOP_UP_DIGESTS}),
    ids=lambda case: "-".join(map(str, case)),
)
def test_pinned_ids(digest_graphs, case):
    name, stretch, alpha = case
    graph = digest_graphs[name]
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        ids = build_backbone(graph, alpha, method="t_bundle", rng=seed,
                             stretch=stretch)
        h.update(np.asarray(ids, dtype="<i8").tobytes())
    gen = np.random.default_rng(7)
    ids = build_backbone(graph, alpha, method="t_bundle", rng=gen,
                         stretch=stretch)
    h.update(np.asarray(ids, dtype="<i8").tobytes())
    h.update(np.int64(gen.integers(2**62)).tobytes())
    expected = {**SCALAR_TOP_UP_DIGESTS, **ASCENDING_TOP_UP_DIGESTS}[case]
    assert h.hexdigest()[:16] == expected
