"""The per-edge generator loops, replayed on the dict-of-dicts graph.

``grid_uncertain``, ``figure1_graph``, ``figure1_sparsified`` and
``densify`` used to build their graphs one ``add_vertex``/``add_edge``
call at a time.  The library versions in
:mod:`repro.datasets.synthetic` collect their edges and build once;
``tests/test_datasets.py`` pins them to these loops (same labels, edge
order, neighbour order and probability bytes).

:func:`densify_rows` states the insert rule on a plain list of rows, for
graphs the dict graph cannot hold: one opened from a binary file keeps
its rows in stored order and orientation.
"""

from __future__ import annotations

import numpy as np

from oracles.graph import UncertainGraph
from repro.datasets.synthetic import beta_probability_sampler
from repro.utils.rng import ensure_rng


def grid_uncertain_scalar(rows, cols, p_mean=0.9, rng=None, name=""):
    rng = ensure_rng(rng)
    graph = UncertainGraph(name=name or f"grid({rows}x{cols})")

    def vertex(r: int, c: int) -> int:
        return r * cols + c

    def draw() -> float:
        if p_mean > 0.5:
            low = 2 * p_mean - 1
            return float(rng.uniform(low, 1.0))
        return float(np.clip(rng.beta(1.0, (1 - p_mean) / p_mean), 1e-3, 1.0))

    for r in range(rows):
        for c in range(cols):
            graph.add_vertex(vertex(r, c))
            if r + 1 < rows:
                graph.add_edge(vertex(r, c), vertex(r + 1, c), draw())
            if c + 1 < cols:
                graph.add_edge(vertex(r, c), vertex(r, c + 1), draw())
    return graph


def figure1_graph_scalar():
    vertices = ["u1", "u2", "u3", "u4"]
    graph = UncertainGraph(vertices=vertices, name="figure1a")
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            graph.add_edge(u, v, 0.3)
    return graph


def figure1_sparsified_scalar():
    graph = UncertainGraph(name="figure1b")
    for u, v in (("u1", "u2"), ("u2", "u4"), ("u4", "u3")):
        graph.add_edge(u, v, 0.6)
    return graph


def _draws(n, missing, taken, p_mean, rng):
    """The draw loop: ``(u, v, p)`` of each accepted non-edge."""
    draw = beta_probability_sampler(p_mean, rng)
    while missing > 0:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v or taken(u, v):
            continue
        yield u, v, float(draw(1)[0])
        missing -= 1


def densify_scalar(graph, density, p_mean=0.09, rng=None, name=""):
    """``densify`` on a dict graph: relabel, then ``add_edge`` per draw."""
    rng = ensure_rng(rng)
    out, _ = graph.relabel_to_integers()
    n = out.number_of_vertices()
    target = int(round(density * (n * (n - 1) // 2)))
    for u, v, p in _draws(n, target - out.number_of_edges(), out.has_edge,
                          p_mean, rng):
        out.add_edge(u, v, p)
    out.name = name or f"densified({density:.0%})"
    return out


def densify_rows(graph, density, p_mean=0.09, rng=None):
    """``densify``'s rows, probabilities and ranks, inserting each drawn
    edge right after the last row whose lower endpoint is at most its
    own (rows as the graph stores them, rank = row position)."""
    rng = ensure_rng(rng)
    rows = graph.edge_index_array().tolist()
    probs = graph.probability_array().tolist()
    ranks = list(range(len(rows)))
    n = graph.number_of_vertices()
    taken = {(min(row), max(row)) for row in rows}
    target = int(round(density * (n * (n - 1) // 2)))

    def is_taken(u, v):
        return (min(u, v), max(u, v)) in taken

    for u, v, p in _draws(n, target - len(rows), is_taken, p_mean, rng):
        lo, hi = min(u, v), max(u, v)
        at = max((i + 1 for i, row in enumerate(rows) if min(row) <= lo),
                 default=0)
        rows.insert(at, [lo, hi])
        probs.insert(at, p)
        ranks.insert(at, len(ranks))
        taken.add((lo, hi))
    return rows, probs, ranks
