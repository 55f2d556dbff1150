"""Synthetic uncertain-graph generators (paper section 6, Table 1).

The paper's datasets are proprietary snapshots (Flickr, Twitter); this
module builds laptop-scale proxies that preserve the two properties the
evaluation turns on — degree skew and the edge-probability level — plus
the paper's own synthetic density-sweep construction.  See DESIGN.md's
substitution note.

Generators
----------
- :func:`flickr_like` — dense power-law topology, E[p] ≈ 0.09,
- :func:`twitter_like` — sparser power-law topology, E[p] ≈ 0.15,
- :func:`erdos_renyi_uncertain`, :func:`barabasi_albert_uncertain` —
  building blocks,
- :func:`densify` — the paper's synthetic construction: add uniform
  random edges to an induced subgraph until a density target,
- :func:`grid_uncertain` — a mesh "router network" for the examples,
- :func:`figure1_graph` / :func:`figure1_sparsified` — the paper's
  introductory example (Pr[connected] = 0.219 vs 0.216).
"""

from __future__ import annotations

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from repro.utils.rng import ensure_rng


def beta_probability_sampler(p_mean: float, rng: np.random.Generator):
    """Sampler of edge probabilities with mean ``p_mean``.

    ``Beta(1, (1 - p) / p)`` — an exponential-shaped distribution on
    (0, 1] whose mean is ``p_mean``, mimicking the heavy-tailed-low
    probabilities of similarity-derived social edges.  Values are
    floored at 1e-3 (probabilities must be positive).
    """
    if not (0.0 < p_mean < 1.0):
        raise ValueError(f"p_mean must be in (0, 1), got {p_mean}")
    b = (1.0 - p_mean) / p_mean

    def draw(count: int) -> np.ndarray:
        return np.clip(rng.beta(1.0, b, size=count), 1e-3, 1.0)

    return draw


def erdos_renyi_uncertain(
    n: int,
    avg_degree: float,
    p_mean: float = 0.1,
    rng: "int | np.random.Generator | None" = None,
    name: str = "",
) -> UncertainGraph:
    """G(n, m) random topology with Beta probabilities."""
    rng = ensure_rng(rng)
    m_target = int(round(n * avg_degree / 2))
    max_edges = n * (n - 1) // 2
    m_target = min(m_target, max_edges)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m_target:
        need = m_target - len(chosen)
        u = rng.integers(0, n, size=2 * need + 8)
        v = rng.integers(0, n, size=2 * need + 8)
        for a, b in zip(u, v):
            if a == b:
                continue
            key = (min(int(a), int(b)), max(int(a), int(b)))
            chosen.add(key)
            if len(chosen) >= m_target:
                break
    draw = beta_probability_sampler(p_mean, rng)
    probs = draw(len(chosen))
    return UncertainGraph.from_edge_arrays(
        list(range(n)), np.array(sorted(chosen), dtype=np.int64).reshape(-1, 2),
        probs, name=name or f"er(n={n})",
    )


def barabasi_albert_uncertain(
    n: int,
    attach: int,
    p_mean: float = 0.1,
    rng: "int | np.random.Generator | None" = None,
    name: str = "",
) -> UncertainGraph:
    """Preferential-attachment (power-law degree) topology.

    Each arriving vertex attaches to ``attach`` distinct existing
    vertices chosen proportionally to degree (repeated-endpoint list
    trick), giving average degree ~``2 * attach``.
    """
    if attach < 1:
        raise ValueError(f"attach must be >= 1, got {attach}")
    if n <= attach:
        raise ValueError(f"need n > attach, got n={n}, attach={attach}")
    rng = ensure_rng(rng)
    edges: list[tuple[int, int]] = []
    # Seed: a small clique over the first attach+1 vertices.
    seed_size = attach + 1
    repeated: list[int] = []
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            edges.append((u, v))
            repeated.extend((u, v))
    for new in range(seed_size, n):
        targets: set[int] = set()
        while len(targets) < attach:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            targets.add(pick)
        for t in targets:
            edges.append((min(new, t), max(new, t)))
            repeated.extend((new, t))
    draw = beta_probability_sampler(p_mean, rng)
    probs = draw(len(edges))
    return UncertainGraph.from_edge_arrays(
        list(range(n)), np.array(edges, dtype=np.int64).reshape(-1, 2), probs,
        name=name or f"ba(n={n})",
    )


def flickr_like(
    n: int = 800,
    avg_degree: int = 24,
    p_mean: float = 0.09,
    seed: "int | np.random.Generator | None" = None,
) -> UncertainGraph:
    """Flickr proxy: dense power-law graph with low-mean probabilities.

    The real Flickr has |E|/|V| ≈ 130 and E[p] = 0.09; the proxy keeps
    the probability level and degree skew at a laptop-friendly density
    (|E|/|V| ≈ 12 by default — scale ``avg_degree`` up to stress-test).
    """
    return barabasi_albert_uncertain(
        n, attach=max(avg_degree // 2, 1), p_mean=p_mean, rng=seed,
        name=f"flickr_like(n={n})",
    )


def twitter_like(
    n: int = 800,
    avg_degree: int = 8,
    p_mean: float = 0.15,
    seed: "int | np.random.Generator | None" = None,
) -> UncertainGraph:
    """Twitter proxy: sparser power-law graph, higher-mean probabilities."""
    return barabasi_albert_uncertain(
        n, attach=max(avg_degree // 2, 1), p_mean=p_mean, rng=seed,
        name=f"twitter_like(n={n})",
    )


def densify(
    graph: UncertainGraph,
    density: float,
    p_mean: float = 0.09,
    rng: "int | np.random.Generator | None" = None,
    name: str = "",
) -> UncertainGraph:
    """The paper's synthetic construction: random edges up to a density.

    Adds uniformly random non-edges (probabilities drawn from the same
    Beta family) until ``|E| = density * n(n-1)/2``.  ``density`` is a
    fraction of the complete graph in (0, 1].  The drawn edges are
    spliced in once, in draw order, by the graph's insert rule (each
    right after the edges of its lower endpoint; see
    :mod:`repro.core.uncertain_graph`).
    """
    if not (0.0 < density <= 1.0):
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = ensure_rng(rng)
    out, _ = graph.relabel_to_integers()
    n = out.number_of_vertices()
    max_edges = n * (n - 1) // 2
    target = int(round(density * max_edges))
    if target < out.number_of_edges():
        raise ValueError(
            f"density target {target} below current edge count "
            f"{out.number_of_edges()}"
        )
    draw = beta_probability_sampler(p_mean, rng)
    m = out.number_of_edges()
    drawn: dict = {}  # new (lower, higher) pairs in draw order
    while m + len(drawn) < target:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        pair = (u, v) if u < v else (v, u)
        if u == v or pair in drawn or out.has_edge(u, v):
            continue
        drawn[pair] = float(draw(1)[0])
    out._splice(
        out.probability_array(), np.ones(m, dtype=bool),
        np.array(list(drawn), dtype=np.int64).reshape(-1, 2),
        np.array(list(drawn.values()), dtype=np.float64),
    )
    out.name = name or f"densified({density:.0%})"
    return out


def forest_fire_like_arrays(
    n: int,
    avg_degree: float = 20.0,
    p_mean: float = 0.2,
    gamma: float = 2.0,
    rng: "int | np.random.Generator | None" = None,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Array-native forest-fire-style generator: ``(n, src, dst, prob)``.

    The scale path for the out-of-core benchmarks: a 10M+ edge graph is
    produced as three dense arrays in O(m) vectorised work, with no
    per-edge Python loop.  Growth model (forest-fire flavoured):
    vertices arrive in id order and each new vertex ``u`` links to
    earlier vertices ``floor(u * r^gamma)`` with ``r ~ U[0, 1)`` — the
    ``gamma``-biased copy step concentrates endpoints on early vertices,
    giving the heavy-tailed degree profile of forest-fire/preferential
    growth.  The first ``n - 1`` draws give every vertex one link to an
    earlier vertex, so the support graph is connected by construction;
    further draws densify to ``avg_degree``.  Probabilities follow the
    ``Beta(1, (1 - p) / p)`` distribution of
    :func:`beta_probability_sampler`.

    Returns edges in canonical order (``src < dst`` rows sorted
    lexicographically), which :meth:`UncertainGraph.from_edge_arrays`
    keeps as given, and deterministically for a fixed seed regardless of
    how many top-up rounds the dedup loop needs.  Feed the arrays to
    :func:`repro.datasets.binary_io.write_binary_arrays` or to
    :meth:`UncertainGraph.from_edge_arrays`.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    rng = ensure_rng(rng)
    m_target = max(n - 1, int(round(n * avg_degree / 2)))
    draw_p = beta_probability_sampler(p_mean, rng)

    def attach(hi: np.ndarray) -> np.ndarray:
        """Biased earlier-vertex endpoints: ``floor(hi * r^gamma) < hi``."""
        r = rng.random(len(hi))
        return (hi * (r ** gamma)).astype(np.int64)

    # Connectivity spine: one parent link per arriving vertex.
    hi = np.arange(1, n, dtype=np.int64)
    lo = attach(hi)
    keys = hi * np.int64(n) + lo
    seen, order = np.unique(keys, return_index=True)
    # Keep first occurrences in draw order (np.unique sorts by key).
    kept = keys[np.sort(order)]
    while len(kept) < m_target:
        want = m_target - len(kept)
        batch = max(int(want * 1.3) + 16, 1024)
        hi = rng.integers(1, n, size=batch, dtype=np.int64)
        lo = attach(hi)
        keys = hi * np.int64(n) + lo
        fresh_mask = ~np.isin(keys, seen, assume_unique=False)
        fresh = keys[fresh_mask]
        _, first = np.unique(fresh, return_index=True)
        fresh = fresh[np.sort(first)][:want]
        if len(fresh):
            kept = np.concatenate([kept, fresh])
            seen = np.union1d(seen, fresh)
    hi = kept // n
    lo = kept % n
    # Canonical rows: src < dst, sorted lexicographically by (src, dst).
    src = lo
    dst = hi
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    prob = draw_p(len(src))
    return n, src, dst, prob


def grid_uncertain(
    rows: int,
    cols: int,
    p_mean: float = 0.9,
    rng: "int | np.random.Generator | None" = None,
    name: str = "",
) -> UncertainGraph:
    """Mesh topology (router-network example): 4-neighbour grid.

    Edge probabilities model link reliabilities, drawn uniformly in
    ``[2 p_mean - 1, 1]`` when ``p_mean > 0.5`` (else Beta).
    """
    rng = ensure_rng(rng)

    def vertex(r: int, c: int) -> int:
        return r * cols + c

    def draw() -> float:
        if p_mean > 0.5:
            low = 2 * p_mean - 1
            return float(rng.uniform(low, 1.0))
        return float(np.clip(rng.beta(1.0, (1 - p_mean) / p_mean), 1e-3, 1.0))

    edges = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                edges.append((vertex(r, c), vertex(r + 1, c), draw()))
            if c + 1 < cols:
                edges.append((vertex(r, c), vertex(r, c + 1), draw()))
    # Every cell but the first is first touched by an edge of an earlier
    # cell, so only vertex 0 needs registering (a 1x1 grid has no edges).
    return UncertainGraph(
        edges, vertices=[0] if rows > 0 and cols > 0 else None,
        name=name or f"grid({rows}x{cols})",
    )


def figure1_graph() -> UncertainGraph:
    """The paper's Fig. 1(a): K4 with every edge at probability 0.3.

    Exact Pr[connected] = 0.219 (reproduced by
    :func:`repro.sampling.exact.exact_connectivity_probability`).
    """
    vertices = ["u1", "u2", "u3", "u4"]
    return UncertainGraph(
        [(u, v, 0.3) for i, u in enumerate(vertices) for v in vertices[i + 1:]],
        vertices=vertices, name="figure1a",
    )


def figure1_sparsified() -> UncertainGraph:
    """The paper's Fig. 1(b): a 3-edge spanning tree at probability 0.6.

    Exact Pr[connected] = 0.6^3 = 0.216.
    """
    return UncertainGraph(
        [("u1", "u2", 0.6), ("u2", "u4", 0.6), ("u4", "u3", 0.6)],
        name="figure1b",
    )
