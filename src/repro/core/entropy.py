"""Entropy of uncertain graphs (paper section 1, footnote 2).

Because edges are independent, the entropy of an uncertain graph is the
sum of the binary entropies of its edges::

    H(G) = sum_e [ -p_e log2 p_e - (1 - p_e) log2 (1 - p_e) ]

The paper uses log base 2; its worked example (Fig. 2(a): edges with
probabilities {0.4, 0.2, 0.4, 0.2, 0.1} give "entropy 3.85") matches
``sum H2 = 3.855`` bits, which the tests pin down.

Entropy drives the paper's variance argument: a lower-entropy sparsified
graph needs fewer Monte-Carlo samples for the same confidence width.
"""

from __future__ import annotations

import numpy as np

from repro.core.uncertain_graph import UncertainGraph


def edge_entropy(p: float) -> float:
    """Binary entropy (bits) of an edge with existence probability ``p``.

    Defined as 0 at the deterministic endpoints ``p in {0, 1}``.
    """
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def entropy_array(probabilities: np.ndarray) -> np.ndarray:
    """Vectorised binary entropy (bits) with 0 at the endpoints."""
    p = np.asarray(probabilities, dtype=np.float64)
    out = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    q = p[interior]
    out[interior] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return out


def entropy_increases(current, proposed):
    """Whether moving an edge from ``current`` to ``proposed`` raises entropy.

    Exact closed form of ``edge_entropy(proposed) > edge_entropy(current)``:
    binary entropy is strictly decreasing in the distance from ``0.5``,
    so ``H(p') > H(p)  <=>  |p' - 0.5| < |p - 0.5|``.  Works on scalars
    and arrays alike, and — unlike the log-based comparison — costs no
    transcendental calls, which is what makes the sweeps' guard
    vectorisable (GDB Algorithm 2 line 10, EMD Eq. 9).
    """
    return np.abs(np.asarray(proposed) - 0.5) < np.abs(np.asarray(current) - 0.5)


def graph_entropy(graph: UncertainGraph) -> float:
    """Total entropy ``H(G)`` in bits."""
    return float(entropy_array(graph.probability_array()).sum())


def relative_entropy(sparsified: UncertainGraph, original: UncertainGraph) -> float:
    """Entropy ratio ``H(G') / H(G)`` (the y-axis of the paper's Fig. 8).

    Returns 0 when the original graph is deterministic (zero entropy),
    in which case any subgraph is deterministic too.
    """
    h_original = graph_entropy(original)
    if h_original == 0.0:
        return 0.0
    return graph_entropy(sparsified) / h_original
