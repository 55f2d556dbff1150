"""Quickstart: sparsify an uncertain graph and query it.

Builds a Twitter-style uncertain social graph, sparsifies it to 30% of
its edges with the paper's best variant (EMD^R-t), and shows that

- expected vertex degrees are preserved (tiny MAE),
- entropy drops (fewer Monte-Carlo samples needed),
- a reliability query is approximated on the sparse graph while
  sampling ~3x fewer edges per world.

Run:  python examples/quickstart.py
"""

from repro import datasets, graph_entropy, sparsify
from repro.metrics import degree_discrepancy_mae, relative_entropy
from repro.queries import ReliabilityQuery, sample_vertex_pairs
from repro.sampling import MonteCarloEstimator


def main() -> None:
    graph = datasets.twitter_like(n=300, avg_degree=16, seed=7)
    print(f"original:   {graph}")
    print(f"entropy:    {graph_entropy(graph):.1f} bits")

    # Sweeping several sparsification ratios: the graph's backbone plan
    # is built on the first call, so a single Kruskal pass serves every
    # alpha (results are identical to per-alpha construction under the
    # same seed).
    for alpha in (0.2, 0.3, 0.5):
        ladder = sparsify(graph, alpha, variant="GDB^A-t", rng=7)
        print(f"alpha={alpha:.0%}: degree MAE "
              f"{degree_discrepancy_mae(graph, ladder):.4f}")

    sparse = sparsify(graph, alpha=0.3, variant="EMD^R-t", rng=7)
    print(f"\nsparsified: {sparse}")
    print(f"entropy:    {graph_entropy(sparse):.1f} bits "
          f"({relative_entropy(sparse, graph):.0%} of original)")
    print(f"degree MAE: {degree_discrepancy_mae(graph, sparse):.4f}")

    # Answer the same reliability query on both graphs.
    pairs = sample_vertex_pairs(graph, 25, rng=1)
    query = ReliabilityQuery(pairs)
    original_estimate = MonteCarloEstimator(graph, n_samples=300).run(
        query, rng=2
    ).scalar_estimate()
    sparse_estimate = MonteCarloEstimator(sparse, n_samples=300).run(
        query, rng=2
    ).scalar_estimate()
    print(f"\nmean reliability over {len(pairs)} pairs:")
    print(f"  original graph:   {original_estimate:.4f}")
    print(f"  sparsified graph: {sparse_estimate:.4f}")
    print(f"  absolute error:   {abs(original_estimate - sparse_estimate):.4f}")


if __name__ == "__main__":
    main()
