"""Command-line interface: sparsify edge-list files and inspect graphs.

Examples
--------
Sparsify a graph file to 30% of its edges with the paper's best variant::

    repro-sparsify sparsify graph.txt out.txt --alpha 0.3 --variant EMD^R-t

Sparsify a whole alpha ladder; GDB/EMD/LP/NI variants share the graph's
backbone plan across the ratios (a single Kruskal pass serves every
ratio; outputs are bit-identical to per-alpha runs under the same seed)::

    repro-sparsify sparsify graph.txt out-{alpha}.txt \
        --alpha 0.1,0.2,0.4 --variant GDB^A-t

Print structural statistics of a graph (entropy, degrees, density)::

    repro-sparsify info graph.txt

Compare a sparsified graph against its original::

    repro-sparsify compare graph.txt out.txt --cut-samples 30

Generate a synthetic uncertain graph / estimate a query by Monte-Carlo::

    repro-sparsify generate flickr graph.txt --n 500 --seed 7
    repro-sparsify estimate graph.txt --query reliability --samples 500

Convert between the text and binary dataset formats, then sweep an
``(alpha, h)`` grid over the memory-mapped binary dataset::

    repro-sparsify convert graph.txt graph.rpbg
    repro-sparsify grid graph.rpbg --alphas 0.2,0.4 --h-values 0.05,0.2 \
        --seed 7

Replay a seeded drift stream through the incremental maintainer,
comparing against a cold rebuild after every batch::

    repro-sparsify drift graph.txt --alpha 0.3 --batches 10 \
        --edge-fraction 0.05 --compare-rebuild
"""

from __future__ import annotations

import argparse
import sys

from repro.core import available_variants, graph_entropy, sparsify
from repro.datasets import read_edge_list, write_edge_list
from repro.exceptions import EstimationError, ReproError
from repro.metrics import (
    degree_discrepancy_mae,
    relative_entropy,
    sampled_cut_discrepancy_mae,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sparsify",
        description="Uncertain graph sparsification (Parchas et al.)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sparsify_cmd = sub.add_parser("sparsify", help="sparsify an edge-list file")
    sparsify_cmd.add_argument("input", help="input edge list (u v p per line)")
    sparsify_cmd.add_argument(
        "output",
        help="output edge list path; with several alphas it is a template "
        "that must contain '{alpha}' (e.g. out-{alpha}.txt)",
    )
    sparsify_cmd.add_argument(
        "--alpha", required=True,
        help="sparsification ratio in (0, 1); a comma-separated list "
        "(e.g. 0.1,0.2,0.4) sparsifies once per ratio",
    )
    sparsify_cmd.add_argument(
        "--variant", default="EMD^R-t",
        help=f"one of {', '.join(available_variants())} (default: EMD^R-t)",
    )
    sparsify_cmd.add_argument("--seed", type=int, default=None, help="RNG seed")
    sparsify_cmd.add_argument(
        "--h", type=float, default=0.05, dest="entropy_h",
        help="entropy parameter h in [0, 1] (default 0.05)",
    )

    info_cmd = sub.add_parser("info", help="print graph statistics")
    info_cmd.add_argument("input", help="edge list path")

    compare_cmd = sub.add_parser(
        "compare", help="structural comparison of two graphs"
    )
    compare_cmd.add_argument("original", help="original edge list")
    compare_cmd.add_argument("sparsified", help="sparsified edge list")
    compare_cmd.add_argument(
        "--cut-samples", type=int, default=30,
        help="sampled cuts per cardinality (default 30)",
    )
    compare_cmd.add_argument("--seed", type=int, default=0, help="RNG seed")

    variants_cmd = sub.add_parser("variants", help="list variant strings")
    del variants_cmd

    generate_cmd = sub.add_parser(
        "generate", help="write a synthetic uncertain graph"
    )
    generate_cmd.add_argument(
        "family", choices=["flickr", "twitter", "grid", "er"],
        help="generator family (see repro.datasets)",
    )
    generate_cmd.add_argument("output", help="output edge-list path")
    generate_cmd.add_argument("--n", type=int, default=300, help="vertex count")
    generate_cmd.add_argument(
        "--avg-degree", type=int, default=None,
        help="average degree (family default when omitted)",
    )
    generate_cmd.add_argument("--seed", type=int, default=None, help="RNG seed")

    estimate_cmd = sub.add_parser(
        "estimate", help="Monte-Carlo estimate of a query on a graph file"
    )
    estimate_cmd.add_argument("input", help="edge-list path")
    estimate_cmd.add_argument(
        "--query", choices=["reliability", "distance", "pagerank",
                            "clustering", "connectivity"],
        default="reliability",
    )
    estimate_cmd.add_argument(
        "--samples", type=int, default=300, help="number of sampled worlds"
    )
    estimate_cmd.add_argument(
        "--pairs", type=int, default=50,
        help="random vertex pairs for reliability/distance",
    )
    estimate_cmd.add_argument(
        "--weighted", action="store_true",
        help="with --query distance: most-probable-path distances on the "
        "-log p weight transform (batched delta-stepping kernel) instead "
        "of hop counts",
    )
    estimate_cmd.add_argument("--seed", type=int, default=0, help="RNG seed")
    estimate_cmd.add_argument(
        "--batch-size", type=int, default=None,
        help="worlds per batch chunk (default: auto-sized from memory)",
    )

    convert_cmd = sub.add_parser(
        "convert",
        help="convert a text dataset to binary, or a binary one to text",
    )
    convert_cmd.add_argument("input", help="input dataset (text or binary)")
    convert_cmd.add_argument("output", help="output dataset path")
    convert_cmd.add_argument(
        "--allow-relabel", action="store_true",
        help="permit text graphs whose vertices are not the dense ids "
        "0..n-1: labels are mapped to dense ids in first-seen order "
        "(lossy — the original labels are not stored in the binary file)",
    )

    grid_cmd = sub.add_parser(
        "grid", help="sweep GDB over an (alpha, h) grid"
    )
    grid_cmd.add_argument("input", help="input dataset (text or binary)")
    grid_cmd.add_argument(
        "--alphas", required=True,
        help="comma-separated sparsification ratios, e.g. 0.2,0.4",
    )
    grid_cmd.add_argument(
        "--h-values", required=True,
        help="comma-separated entropy parameters in [0, 1], e.g. 0.05,0.2",
    )
    grid_cmd.add_argument(
        "--seed", type=int, default=0, help="backbone RNG seed (default 0)",
    )
    grid_cmd.add_argument(
        "--relative", action="store_true",
        help="minimise relative instead of absolute discrepancy",
    )
    grid_cmd.add_argument(
        "--backbone-method", choices=["bgi", "random", "local_degree"],
        default="bgi", help="backbone construction method (default bgi)",
    )
    grid_cmd.add_argument(
        "--output", default=None,
        help="write the objective rows as JSON to this path instead of "
        "pretty-printing to stdout",
    )

    drift_cmd = sub.add_parser(
        "drift",
        help="replay a seeded drift stream through the incremental "
        "sparsifier (maintain vs rebuild)",
    )
    drift_cmd.add_argument("input", help="input edge list (text format)")
    drift_cmd.add_argument(
        "--alpha", type=float, required=True,
        help="sparsification ratio in (0, 1), fixed along the stream",
    )
    drift_cmd.add_argument(
        "--variant", default="GDB^A-t",
        help="GDB variant maintained along the stream (default GDB^A-t)",
    )
    drift_cmd.add_argument(
        "--batches", type=int, default=8,
        help="delta batches to replay (default 8)",
    )
    drift_cmd.add_argument(
        "--edge-fraction", type=float, default=0.05,
        help="fraction of live edges drifting per batch (default 0.05)",
    )
    drift_cmd.add_argument(
        "--insert-rate", type=float, default=0.0,
        help="fraction of live edges inserted per batch (default 0)",
    )
    drift_cmd.add_argument(
        "--delete-rate", type=float, default=0.0,
        help="fraction of live edges deleted per batch (default 0)",
    )
    drift_cmd.add_argument(
        "--seed", type=int, default=0,
        help="one seed drives both the drift stream and the backbone "
        "(default 0; the replay is a pure function of it)",
    )
    drift_cmd.add_argument(
        "--h", type=float, default=0.05, dest="entropy_h",
        help="GDB entropy parameter (default 0.05)",
    )
    drift_cmd.add_argument(
        "--compare-rebuild", action="store_true",
        help="also rebuild a fresh same-seed maintainer after every "
        "batch and report the speedup, the one-sided D1 gap "
        "(maintained - rebuilt) and whether the selections match",
    )
    drift_cmd.add_argument(
        "--output", default=None,
        help="write the final maintained sparsifier to this edge-list path",
    )

    diagnose_cmd = sub.add_parser(
        "diagnose", help="sparsification diagnostics for a (G, G') pair"
    )
    diagnose_cmd.add_argument("original", help="original edge list")
    diagnose_cmd.add_argument("sparsified", help="sparsified edge list")

    serve_cmd = sub.add_parser(
        "serve",
        help="run the sparsification job server (also: repro-serve)",
    )
    from repro.server.__main__ import configure_parser as _configure_serve

    _configure_serve(serve_cmd)
    return parser


def _parse_floats(raw: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ReproError(f"invalid {flag} value: {raw!r}") from None
    if not values:
        raise ReproError(f"invalid {flag} value: {raw!r}")
    return values


def _parse_alphas(raw: str) -> list[float]:
    return _parse_floats(raw, "--alpha")


def _load_graph(path: str):
    """Load a dataset as an :class:`UncertainGraph`: binary inputs
    (sniffed by their magic) memory-mapped with rows as stored, text
    inputs parsed."""
    from repro.datasets.binary_io import is_binary_file, read_binary

    if is_binary_file(path):
        return read_binary(path, mmap=True).graph()
    return read_edge_list(path)


def _cmd_sparsify(args: argparse.Namespace) -> int:
    graph = _load_graph(args.input)
    alphas = _parse_alphas(args.alpha)
    if len(alphas) > 1 and "{alpha}" not in args.output:
        raise ReproError(
            "multiple alphas need an output template containing '{alpha}', "
            "e.g. out-{alpha}.txt"
        )
    for alpha in alphas:
        sparsified = sparsify(
            graph, alpha, variant=args.variant, rng=args.seed,
            h=args.entropy_h,
        )
        output = args.output.replace("{alpha}", f"{alpha:g}")
        write_edge_list(sparsified, output)
        print(
            f"{args.input}: |V|={graph.number_of_vertices()} "
            f"|E|={graph.number_of_edges()} -> {output}: "
            f"|E'|={sparsified.number_of_edges()} "
            f"(H ratio {relative_entropy(sparsified, graph):.4f})"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args.input)
    degrees = graph.expected_degrees()
    mean_degree = sum(degrees.values()) / max(len(degrees), 1)
    print(f"vertices:         {graph.number_of_vertices()}")
    print(f"edges:            {graph.number_of_edges()}")
    print(f"density:          {graph.density():.6f}")
    print(f"connected:        {graph.is_connected()}")
    print(f"expected |E|:     {graph.expected_number_of_edges():.3f}")
    print(f"mean E[degree]:   {mean_degree:.4f}")
    print(f"entropy (bits):   {graph_entropy(graph):.4f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    original = _load_graph(args.original)
    sparsified = _load_graph(args.sparsified)
    print(f"edge ratio:         "
          f"{sparsified.number_of_edges() / max(original.number_of_edges(), 1):.4f}")
    print(f"degree MAE (abs):   "
          f"{degree_discrepancy_mae(original, sparsified):.6g}")
    print(f"degree MAE (rel):   "
          f"{degree_discrepancy_mae(original, sparsified, relative=True):.6g}")
    print(f"cut MAE (sampled):  "
          f"{sampled_cut_discrepancy_mae(original, sparsified, samples_per_k=args.cut_samples, rng=args.seed):.6g}")
    print(f"relative entropy:   {relative_entropy(sparsified, original):.6g}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro import datasets

    if args.family == "flickr":
        graph = datasets.flickr_like(
            n=args.n, avg_degree=args.avg_degree or 24, seed=args.seed
        )
    elif args.family == "twitter":
        graph = datasets.twitter_like(
            n=args.n, avg_degree=args.avg_degree or 8, seed=args.seed
        )
    elif args.family == "grid":
        side = max(int(args.n ** 0.5), 2)
        graph = datasets.grid_uncertain(side, side, rng=args.seed)
    else:  # er
        graph = datasets.erdos_renyi_uncertain(
            args.n, avg_degree=args.avg_degree or 12, rng=args.seed
        )
    write_edge_list(graph, args.output)
    print(f"wrote {graph.number_of_vertices()} vertices / "
          f"{graph.number_of_edges()} edges to {args.output}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.queries import (
        ClusteringCoefficientQuery,
        ConnectivityQuery,
        PageRankQuery,
        ReliabilityQuery,
        ShortestPathQuery,
        sample_vertex_pairs,
    )
    from repro.sampling import MonteCarloEstimator

    graph = _load_graph(args.input)
    n = graph.number_of_vertices()
    if args.weighted and args.query != "distance":
        raise EstimationError(
            "--weighted only applies to --query distance"
        )
    if args.query in ("reliability", "distance"):
        pairs = sample_vertex_pairs(graph, args.pairs, rng=args.seed)
        query = (
            ReliabilityQuery(pairs) if args.query == "reliability"
            else ShortestPathQuery(pairs, weighted=args.weighted)
        )
    elif args.query == "pagerank":
        query = PageRankQuery(n)
    elif args.query == "clustering":
        query = ClusteringCoefficientQuery(n)
    else:
        query = ConnectivityQuery()
    result = MonteCarloEstimator(
        graph,
        n_samples=args.samples,
        batch_size=args.batch_size,
    ).run(query, rng=args.seed)
    label = f"{args.query} (weighted -log p)" if args.weighted else args.query
    print(f"query:            {label}")
    print(f"worlds sampled:   {args.samples}")
    print(f"scalar estimate:  {result.scalar_estimate():.6f}")
    print(f"95% CI width:     {result.confidence_width():.6f}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.datasets.binary_io import (
        is_binary_file,
        read_binary,
        stored_vertex_ids,
        write_binary_ids,
    )

    if not is_binary_file(args.input):
        graph = read_edge_list(args.input)
        ids = stored_vertex_ids(graph)
        header = write_binary_ids(
            graph, args.output, ids, allow_relabel=args.allow_relabel
        )
        note = " (vertices relabelled to dense ids)" if ids is None else ""
        print(
            f"{args.input} -> {args.output}: {header.n_vertices} vertices, "
            f"{header.n_edges} edges, digest {header.digest[:16]}…{note}"
        )
    else:
        dataset = read_binary(args.input, mmap=True, verify=True)
        write_edge_list(dataset.graph(), args.output)
        print(
            f"{args.input} -> {args.output}: "
            f"{dataset.header.n_vertices} vertices, "
            f"{dataset.header.n_edges} edges (digest verified)"
        )
    return 0


def _cmd_drift(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.core import IncrementalSparsifier
    from repro.datasets import DriftWorkload

    graph = _load_graph(args.input)
    workload = DriftWorkload(
        graph,
        edge_fraction=args.edge_fraction,
        insert_rate=args.insert_rate,
        delete_rate=args.delete_rate,
        seed=args.seed,
    )

    def fresh(graph):
        return IncrementalSparsifier(
            graph, args.alpha, variant=args.variant, rng=args.seed,
            h=args.entropy_h,
        )

    maintainer = fresh(graph.copy())
    print(
        f"{args.input}: |V|={graph.number_of_vertices()} "
        f"|E|={graph.number_of_edges()}, maintaining {args.variant}@"
        f"{args.alpha:g} over {args.batches} batches "
        f"({args.edge_fraction:.0%} drift/batch, seed {args.seed})"
    )
    header = f"{'batch':>5} {'changed':>7} {'kind':>10} {'sweeps':>6} " \
             f"{'ms':>8} {'D1':>12}"
    if args.compare_rebuild:
        header += (
            f" {'rebuild ms':>10} {'speedup':>8} {'D1 gap':>10} {'same sel':>8}"
        )
    print(header)
    for index in range(args.batches):
        batch = workload.next_batch(maintainer.graph)
        report = maintainer.apply(batch)
        kind = "structural" if report.structural else "updates"
        line = (
            f"{index:>5d} {report.batch_size:>7d} {kind:>10} "
            f"{report.sweeps:>6d} {report.elapsed * 1e3:>8.1f} "
            f"{report.d1:>12.6g}"
        )
        if args.compare_rebuild:
            # The rebuild is the maintainer's own cold start on the
            # drifted graph: same seed and "stable" BGI top-up, so the
            # two selections must agree and the D1 gap (maintained -
            # rebuilt) only measures warm-vs-cold convergence.
            drifted = maintainer.graph.copy()
            start = time.perf_counter()
            rebuilt = fresh(drifted)
            rebuild_s = time.perf_counter() - start
            gap = report.d1 - rebuilt.d1()
            same = np.array_equal(
                maintainer.state.selected, rebuilt.state.selected
            )
            speedup = rebuild_s / max(report.elapsed, 1e-12)
            line += (
                f" {rebuild_s * 1e3:>10.1f} {speedup:>8.2f} {gap:>10.3g}"
                f" {'yes' if same else 'NO':>8}"
            )
        print(line)
    print(
        f"total sweeps: {maintainer.sweeps}, final D1: "
        f"{maintainer.d1():.6g}"
    )
    if args.output is not None:
        write_edge_list(maintainer.sparsified(), args.output)
        print(f"wrote maintained sparsifier to {args.output}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    import json

    from repro.core.grid import gdb_grid, objective_rows

    graph = _load_graph(args.input)
    alphas = _parse_floats(args.alphas, "--alphas")
    h_values = _parse_floats(args.h_values, "--h-values")
    results = gdb_grid(
        graph, alphas, h_values,
        relative=args.relative,
        backbone_method=args.backbone_method,
        rng=args.seed,
        build_graphs=False,
    )
    rows = objective_rows(results)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        print(f"wrote {len(rows)} grid cells to {args.output}")
        return 0
    print(f"{'alpha':>8} {'h':>8} {'objective':>14} {'sweeps':>7}")
    for row in rows:
        print(
            f"{row['alpha']:>8g} {row['h']:>8g} "
            f"{row['objective']:>14.6g} {row['sweeps']:>7d}"
        )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sparsify":
            return _cmd_sparsify(args)
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "variants":
            for variant in available_variants():
                print(variant)
            return 0
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "convert":
            return _cmd_convert(args)
        if args.command == "grid":
            return _cmd_grid(args)
        if args.command == "drift":
            return _cmd_drift(args)
        if args.command == "serve":
            from repro.server.__main__ import run_from_args

            return run_from_args(args)
        if args.command == "diagnose":
            from repro.core.diagnostics import analyze_sparsification

            report = analyze_sparsification(
                _load_graph(args.original), _load_graph(args.sparsified)
            )
            print(report.format())
            return 0
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
