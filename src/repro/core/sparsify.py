"""Unified sparsification front-end and the paper's variant notation.

Section 6.1 names variants with a compact notation which this module
parses:

- method: ``GDB`` / ``EMD`` / ``LP`` (plus the benchmarks ``NI`` / ``SP``
  and a ``RANDOM`` sanity baseline),
- ``^A`` / ``^R`` superscript: absolute vs relative discrepancy,
- ``_2`` / ``_5`` / ``_n`` subscript: cut-preservation order ``k``
  (absent means ``k = 1``, expected degrees),
- ``-t`` suffix: backbone built by Algorithm 1 (spanning forests);
  absent means the random Monte-Carlo backbone.

So ``"EMD^R-t"`` is EMD on relative discrepancy over a BGI backbone —
the paper's overall winner — and ``"GDB^A_n"`` is GDB with the
full-redistribution rule on a random backbone.

Example
-------
>>> from repro import datasets, sparsify
>>> g = datasets.flickr_like(n=120, seed=7)
>>> g_sparse = sparsify(g, alpha=0.3, variant="EMD^R-t", rng=7)
>>> g_sparse.number_of_edges() == round(0.3 * g.number_of_edges())
True
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.core.backbone import target_edge_count
from repro.core.emd_sparsifier import EMDConfig, emd
from repro.core.gdb import GDBConfig, gdb
from repro.core.lp import lp_sparsify
from repro.core.uncertain_graph import UncertainGraph

_VARIANT_RE = re.compile(
    r"^(?P<method>GDB|EMD|LP|NI|SP|SS|ER|RANDOM)"
    r"(?:\^(?P<disc>[AR]))?"
    r"(?:_(?P<k>\d+|n))?"
    r"(?P<backbone>-t)?$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class VariantSpec:
    """Parsed form of a variant string (see module docstring)."""

    method: str            # "gdb" | "emd" | "lp" | "ni" | "sp" | "er" | "random"
    relative: bool = False
    k: int | str = 1
    bgi_backbone: bool = False

    @property
    def canonical_name(self) -> str:
        """Re-render the paper notation."""
        if self.method in ("ni", "sp", "er", "random"):
            return self.method.upper() if self.method != "sp" else "SP"
        label = self.method.upper() + ("^R" if self.relative else "^A")
        if self.k != 1:
            label += f"_{self.k}"
        if self.bgi_backbone:
            label += "-t"
        return label


def parse_variant(variant: str) -> VariantSpec:
    """Parse a paper-notation variant string into a :class:`VariantSpec`.

    Notation the method does not read is refused: EMD is defined for
    ``k = 1`` only (paper section 5), Theorem 1's LP is the absolute
    ``k = 1`` program (no ``^R``, no ``_k``), and NI, SP, ER and RANDOM
    take no modifier at all.
    """
    match = _VARIANT_RE.match(variant.strip())
    if match is None:
        raise ValueError(
            f"unrecognised variant {variant!r}; expected e.g. 'GDB^A', "
            f"'EMD^R-t', 'GDB^A_2', 'GDB^A_n', 'LP-t', 'NI', 'SP', 'ER'"
        )
    method = match.group("method").lower()
    if method == "ss":
        method = "sp"
    disc = (match.group("disc") or "A").upper()
    k_raw = match.group("k")
    k: int | str = 1
    if k_raw is not None:
        k = "n" if k_raw.lower() == "n" else int(k_raw)
    if method == "emd":
        unread = k != 1
    elif method == "lp":
        unread = disc == "R" or k != 1
    else:
        unread = method != "gdb" and any(match.group("disc", "k", "backbone"))
    if unread:
        raise ValueError(
            f"variant {variant!r} uses notation {method.upper()} does not "
            f"read: EMD takes k = 1 only, LP neither ^R nor _k, and NI, SP, "
            f"ER and RANDOM no modifier"
        )
    return VariantSpec(
        method=method,
        relative=(disc == "R"),
        k=k,
        bgi_backbone=match.group("backbone") is not None,
    )


def sparsify(
    graph: UncertainGraph,
    alpha: float,
    variant: str = "EMD^R-t",
    rng: "int | np.random.Generator | None" = None,
    h: float = 0.05,
    tau: float = 1e-9,
    name: str = "",
) -> UncertainGraph:
    """Sparsify an uncertain graph with any paper variant.

    Parameters
    ----------
    graph:
        Input uncertain graph ``G = (V, E, p)``.
    alpha:
        Sparsification ratio in ``(0, 1)``: the output has
        ``round(alpha |E|)`` edges on the full vertex set.
    variant:
        Paper-notation variant string (module docstring); default is the
        paper's best performer ``EMD^R-t``.
    rng:
        Seed or generator (backbone construction and the benchmark
        methods are randomised).
    h:
        Entropy parameter for GDB/EMD (paper default 0.05).
    tau:
        Convergence threshold for GDB/EMD.
    name:
        Optional name for the output graph.

    Returns
    -------
    UncertainGraph
        The sparsified graph ``G' = (V, E', p')``.

    GDB/EMD/LP build their backbone on the graph's
    :class:`~repro.core.backbone.BackbonePlan` and NI memoises its
    forest-peel structure there, so repeated calls on one graph (an
    alpha ladder, a variant sweep) share the Kruskal work; the output
    equals that of the same call on a fresh copy of the graph.
    """
    spec = parse_variant(variant)
    backbone_method = "bgi" if spec.bgi_backbone else "random"
    label = name or f"{spec.canonical_name}@{alpha:g}({graph.name})"

    if spec.method == "gdb":
        config = GDBConfig(h=h, tau=tau, k=spec.k, relative=spec.relative)
        return gdb(graph, alpha, config=config,
                   backbone_method=backbone_method, rng=rng, name=label)
    if spec.method == "emd":
        config = EMDConfig(h=h, tau=tau, relative=spec.relative)
        return emd(graph, alpha, config=config,
                   backbone_method=backbone_method, rng=rng, name=label)
    if spec.method == "lp":
        return lp_sparsify(graph, alpha, backbone_method=backbone_method,
                           rng=rng, name=label)
    if spec.method == "ni":
        from repro.baselines.ni import ni_sparsify

        return ni_sparsify(graph, alpha, rng=rng, name=label)
    if spec.method == "sp":
        from repro.baselines.spanner import spanner_sparsify

        return spanner_sparsify(graph, alpha, rng=rng, name=label)
    if spec.method == "er":
        from repro.baselines.effective_resistance import effective_resistance_sparsify

        return effective_resistance_sparsify(graph, alpha, rng=rng, name=label)
    if spec.method == "random":
        from repro.baselines.random_sparsifier import random_sparsify

        return random_sparsify(graph, alpha, rng=rng, name=label)
    raise AssertionError(f"unhandled method {spec.method!r}")


def available_variants() -> list[str]:
    """Canonical list of the variant strings :func:`sparsify` accepts.

    Every entry but ``ER`` and ``RANDOM`` appears in the paper's
    experiments; those two are extra baselines.
    """
    return [
        "LP", "LP-t",
        "GDB^A", "GDB^R", "GDB^A_2", "GDB^A_n",
        "GDB^A-t", "GDB^R-t",
        "EMD^A", "EMD^R", "EMD^A-t", "EMD^R-t",
        "NI", "SP", "ER", "RANDOM",
    ]


def check_budget(graph: UncertainGraph, sparsified: UncertainGraph, alpha: float) -> bool:
    """Return ``True`` when ``|E'|`` equals the rounded budget ``alpha |E|``."""
    return sparsified.number_of_edges() == target_edge_count(
        graph.number_of_edges(), alpha
    )
