"""repro — Uncertain Graph Sparsification.

Reproduction of Parchas, Papailiou, Papadias & Bonchi, *Uncertain Graph
Sparsification* (ICDE 2019 extended abstract / arXiv:1611.04308).

Quickstart
----------
>>> from repro import datasets, sparsify
>>> from repro.metrics import degree_discrepancy_mae
>>> g = datasets.twitter_like(n=200, seed=1)
>>> g_sparse = sparsify(g, alpha=0.3, variant="EMD^R-t", rng=1)
>>> degree_discrepancy_mae(g, g_sparse) < 0.5
True

Package layout
--------------
- :mod:`repro.core` — the uncertain-graph model and the paper's
  sparsifiers (GDB, EMD, LP, backbones, entropy, discrepancies),
- :mod:`repro.baselines` — NI cut-sparsifier, Baswana–Sen spanner and
  effective-resistance adaptations, plus a random baseline,
- :mod:`repro.sampling` — possible-world samplers, exact enumeration,
  Monte-Carlo and stratified estimators,
- :mod:`repro.queries` — PR / SP / RL / CC / connectivity queries,
- :mod:`repro.metrics` — earth mover's distance, structural MAEs,
  relative entropy, variance protocol,
- :mod:`repro.datasets` — synthetic generators, Forest Fire sampling,
  edge-list I/O,
- :mod:`repro.experiments` — one module per paper table / figure.
"""

from repro import baselines, core, datasets, metrics, queries, sampling, utils
from repro.core import (
    EMDConfig,
    GDBConfig,
    UncertainGraph,
    available_variants,
    emd,
    gdb,
    graph_entropy,
    lp_sparsify,
    parse_variant,
    relative_entropy,
    sparsify,
)
from repro.exceptions import (
    CalibrationError,
    EstimationError,
    GraphError,
    NotConnectedError,
    ProbabilityError,
    ReproError,
    SparsificationError,
)
from repro.sampling import MonteCarloEstimator, WorldSampler

__version__ = "1.0.0"

__all__ = [
    "CalibrationError",
    "EMDConfig",
    "EstimationError",
    "GDBConfig",
    "GraphError",
    "MonteCarloEstimator",
    "NotConnectedError",
    "ProbabilityError",
    "ReproError",
    "SparsificationError",
    "UncertainGraph",
    "WorldSampler",
    "__version__",
    "available_variants",
    "baselines",
    "core",
    "datasets",
    "emd",
    "gdb",
    "graph_entropy",
    "lp_sparsify",
    "metrics",
    "parse_variant",
    "queries",
    "relative_entropy",
    "sampling",
    "sparsify",
    "utils",
]
