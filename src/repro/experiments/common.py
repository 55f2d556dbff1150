"""Shared experiment plumbing: scales, datasets, result tables.

Every paper table/figure has a module in this package exposing a
``run_*`` function that returns a :class:`ResultTable`.  The benchmarks
call these with the ``tiny``/``small`` scales; pass ``paper`` (or a
custom :class:`ExperimentScale`) to push towards the paper's sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.uncertain_graph import UncertainGraph
from repro.datasets import flickr_like, forest_fire_sample, twitter_like
from repro.utils.rng import ensure_rng

#: The paper's sparsification ratios (Figs. 4-12): 8% .. 64%.
PAPER_ALPHAS = (0.08, 0.16, 0.32, 0.64)

#: The paper's representative variants for benchmark comparisons (6.1):
#: EMD = EMD^R-t (best overall), GDB = GDB^A (best at alpha = 8%).
REPRESENTATIVE_GDB = "GDB^A"
REPRESENTATIVE_EMD = "EMD^R-t"


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling experiment size (dataset / MC budgets).

    The paper's full protocol (78k-vertex Flickr, 500 worlds, 1000
    pairs, 100 variance runs) is hours of pure-Python compute; scales
    shrink every budget while preserving the comparisons.
    """

    name: str
    flickr_n: int = 300
    flickr_avg_degree: int = 40
    twitter_n: int = 300
    twitter_avg_degree: int = 26
    reduced_n: int = 150
    mc_samples: int = 120
    query_pairs: int = 60
    variance_runs: int = 12
    variance_samples: int = 60
    cut_samples_per_k: int = 30
    density_base_n: int = 100
    densities: tuple[float, ...] = (0.15, 0.3, 0.5, 0.9)
    alphas: tuple[float, ...] = PAPER_ALPHAS
    #: Worlds per estimator chunk (None = auto-size from memory).
    mc_batch_size: "int | None" = None

    def __post_init__(self) -> None:
        # The paper assumes alpha >= (|V|-1)/|E| (footnote 7) so spanning
        # backbones are feasible; the defaults keep |E|/|V| high enough
        # for alpha = 8% like the real Flickr (130) / Twitter (25).  The
        # BA generator produces C(a+1, 2) + a (n - a - 1) edges for
        # attach = avg_degree // 2, so check against that exact count.
        for label, n, avg in (
            ("flickr", self.flickr_n, self.flickr_avg_degree),
            ("twitter", self.twitter_n, self.twitter_avg_degree),
        ):
            attach = max(avg // 2, 1)
            m = attach * (attach + 1) // 2 + attach * (n - attach - 1)
            if min(self.alphas) * m < n - 1:
                raise ValueError(
                    f"{label} proxy too sparse for alpha={min(self.alphas)}: "
                    f"{m} edges on {n} vertices cannot host a spanning tree "
                    f"within the budget"
                )


TINY = ExperimentScale(
    name="tiny",
    flickr_n=100, flickr_avg_degree=40, twitter_n=100, twitter_avg_degree=30,
    reduced_n=70, mc_samples=60, query_pairs=30, variance_runs=8,
    variance_samples=40, cut_samples_per_k=20, density_base_n=90,
)

SMALL = ExperimentScale(name="small")

PAPER = ExperimentScale(
    name="paper",
    flickr_n=5000, flickr_avg_degree=130, twitter_n=5000,
    twitter_avg_degree=50, reduced_n=5000, mc_samples=500,
    query_pairs=1000, variance_runs=100, variance_samples=500,
    cut_samples_per_k=1000, density_base_n=1000,
)

SCALES = {"tiny": TINY, "small": SMALL, "paper": PAPER}


@dataclass
class ResultTable:
    """A printable experiment result: title + headers + rows."""

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values) -> None:
        self.rows.append(list(values))

    def column(self, header: str) -> list:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def cell(self, row_key, column: str):
        """Value at (first-column == row_key, column header)."""
        idx = self.headers.index(column)
        for row in self.rows:
            if row[0] == row_key:
                return row[idx]
        raise KeyError(row_key)

    def format(self) -> str:
        def render(value) -> str:
            if isinstance(value, float):
                if value == 0:
                    return "0"
                if abs(value) >= 1e4 or 0 < abs(value) < 1e-3:
                    return f"{value:.3e}"
                return f"{value:.4f}"
            return str(value)

        cells = [[render(v) for v in row] for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(self.headers)
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


def make_flickr_proxy(scale: ExperimentScale, seed: int = 7) -> UncertainGraph:
    """Flickr stand-in at the requested scale."""
    return flickr_like(n=scale.flickr_n, avg_degree=scale.flickr_avg_degree, seed=seed)


def make_twitter_proxy(scale: ExperimentScale, seed: int = 11) -> UncertainGraph:
    """Twitter stand-in at the requested scale."""
    return twitter_like(n=scale.twitter_n, avg_degree=scale.twitter_avg_degree, seed=seed)


def make_flickr_reduced(scale: ExperimentScale, seed: int = 13) -> UncertainGraph:
    """"Flickr reduced": Forest Fire sample of the Flickr proxy (6.1)."""
    base = make_flickr_proxy(scale, seed=seed)
    if scale.reduced_n >= base.number_of_vertices():
        return base
    return forest_fire_sample(base, scale.reduced_n, rng=seed)


def timed(fn, *args, **kwargs) -> tuple[object, float]:
    """Run ``fn`` and return ``(result, wall_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def geometric_mean(values) -> float:
    """Geometric mean, ignoring non-positive entries (log-scale summaries)."""
    arr = np.asarray([v for v in values if v > 0], dtype=np.float64)
    if len(arr) == 0:
        return float("nan")
    return float(np.exp(np.log(arr).mean()))
