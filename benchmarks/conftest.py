"""Shared benchmark plumbing.

Every benchmark regenerates one paper table/figure at the ``tiny``
experiment scale (see ``repro.experiments.common``), times it via
pytest-benchmark, prints the resulting rows, and archives them under
``benchmarks/results/`` so the series survive pytest's stdout capture.
Scale up by editing ``BENCH_SCALE`` or by running the experiment modules
directly (``python -m repro.experiments.fig10``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# The scalar reference oracles (``tests/oracles/``) the engine benchmark
# gates the fast paths on.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.experiments import TINY
from repro.experiments.common import ExperimentScale, ResultTable

#: Scale used by every benchmark; override with REPRO_BENCH_SCALE=small.
BENCH_SCALE: ExperimentScale = TINY

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    from repro.experiments import SCALES

    name = os.environ.get("REPRO_BENCH_SCALE", "tiny")
    return SCALES.get(name, BENCH_SCALE)


@pytest.fixture
def emit():
    """Print tables and archive them to benchmarks/results/<name>.txt."""

    def _emit(name: str, *tables: ResultTable) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = "\n\n".join(t.format() for t in tables)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print()
        print(text)

    return _emit


@pytest.fixture
def emit_json():
    """Archive a machine-readable payload to benchmarks/results/BENCH_<name>.json.

    The JSON twin of :func:`emit`: CI jobs and downstream tooling parse
    these instead of scraping the formatted tables.  Payloads must be
    plain JSON-serialisable dicts; the file is rewritten atomically-ish
    (single write) and pretty-printed for diffability.
    """
    import json

    def _emit_json(name: str, payload: dict) -> Path:
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / f"BENCH_{name}.json"
        out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\n[bench] wrote {out}")
        return out

    return _emit_json
