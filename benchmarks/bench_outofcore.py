"""Smoke benchmark: out-of-core binary datasets under the grid driver.

Generates a forest-fire graph as dense edge arrays, writes it both as a
binary dataset and as a text edge list, then runs ``gdb_grid`` end to
end in *subprocesses* (one per phase) so ``ru_maxrss`` measures each
execution model in isolation:

- ``import``       — interpreter + numpy import floor (baseline; no
  phase loads scipy, which ``import repro`` leaves out),
- ``binary_grid``  — mmap-backed binary load + the grid driver,
- ``text_grid``    — materialised text parse into the text-parsed graph +
  the grid driver (skipped above ``TEXT_CAP`` edges).

Gates:

- **O(header) load (when the text baseline runs):** the binary dataset
  must open at least ``MIN_LOAD_SPEEDUP``x faster than the text parse.
- **Bounded RSS (when the text baseline runs):** the binary phase's RSS
  increment over the import floor must stay below ``MAX_RSS_RATIO`` of
  the text phase's increment — the out-of-core claim.

Scale with ``REPRO_BENCH_OUTOFCORE_EDGES`` (default 200k; the 10M-edge
acceptance run uses ``REPRO_BENCH_OUTOFCORE_EDGES=10000000``, which
skips the text baseline via ``TEXT_CAP``).  Results are archived as a
table and as machine-readable ``results/BENCH_outofcore.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.common import ResultTable

#: Target edge count; vertices are derived (m ~= 10 n at avg_degree 20).
EDGES = int(os.environ.get("REPRO_BENCH_OUTOFCORE_EDGES", "200000"))

#: Above this edge count the materialised-text baseline is skipped (it
#: is the thing the binary path exists to avoid).
TEXT_CAP = int(os.environ.get("REPRO_BENCH_OUTOFCORE_TEXT_CAP", "2000000"))

#: Binary-over-text RSS increment ceiling: the mmap-backed run must use
#: less than this fraction of the text-parsed graph run's memory increment.
MAX_RSS_RATIO = float(
    os.environ.get("REPRO_BENCH_OUTOFCORE_MAX_RSS_RATIO", "0.8")
)

#: Floor for binary-open vs text-parse time (O(header) vs O(m); the
#: measured gap at 200k edges is >100x, so 10x has a wide margin).
MIN_LOAD_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_OUTOFCORE_MIN_LOAD_SPEEDUP", "10.0")
)

ALPHAS = [0.4, 0.7]
H_VALUES = [0.25, 1.0]
SEED = 5

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Each phase runs in a child interpreter and prints one JSON line; the
#: child measures its own ru_maxrss so phases never share a peak.
_CHILD = r"""
import json, resource, sys, time

phase, args = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, args["srcpath"])
out = {"phase": phase}
if phase == "import":
    import repro  # noqa: F401  (pull in numpy for the RSS floor)
    import repro.core, repro.datasets  # noqa: F401
elif phase == "binary_grid":
    from repro.core.grid import gdb_grid, objective_rows
    from repro.datasets import read_binary

    t0 = time.perf_counter()
    graph = read_binary(args["binary"], mmap=True).graph()
    out["load_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cells = gdb_grid(
        graph, args["alphas"], args["h_values"],
        build_graphs=False, rng=args["seed"],
    )
    out["grid_s"] = time.perf_counter() - t0
    out["rows"] = [
        [repr(r["alpha"]), repr(r["h"]), repr(r["objective"])]
        for r in objective_rows(cells)
    ]
    out["n"], out["m"] = graph.number_of_vertices(), graph.number_of_edges()
elif phase == "text_grid":
    from repro.core.grid import gdb_grid, objective_rows
    from repro.datasets import read_edge_list

    t0 = time.perf_counter()
    graph = read_edge_list(args["text"])
    out["load_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cells = gdb_grid(
        graph, args["alphas"], args["h_values"],
        build_graphs=False, rng=args["seed"],
    )
    out["grid_s"] = time.perf_counter() - t0
    out["rows"] = [
        [repr(r["alpha"]), repr(r["h"]), repr(r["objective"])]
        for r in objective_rows(cells)
    ]
else:
    raise SystemExit(f"unknown phase {phase!r}")
out["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
out["scipy"] = "scipy" in sys.modules
print(json.dumps(out))
"""


def _run_phase(phase: str, **args) -> dict:
    payload = json.dumps({"srcpath": _SRC, **args})
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, phase, payload],
        capture_output=True, text=True, timeout=3600,
    )
    assert proc.returncode == 0, (
        f"phase {phase!r} failed:\n{proc.stderr[-4000:]}"
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Binary + (optional) text twin of one forest-fire graph."""
    from repro.datasets import forest_fire_like_arrays, write_binary_arrays

    tmp = tmp_path_factory.mktemp("outofcore")
    n_vertices = max(EDGES // 10, 50)
    n, src, dst, prob = forest_fire_like_arrays(
        n_vertices, avg_degree=20.0, rng=11
    )
    binary = tmp / "forest_fire.bin"
    write_binary_arrays(binary, n, src, dst, prob, validate=False)
    text = None
    if len(prob) <= TEXT_CAP:
        text = tmp / "forest_fire.txt"
        with open(text, "w", encoding="utf-8") as fh:
            for u, v, p in zip(src.tolist(), dst.tolist(), prob.tolist()):
                fh.write(f"{u} {v} {p!r}\n")
    return {"binary": str(binary), "text": str(text) if text else None,
            "m": int(len(prob)), "n": int(n)}


def test_bench_outofcore(corpus, emit, emit_json):
    grid_args = dict(alphas=ALPHAS, h_values=H_VALUES, seed=SEED)

    baseline = _run_phase("import")
    binary = _run_phase("binary_grid", binary=corpus["binary"], **grid_args)
    text = None
    if corpus["text"] is not None:
        text = _run_phase("text_grid", text=corpus["text"], **grid_args)

    # The increments are memory the grid adds, not a library import.
    for phase in (baseline, binary, text):
        assert phase is None or not phase["scipy"], phase["phase"]
    floor_kb = baseline["ru_maxrss_kb"]
    binary_inc = binary["ru_maxrss_kb"] - floor_kb
    payload = {
        "edges": corpus["m"],
        "vertices": corpus["n"],
        "grid": {"alphas": ALPHAS, "h_values": H_VALUES, "seed": SEED},
        "import_rss_kb": floor_kb,
        "binary": {
            "load_s": binary["load_s"],
            "grid_s": binary["grid_s"],
            "rss_increment_kb": binary_inc,
        },
        "rows": binary["rows"],
    }

    table = ResultTable(
        title=(
            f"Out-of-core grid — {corpus['m']} edges, "
            f"grid {len(ALPHAS)}x{len(H_VALUES)}"
        ),
        headers=["phase", "load s", "grid s", "rss inc KB"],
    )
    table.add_row("binary (mmap)", binary["load_s"], binary["grid_s"],
                  binary_inc)

    if text is not None:
        text_inc = text["ru_maxrss_kb"] - floor_kb
        load_speedup = text["load_s"] / max(binary["load_s"], 1e-9)
        payload["text"] = {
            "load_s": text["load_s"],
            "grid_s": text["grid_s"],
            "rss_increment_kb": text_inc,
            "load_speedup": load_speedup,
            "rss_ratio": binary_inc / max(text_inc, 1),
        }
        table.add_row("text (parsed)", text["load_s"], text["grid_s"], text_inc)

    emit("bench_outofcore", table)
    emit_json("outofcore", payload)

    if text is not None:
        assert load_speedup >= MIN_LOAD_SPEEDUP, (
            f"binary open only {load_speedup:.1f}x faster than text parse "
            f"(need >= {MIN_LOAD_SPEEDUP}x — O(header) load regressed?)"
        )
        assert binary_inc <= MAX_RSS_RATIO * text_inc, (
            f"binary-path RSS increment {binary_inc} KB not below "
            f"{MAX_RSS_RATIO:.0%} of the text baseline's {text_inc} KB"
        )
