"""Check the committed perf history, ``BENCH_perfbench.json``.

The file holds one entry per performance PR: its claim and, for every
workload of the end-to-end benchmark (``BENCHMARK.json``), the parent's
and the change's first quartile, median and third quartile of every
end-to-end metric over the parent/change pairs that were run.  This
script fails unless every entry covers every workload and metric with
ordered quartiles.

Run from the repository root::

    python benchmarks/check_perf_history.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def problems(history: dict, benchmark: dict) -> list[str]:
    """Every way ``history`` falls short of ``benchmark``'s workloads."""
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    found = []
    entries = history.get("entries") or []
    if not entries:
        found.append("no entries")
    for entry in entries:
        label = f"PR {entry.get('pr')}"
        if "claim" not in entry:
            found.append(f"{label}: no claim")
        covered = entry.get("workloads", {})
        for workload in workloads:
            row = covered.get(workload)
            if row is None:
                found.append(f"{label}: workload {workload} missing")
                continue
            if not isinstance(row.get("pairs"), int) or row["pairs"] < 1:
                found.append(f"{label} {workload}: no pair count")
            for metric in metrics:
                for side in ("parent", "change"):
                    quartiles = row.get(metric, {}).get(side)
                    if (
                        not isinstance(quartiles, list)
                        or len(quartiles) != 3
                        or sorted(quartiles) != quartiles
                    ):
                        found.append(
                            f"{label} {workload} {metric} {side}: "
                            f"want [q1, median, q3], got {quartiles!r}"
                        )
    return found


def main() -> int:
    history = json.loads((ROOT / "BENCH_perfbench.json").read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    found = problems(history, benchmark)
    for problem in found:
        print(problem)
    entries = len(history.get("entries") or [])
    print(f"{entries} entries checked, {len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
