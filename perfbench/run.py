"""Run one benchmark workload and print its metrics.

From the root of the repository::

    python3 perfbench/run.py --workload cold-200k --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` wraps the layer entry points (see ``tracing.py``) and
reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name with its unit.  A full report (environment, input checksums, the
workload's own metrics, failures and, when traced, every span) goes to
``.perfbench_out/`` under the repository root.

``--smoke`` runs the same workloads at a tiny scale (correctness checks
only, nothing timed is meaningful).  ``--record`` stores this run's
seed-determined values (D1, digests, input checksums) in
``perfbench/expected.json``; later runs of that seed are checked
against them.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: everything runs on one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}

#: glibc's mallopt() parameter number of M_ARENA_MAX.
M_ARENA_MAX = -8


def single_malloc_arena() -> bool:
    """Make every thread allocate from glibc's main arena.

    By default each thread that calls malloc may get an arena of its own,
    and how much memory those arenas hold depends on thread timing:
    ``serve-3k``'s peak RSS then reads about 335 or 380 MB from run to
    run.  With one arena it is the same in every run.  Must run before
    any thread is started; returns whether it took effect.
    """
    try:
        return bool(ctypes.CDLL("libc.so.6").mallopt(M_ARENA_MAX, 1))
    except (OSError, AttributeError):
        return False


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def commit() -> str:
    """The checked-out commit, read from ``.git`` ("unknown" without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files (names and bytes)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(one_arena: bool) -> dict:
    import numpy

    return {
        "malloc_single_arena": one_arena,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
        "threads_pinned": {v: os.environ[v] for v in
                           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; correctness checks only")
    parser.add_argument("--record", action="store_true",
                        help="store this run's seed-determined values")
    return parser.parse_args(argv)


def load_expected() -> dict:
    if EXPECTED.is_file():
        return json.loads(EXPECTED.read_text())
    return {}


def record(scale_name: str, workload: str, seed: int, values: dict) -> None:
    expected = load_expected()
    expected.setdefault(scale_name, {}).setdefault(workload, {})[str(seed)] = values
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def execute(args) -> dict:
    """Run the workload; returns the full report (see module docstring)."""
    one_arena = single_malloc_arena()
    load_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    scale_name = "smoke" if args.smoke else "full"
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    expected = load_expected().get(scale_name, {}).get(args.workload, {})
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    run = workloads.Run(args.seed, args.seconds, tracer, scale, workdir,
                        expected.get(str(args.seed)))
    try:
        detail = workloads.WORKLOADS[args.workload](run)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # Times are scaled to the reference host (see workloads.Calibration);
    # the raw ones are reported beside them.
    e2e = {
        "setup_s": statistics.median(run.setup_seconds()),
        "op_ms_p50": 1e3 * run.median(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "setup_s_raw": (statistics.median(run.setup_seconds(raw=True)), "s"),
        "op_ms_p50_raw": (1e3 * run.median(raw=True), "ms"),
        "host_cal_ms": (1e3 * statistics.median(run.cal.seconds), "ms"),
        **detail,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale_name,
        "environment": environment(one_arena),
        "inputs_sha256": run.inputs,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "samples": {"setup": len(run.setup_times), "ops": len(run.samples),
                    "input_groups": run.groups, "calibrations": len(run.cal.seconds)},
        "setup_times_s": run.setup_seconds(),
        "setup_times_raw_s": run.setup_seconds(raw=True),
        "calibration_s": {"reference": workloads.CAL_REF_S,
                          "measured": run.cal.seconds},
        "operations": [{"group": g, "traced": t,
                        "seconds": {k: run.seconds_of(v) for k, v in parts.items()},
                        "raw_seconds": {k: run.seconds_of(v, raw=True)
                                        for k, v in parts.items()}}
                       for g, t, parts in run.samples],
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / max(run.attempted, 1),
        "failures": run.failures,
        "differs_from_recorded": run.differs,
        "recorded": run.recorded,
    }
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, run.sparse_graphs)
        overhead = run.overhead_pct()
        if overhead is not None:
            layers["trace.overhead_pct"] = overhead
        report["layers"] = {name: {"value": layers[name], "unit": unit}
                            for name, unit in tracing.LAYER_METRICS.items()}
        report["samples"]["traced_ops"] = sum(1 for _, t, _ in run.samples if t)
        report["missing_entry_points"] = list(tracer.missing)
        report["spans"] = tracer.spans
    if args.record:
        record(scale_name, args.workload, args.seed, run.recorded)
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"scale={report['scale']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} commit={env['commit'][:12]}")
    sections = [("end-to-end", report["end_to_end"]),
                ("workload", report["workload_metrics"])]
    if "layers" in report:
        sections.append(("per-layer", report["layers"]))
    for title, metrics in sections:
        print(f"# {title}")
        for name, metric in metrics.items():
            value = metric["value"]
            shown = json.dumps(value) if isinstance(value, dict) else f"{value:.6g}"
            print(f"{name:28s} {shown:>14s} {metric['unit']}")
    print(f"{'failed_frac':28s} {report['failed_frac']:>14.6g} ratio "
          f"({report['failed']}/{report['attempted']})")
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    if report["differs_from_recorded"]:
        print(f"# differs from recorded: {report['differs_from_recorded']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    report = execute(args)
    name = (f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
            f"{'-smoke' if args.smoke else ''}.json")
    (OUT_DIR / name).write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    metrics = report["layers"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
