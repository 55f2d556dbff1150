"""Tracing for the benchmark: spans recorded by wrappers around layers.

The library carries no instrumentation of its own, so the traced run
patches the public entry points of each layer with thin wrappers that
open a span around the call.  A span records its name, start, end, the
span that caused it (per thread) and a few counters read from the call's
arguments or result.  Spans stay in memory until the run writes them out.

``NullTracer`` is what the untraced run uses: it installs nothing and its
spans are no-ops, so the end-to-end numbers see the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time


# -- counters read off a wrapped call -----------------------------------------
def _forests(span, args, kwargs, result):
    span["forests"] = args[0].forests_computed


def _plan_shape(span, args, kwargs, result):
    span["colors"] = int(result.n_colors)
    span["tail_edges"] = len(result.tail_eids)


def _sweeps(span, args, kwargs, result):
    span["sweeps"] = int(result)


def _churn(span, args, kwargs, result):
    span["churn"] = int(result.removed + result.added)


def _mc_run(span, args, kwargs, result):
    estimator, query = args[0], args[1]
    span["query"] = query.name
    span["graph_id"] = id(estimator.graph)


def _mask_matrix(span, args, kwargs, result):
    span["edge_worlds"] = int(result.size)


def _lookup(span, args, kwargs, result):
    span["hit"] = bool(result[1])


def _invalidated(span, args, kwargs, result):
    span["invalidated"] = int(result)


def _job_outcome(span, args, kwargs, result):
    span["failed"] = kwargs.get("error", args[3] if len(args) > 3 else None) is not None


#: (module, attribute path, span name, counter hook) for every layer entry
#: point the traced run wraps.  Functions are also patched wherever another
#: ``repro`` module imported them by name.
LAYER_ENTRY_POINTS = (
    ("repro.datasets.io", "parse_edge_list", "io.parse", None),
    ("repro.datasets.io", "content_digest", "io.digest", None),
    ("repro.datasets.io", "graph_digest", "io.digest", None),
    ("repro.core.backbone", "BackbonePlan.backbone", "backbone.plan", _forests),
    ("repro.core.backbone", "BackbonePlan.repair", "backbone.repair", None),
    ("repro.core.discrepancy", "SparsificationState.__init__", "state.init", None),
    ("repro.core.discrepancy", "SparsificationState.apply_delta",
     "state.apply_delta", None),
    ("repro.core.discrepancy", "SparsificationState.build_graph",
     "state.materialise", None),
    ("repro.core.sweep", "build_sweep_plan", "sweep.plan", _plan_shape),
    ("repro.core.sweep", "extend_sweep_plan", "sweep.extend", _plan_shape),
    ("repro.core.gdb", "gdb_refine", "gdb.refine", _sweeps),
    ("repro.core.gdb", "gdb_refine_warm", "gdb.warm", _sweeps),
    ("repro.core.emd_sparsifier", "emd", "emd", None),
    ("repro.core.delta", "apply_delta", "delta.apply", None),
    ("repro.core.maintain", "IncrementalSparsifier.apply", "maintain.apply", _churn),
    ("repro.sampling.monte_carlo", "MonteCarloEstimator.run", "mc.run", _mc_run),
    ("repro.sampling.worlds", "WorldSampler.sample_mask_matrix", "mc.sample",
     _mask_matrix),
    ("repro.queries.base", "evaluate_query_batch", "mc.kernel", None),
    ("repro.server.service", "SparsifierService.handle", "service.handle", None),
    ("repro.server.service", "SparsifierService.update", "service.update", None),
    ("repro.server.service", "SparsifierService._run_sparsify",
     "service.sparsify", None),
    ("repro.server.service", "SparsifierService._run_estimate",
     "service.estimate", None),
    ("repro.server.cache", "ArtifactCache.get_or_compute", "cache.lookup", _lookup),
    ("repro.server.cache", "ArtifactCache.invalidate", "cache.invalidate",
     _invalidated),
    ("repro.server.queue", "PriorityJobQueue.finish", "queue.finish", _job_outcome),
)


class NullTracer:
    """The untraced run's tracer: installs nothing, records nothing."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext({})

    def phase(self, kind, index):
        return contextlib.nullcontext()

    def install(self):
        pass

    def uninstall(self):
        pass


class Tracer:
    """Records nested spans; :meth:`install` patches the layer entry points."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._phase = None
        self._patches: list[tuple] = []
        self.t0 = time.perf_counter()

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.get_ident(),
            "phase": self._phase,
            "start": time.perf_counter() - self.t0,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.t0
            stack.pop()
            self.spans.append(record)

    @contextlib.contextmanager
    def phase(self, kind, index):
        """Attribute every span opened meanwhile (in any thread) to a phase."""
        self._phase = (kind, index)
        try:
            yield
        finally:
            self._phase = None

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(record, args, kwargs, result)
                return result

        return traced

    def install(self):
        """Wrap every entry point of :data:`LAYER_ENTRY_POINTS`.

        An entry point the program no longer has is listed in
        :attr:`missing` (its metrics then read 0) instead of failing the
        run.
        """
        if self._patches:
            return
        self.missing = []
        modules = {}
        for module_name, *_ in LAYER_ENTRY_POINTS:
            # Import every module first: one imported after a patch would
            # bind the wrapper by name and keep it past uninstall().
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        for module_name, path, name, hook in LAYER_ENTRY_POINTS:
            try:
                module = modules[module_name]
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, name, hook)
            if owner_name:
                targets = [owner]
            else:
                targets = [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod_name.split(".")[0] == "repro" and mod is not None
                ]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original and (owner_name == "" or key == attr):
                        setattr(target, key, wrapper)
                        self._patches.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches = []


# -- per-layer metrics ----------------------------------------------------------
def _self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part its direct children cover."""
    child_time: dict = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    return {
        span["id"]: span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        for span in spans
    }


#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "io.parse_s": "s",
    "backbone.plan_s": "s",
    "backbone.forests": "count",
    "backbone.repair_s": "s",
    "state.init_s": "s",
    "state.apply_delta_s": "s",
    "state.materialise_s": "s",
    "sweep.color_s": "s",
    "sweep.colors": "count",
    "sweep.tail_edges": "count",
    "sweep.extend_s": "s",
    "gdb.refine_s": "s",
    "gdb.sweeps": "count",
    "gdb.ms_per_sweep": "ms",
    "gdb.warm_s": "s",
    "gdb.warm_sweeps": "count",
    "emd.e_phase_s": "s",
    "emd.m_phase_s": "s",
    "emd.m_sweeps": "count",
    "emd.iterations": "count",
    "mc.RL_orig_s": "s",
    "mc.RL_sparse_s": "s",
    "mc.SP_orig_s": "s",
    "mc.SP_sparse_s": "s",
    "mc.CC_orig_s": "s",
    "mc.CC_sparse_s": "s",
    "mc.PR_orig_s": "s",
    "mc.PR_sparse_s": "s",
    "mc.sample_s": "s",
    "mc.kernel_s": "s",
    "mc.edge_worlds_per_s": "1/s",
    "delta.apply_s": "s",
    "maintain.churn": "count",
    "service.copy_s": "s",
    "service.digest_s": "s",
    "service.sparsify_s": "s",
    "cache.hit_rate": "ratio",
    "cache.invalidations": "count",
    "queue.completed": "count",
    "queue.failed": "count",
    "trace.spans_per_op": "count",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans: list[dict], sparse_graphs=()) -> dict:
    """Per-operation layer numbers from the spans of the traced operations.

    Times are self times (a span minus its wrapped children) summed over
    the traced operations and divided by their count; counts are per
    operation too.  ``io.parse_s`` is taken over the set-up repetitions
    instead.  ``sparse_graphs`` are the graph objects Monte-Carlo runs on
    the sparse side were made on; every other run counts as "orig".
    """
    self_time = _self_times(spans)
    by_id = {span["id"]: span for span in spans}
    ops = {s["phase"][1] for s in spans if s["phase"] and s["phase"][0] == "op"}
    setups = {s["phase"][1] for s in spans if s["phase"] and s["phase"][0] == "setup"}
    n_ops = max(len(ops), 1)
    sparse_ids = {id(g) for g in sparse_graphs}

    def under(span, name):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == name:
                return True
            parent = by_id[parent]["parent"]
        return False

    op_spans = [s for s in spans if s["phase"] and s["phase"][0] == "op"]
    named: dict[str, list] = {}
    for span in op_spans:
        named.setdefault(span["name"], []).append(span)

    def total_self(name, keep=lambda s: True):
        return sum(self_time[s["id"]] for s in named.get(name, []) if keep(s))

    def total(name, key, keep=lambda s: True):
        return sum(s.get(key, 0) for s in named.get(name, []) if keep(s))

    def duration(span):
        return span["end"] - span["start"]

    out = {name: 0.0 for name in LAYER_METRICS}
    parse = [s for s in spans if s["name"] == "io.parse"
             and s["phase"] and s["phase"][0] == "setup"]
    out["io.parse_s"] = sum(map(duration, parse)) / max(len(setups), 1)

    not_emd = lambda s: not under(s, "emd")  # noqa: E731
    forests_per_op: dict = {}
    for span in named.get("backbone.plan", []):
        op = span["phase"][1]
        forests_per_op[op] = max(forests_per_op.get(op, 0), span.get("forests", 0))
    out["backbone.plan_s"] = total_self("backbone.plan") / n_ops
    out["backbone.forests"] = sum(forests_per_op.values()) / n_ops
    out["backbone.repair_s"] = total_self("backbone.repair") / n_ops
    out["state.init_s"] = total_self("state.init") / n_ops
    out["state.apply_delta_s"] = total_self("state.apply_delta") / n_ops
    out["state.materialise_s"] = total_self("state.materialise") / n_ops
    out["sweep.color_s"] = total_self("sweep.plan") / n_ops
    out["sweep.colors"] = total("sweep.plan", "colors") / n_ops
    out["sweep.tail_edges"] = total("sweep.plan", "tail_edges") / n_ops
    out["sweep.extend_s"] = total_self("sweep.extend") / n_ops
    refine_s = total_self("gdb.refine", not_emd)
    sweeps = total("gdb.refine", "sweeps", not_emd)
    out["gdb.refine_s"] = refine_s / n_ops
    out["gdb.sweeps"] = sweeps / n_ops
    out["gdb.ms_per_sweep"] = 1e3 * refine_s / sweeps if sweeps else 0.0
    out["gdb.warm_s"] = total_self("gdb.warm") / n_ops
    out["gdb.warm_sweeps"] = total("gdb.warm", "sweeps") / n_ops

    m_phase = [s for s in named.get("gdb.refine", []) if under(s, "emd")]
    out["emd.e_phase_s"] = total_self("emd") / n_ops
    out["emd.m_phase_s"] = sum(map(duration, m_phase)) / n_ops
    out["emd.m_sweeps"] = sum(s.get("sweeps", 0) for s in m_phase) / n_ops
    # Each E/M round runs one M-phase; the last call is the final
    # fully-converged refine that follows the stopping round.
    out["emd.iterations"] = max(len(m_phase) - len(named.get("emd", [])), 0) / n_ops

    mc_time = 0.0
    for span in named.get("mc.run", []):
        kind = "sparse" if span.get("graph_id") in sparse_ids else "orig"
        key = f"mc.{span.get('query')}_{kind}_s"
        if key in out:
            out[key] += duration(span) / n_ops
        mc_time += duration(span)
    out["mc.sample_s"] = total_self("mc.sample") / n_ops
    out["mc.kernel_s"] = total_self("mc.kernel") / n_ops
    edge_worlds = total("mc.sample", "edge_worlds")
    out["mc.edge_worlds_per_s"] = edge_worlds / mc_time if mc_time else 0.0

    in_update = lambda s: under(s, "service.update")  # noqa: E731
    out["delta.apply_s"] = total_self("delta.apply", lambda s: not in_update(s)) / n_ops
    out["service.copy_s"] = total_self("delta.apply", in_update) / n_ops
    out["maintain.churn"] = total("maintain.apply", "churn") / n_ops
    out["service.digest_s"] = total_self("io.digest") / n_ops
    out["service.sparsify_s"] = sum(
        map(duration, named.get("service.sparsify", []))) / n_ops
    lookups = named.get("cache.lookup", [])
    hits = sum(1 for s in lookups if s.get("hit"))
    out["cache.hit_rate"] = hits / len(lookups) if lookups else 0.0
    out["cache.invalidations"] = total("cache.invalidate", "invalidated") / n_ops
    finished = named.get("queue.finish", [])
    failed = sum(1 for s in finished if s.get("failed"))
    out["queue.completed"] = (len(finished) - failed) / n_ops
    out["queue.failed"] = failed / n_ops
    out["trace.spans_per_op"] = len(op_spans) / n_ops
    return out
