"""Public API surface: exports resolve, docstrings exist, version sane."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.baselines",
    "repro.sampling",
    "repro.queries",
    "repro.metrics",
    "repro.datasets",
    "repro.experiments",
    "repro.utils",
]


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} missing docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_public_callables_documented(module_name):
    """Every public class/function exported by a subpackage has a docstring."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{module_name}.{name} missing docstring"


#: Parameters that only chose between implementations: the Monte-Carlo
#: engines, the sparsifier and parser engines, the binary dataset's
#: materialised graph, the backbone plan a caller built, and the LP
#: solver (HiGHS is the only one).
REMOVED_ENGINE_PARAMETERS = {
    "batched", "bfs_kernel", "kernel", "engine", "materialise",
    "backbone_plan", "lp_solver", "solver",
}


def _signatures(obj):
    """``(label, signature)`` of a public function, or of a class's
    constructor and public methods."""
    if inspect.isfunction(obj):
        yield obj.__qualname__, inspect.signature(obj)
        return
    for name, member in vars(obj).items():
        if inspect.isfunction(member) and (name == "__init__" or not name.startswith("_")):
            yield f"{obj.__qualname__}.{name}", inspect.signature(member)


#: Experiment modules with public drivers that ``repro.experiments``
#: does not export (``structural_comparison``, ``entropy_vs_alpha``, ...).
EXPERIMENT_MODULES = [
    f"repro.experiments.{name}"
    for name in ("fig04", "fig06", "fig07", "fig08", "table2")
]


@pytest.mark.parametrize("module_name", SUBPACKAGES + EXPERIMENT_MODULES)
def test_no_engine_selection_parameters(module_name):
    """One implementation per layer: no public callable picks another."""
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", None) or [
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and getattr(obj, "__module__", None) == module_name
    ]
    for name in names:
        obj = getattr(module, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        for label, signature in _signatures(obj):
            taken = REMOVED_ENGINE_PARAMETERS & set(signature.parameters)
            assert not taken, f"{module_name}.{label} takes {sorted(taken)}"


def test_one_graph_type(tmp_path):
    """The binary loader and the text parser give the same class."""
    import repro.core
    from repro.core import UncertainGraph
    from repro.datasets import read_binary, write_binary

    assert not hasattr(repro.core, "EdgeArrayGraph")
    assert "EdgeArrayGraph" not in repro.core.__all__
    path = tmp_path / "g.rpbg"
    write_binary(UncertainGraph([(0, 1, 0.5), (1, 2, 0.25)]), path)
    graph = read_binary(path, mmap=True).graph()
    assert type(graph) is UncertainGraph


def test_one_backbone_builder():
    """Algorithm 1's scalar form and the per-method builders live only in
    the test oracles; ``BackbonePlan.backbone`` builds every backbone."""
    import repro.baselines
    import repro.core
    import repro.core.backbone
    import repro.utils
    import repro.utils.unionfind
    from repro.core import IncrementalSparsifier

    scalar = ("bgi_backbone_legacy", "maximum_spanning_forest",
              "random_backbone", "local_degree_backbone")
    gone = {
        repro.core: scalar,
        repro.core.backbone: scalar + ("_mc_top_up",),
        repro.utils: ("UnionFind",),
        repro.utils.unionfind: ("UnionFind",),
        repro.baselines: ("representative_instance",),
    }
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.baselines.representative")
    assert "top_up" not in inspect.signature(IncrementalSparsifier).parameters


def test_one_backbone_plan_per_graph():
    """The graph's plan is the only one: no builder takes a plan, no
    sparsifier a precomputed backbone, and the plan-threading helpers
    are gone."""
    import repro.experiments.common
    from repro.core import VariantSpec, bgi_backbone, build_backbone, sparsify
    from repro.experiments import run_fig04a, run_fig04b
    from repro.server import SparsifierService

    for fn in (build_backbone, bgi_backbone):
        assert "plan" not in inspect.signature(fn).parameters
    assert "backbone" not in inspect.signature(sparsify).parameters
    for fn in (run_fig04a, run_fig04b):
        assert "backbone_plan" not in inspect.signature(fn).parameters
    assert not hasattr(repro.experiments.common, "plan_for_variant")
    for name in ("accepts_plan", "accepts_backbone"):
        assert not hasattr(VariantSpec, name)
    assert not hasattr(SparsifierService, "_plan_for")


def test_experiment_drivers_take_no_lp_solver():
    """The experiment drivers always ran the exact LP solver."""
    drivers = {
        "fig04": ("run_fig04a", "run_fig04b", "run_fig04"),
        "fig06": ("structural_comparison", "run_fig06"),
        "fig07": ("run_fig07",),
        "fig08": ("entropy_vs_alpha", "entropy_vs_density", "run_fig08"),
        "table2": ("run_table2",),
    }
    for module_name, names in drivers.items():
        module = importlib.import_module(f"repro.experiments.{module_name}")
        for name in names:
            parameters = inspect.signature(getattr(module, name)).parameters
            assert "lp_solver" not in parameters, name


#: The per-edge mutators, the edit buffer behind them and the helpers
#: only tests called: a graph is built once and changed only through
#: ``apply_delta``.
REMOVED_GRAPH_NAMES = {
    "add_vertex", "add_edge", "set_probability", "set_probabilities",
    "remove_edge", "remove_vertex", "_flush", "_invalidate_caches",
    "_own_labels", "total_probability", "to_networkx", "from_networkx",
}


def test_graph_changes_only_through_apply_delta():
    from repro.core import UncertainGraph
    from repro.core.delta import AppliedDelta, EdgeDeltaBatch

    graph = UncertainGraph([(0, 1, 0.5)])
    assert not REMOVED_GRAPH_NAMES & set(dir(UncertainGraph))
    assert not {"_upd", "_dele", "_ins", "_labels_shared"} & set(vars(graph))
    assert not hasattr(EdgeDeltaBatch, "is_empty")
    assert not hasattr(AppliedDelta, "update_eids_new")


def test_world_batch_has_no_test_only_helpers():
    """``edge_counts`` only served tests: ``masks.sum(axis=1)`` is it."""
    from repro.sampling import WorldBatch

    assert not hasattr(WorldBatch, "edge_counts")


#: Run in a fresh interpreter: which scipy modules each step loads.
_SCIPY_PROBE = r"""
import sys

def scipy_modules():
    return {name for name in sys.modules if name.split(".")[0] == "scipy"}

import repro, repro.cli, repro.server.service, repro.core.maintain
assert not scipy_modules(), sorted(scipy_modules())[:5]

from repro.core import lp_sparsify
from repro.datasets import flickr_like
from repro.queries import ReliabilityQuery
from repro.sampling import MonteCarloEstimator

graph = flickr_like(n=40, avg_degree=6, seed=1)
MonteCarloEstimator(graph, n_samples=16).run(ReliabilityQuery([(0, 1)]), rng=0)
loaded = scipy_modules()
assert "scipy.sparse.csgraph" in loaded, sorted(loaded)
assert "scipy.optimize" not in loaded, sorted(loaded)
lp_sparsify(graph, alpha=0.5, rng=0)
assert "scipy.optimize" in sys.modules
"""


def test_scipy_loads_only_where_it_runs():
    """Importing the package, its CLI, server and maintainer loads no
    scipy; a reliability estimate loads ``scipy.sparse.csgraph`` and
    only the LP loads ``scipy.optimize``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parent.parent)]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_library_never_imports_test_oracles():
    package = Path(repro.__file__).parent
    pattern = re.compile(r"^\s*(from|import)\s+oracles\b", re.MULTILINE)
    offenders = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert not offenders


def test_exceptions_hierarchy():
    from repro.exceptions import (
        CalibrationError,
        EstimationError,
        GraphError,
        NotConnectedError,
        ProbabilityError,
        ReproError,
        SparsificationError,
    )

    assert issubclass(GraphError, ReproError)
    assert issubclass(ProbabilityError, GraphError)
    assert issubclass(NotConnectedError, GraphError)
    assert issubclass(CalibrationError, SparsificationError)
    assert issubclass(SparsificationError, ReproError)
    assert issubclass(EstimationError, ReproError)


def test_quickstart_docstring_example_runs():
    """The package docstring's example must stay true."""
    from repro import datasets, sparsify
    from repro.metrics import degree_discrepancy_mae

    g = datasets.twitter_like(n=200, seed=1)
    g_sparse = sparsify(g, alpha=0.3, variant="EMD^R-t", rng=1)
    assert degree_discrepancy_mae(g, g_sparse) < 0.5
