"""Examples stay present, expose a main() entry point, and run.

Each example runs end to end as its own process in a couple of seconds,
so a stale call into the library fails here rather than for a reader.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
SRC_DIR = EXAMPLES_DIR.parent / "src"
EXPECTED = [
    "quickstart.py",
    "router_network_reliability.py",
    "social_network_analysis.py",
    "protein_interaction_paths.py",
    "knn_friend_suggestions.py",
]


def test_all_expected_examples_exist():
    present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    for name in EXPECTED:
        assert name in present, name


@pytest.mark.parametrize("name", EXPECTED)
def test_example_compiles(name):
    source = (EXAMPLES_DIR / name).read_text(encoding="utf-8")
    compile(source, name, "exec")


@pytest.mark.parametrize("name", EXPECTED)
def test_example_has_docstring_and_main(name):
    tree = ast.parse((EXAMPLES_DIR / name).read_text(encoding="utf-8"))
    assert ast.get_docstring(tree), f"{name} missing module docstring"
    functions = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert "main" in functions, f"{name} missing main()"


@pytest.mark.parametrize("name", EXPECTED)
def test_example_only_uses_public_api(name):
    """Examples must not reach into underscore-private modules."""
    tree = ast.parse((EXAMPLES_DIR / name).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            assert not any(part.startswith("_") for part in node.module.split(".")), (
                f"{name} imports private module {node.module}"
            )
            for alias in node.names:
                assert not alias.name.startswith("_"), (
                    f"{name} imports private name {alias.name}"
                )


@pytest.mark.parametrize("name", EXPECTED)
def test_example_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
