"""The benchmark harness reaches into apnforge; every name it takes from there must resolve.

The harness scripts are not collected here, so a rename in ``src/`` would
otherwise surface only when the benchmark runs.  Each script is parsed,
not run: its ``from apnforge... import name`` lines, and the attributes it
reads off an imported apnforge module (``cli.RunConfig``), are looked up.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module: str, path: str):
    """The object at a dotted attribute path below a module; a submodule counts too."""
    obj = importlib.import_module(module)
    for part in path.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            if not isinstance(obj, types.ModuleType):
                raise
            obj = importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def _apnforge_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, dotted path) for every name the script imports from apnforge or reads off one."""
    names, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "apnforge":
            for alias in node.names:
                names.append((node.module, alias.name))
                bound[alias.asname or alias.name] = (node.module, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                module, name = bound[node.value.id]
                names.append((module, f"{name}.{node.attr}"))
    return names


@pytest.mark.parametrize("script", ["replay.py", "child.py"])
def test_harness_names_from_apnforge_resolve(script):
    names = _apnforge_names(ast.parse((HARNESS / script).read_text()))
    assert names, f"{script} imports nothing from apnforge"
    missing = set()
    for module, name in names:
        try:
            _resolve(module, name)
        except (AttributeError, ModuleNotFoundError):
            missing.add(f"{module}.{name}")
    assert not missing, f"{script} uses names apnforge no longer has: {sorted(missing)}"
