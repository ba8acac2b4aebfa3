"""Static checks of the package's modules.

Every name a module imports is used or re-exported, and no module has an
assert statement: limits and invariants must survive `python -O`.  The
renderer, the labels and the closed forms import no numpy, so the net path
and the closed-form counts can one day run without it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "hexaflex").glob("*.py"))


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return imported - used - exported


def test_package_modules_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "__main__.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == set()


def test_sources_parse_at_the_python_floor():
    # requires-python in pyproject.toml is >= 3.10
    for path in SOURCES + sorted((ROOT / "tests").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("name", ["render.py", "labeling.py", "counting.py"])
def test_no_numpy_in_pure_python_modules(name):
    # pure Python here is also the faster choice: a numpy render measured slower;
    # the closed forms are exact Python ints and must not import numpy either
    tree = ast.parse((ROOT / "src" / "hexaflex" / name).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert not {m for m in modules if m.split(".")[0] == "numpy"}
