"""Static checks of the package's modules and of the test files' imports.

Every name a module or a test file imports is used or re-exported, and no
module has an assert statement or reads `__debug__`: limits and invariants
must survive `python -O`, which must run the same package code.  The
renderer, the labels, the closed forms and the CLI import no numpy, so the
net path and the closed-form counts can one day run without it.  The
closed forms import no other module of the package, so any of them can
import them.  No function is memoized but the CLI's parser, so the class
ladder is the package's one data cache.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "hexaflex").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == set()


def test_sources_parse_at_the_python_floor():
    # requires-python in pyproject.toml is >= 3.10
    for path in SOURCES + TESTS:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stripped = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert stripped == []


def _imported_modules(name: str) -> set[str]:
    """Every module a package module imports; a relative one keeps its leading dots."""
    tree = ast.parse((ROOT / "src" / "hexaflex" / name).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    return modules


@pytest.mark.parametrize("name", ["render.py", "labeling.py", "counting.py", "cli.py"])
def test_no_numpy_in_pure_python_modules(name):
    # pure Python here is also the faster choice: a numpy render measured slower;
    # the closed forms are exact Python ints and must not import numpy either,
    # and the CLI leaves every array to the modules it calls
    assert not {m for m in _imported_modules(name) if m.split(".")[0] == "numpy"}


def test_counting_imports_no_other_package_module():
    # sequences imports counting, so counting importing any of them would risk a cycle
    modules = _imported_modules("counting.py")
    assert not {m for m in modules if m.startswith(".") or m.split(".")[0] == "hexaflex"}


def _memoized_functions(tree: ast.Module) -> list[str]:
    """Functions with a cache or lru_cache decorator, bare or as an attribute, called or not."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = getattr(target, "attr", getattr(target, "id", ""))
                if name in ("cache", "lru_cache"):
                    names.append(node.name)
    return names


def test_no_memoized_function_but_the_parser():
    # cli._build_parser stays memoized: net ops build the parser on every run() call
    memoized = {
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in _memoized_functions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert memoized == {"cli._build_parser"}
