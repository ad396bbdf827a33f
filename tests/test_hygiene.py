"""Source hygiene: every name a library or test module imports is used in
it, and every library function has a caller in the library."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import braidrook

LIBRARY = sorted(Path(braidrook.__file__).parent.glob("*.py"))
MODULES = LIBRARY + sorted(Path(__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (other than __future__) -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.AST) -> set[str]:
    """Every bare name the code loads, including inside quoted annotations
    such as -> "Matrix"."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_detector_flags_an_unused_import():
    source = (
        "from math import comb, factorial\n"
        "from fractions import Fraction\n"
        "import os.path\n"
        "def f(x: 'Fraction') -> int:\n"
        "    return comb(4, 2) if x else 'factorial'\n"
    )
    tree = ast.parse(source)
    assert set(imported_names(tree)) - used_names(tree) == {"factorial", "os"}


# Library functions whose only callers are tests, each waiting to join a
# release criterion or to move into the tests. Do not add to this list:
# move a test-only helper into the tests instead.
TEST_ONLY_ALLOWED = {
    "form_matrix",
    "form_value",
    "reflection",
    "change_of_basis",
    "star",
    "leaf_counts",
}


def referenced_names(tree: ast.AST) -> Counter:
    """How often each name is loaded, bare or as an attribute."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def unreferenced_functions(trees: dict[str, ast.Module]) -> set[str]:
    """Functions and methods (dunders aside) whose name no code outside
    their own body refers to; matched by name only, so a name shared with
    anything that is referenced counts as used."""
    total = sum((referenced_names(tree) for tree in trees.values()), Counter())
    out = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] == referenced_names(node)[name]:
                out.add(f"{module}.{name}")
    return out


def test_every_library_function_has_a_library_caller():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in LIBRARY}
    flagged = {
        qualified
        for qualified in unreferenced_functions(trees)
        if qualified.split(".")[1] not in TEST_ONLY_ALLOWED
        # the console-script entry point and the subcommand handlers
        and qualified != "cli.main"
        and not qualified.startswith("cli.cmd_")
    }
    assert not flagged, f"library functions with no library caller: {sorted(flagged)}"


def test_detector_flags_a_test_only_function():
    source = (
        "def used(x):\n"
        "    return x\n"
        "def recursive(k):\n"
        "    return recursive(k - 1) if k else used(0)\n"
        "class C:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    def method(self):\n"
        "        return self\n"
    )
    other = "def caller(c):\n    return c.method()\n"
    trees = {"a": ast.parse(source), "b": ast.parse(other)}
    assert unreferenced_functions(trees) == {"a.recursive", "b.caller"}
