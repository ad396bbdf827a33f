"""Source hygiene: every name a library or test module imports is used in it."""

import ast
from pathlib import Path

import pytest

import braidrook

MODULES = sorted(Path(braidrook.__file__).parent.glob("*.py"))
MODULES += sorted(Path(__file__).parent.glob("*.py"))


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
