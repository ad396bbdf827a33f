"""Source hygiene: every name a library or test module imports is used in
it, and every library function has a caller in the library."""

import ast
import importlib.util
import io
import json
import re
import subprocess
import sys
import tokenize
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


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level package of every absolute import in the code."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def _declared_dependencies() -> set[str]:
    """The distribution names in the [project] dependencies of
    pyproject.toml, without their version specifiers."""
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    listed = ast.literal_eval(re.search(r"^dependencies = (\[.*?\])", text, re.M | re.S).group(1))
    return {re.split(r"[ <>=!~;\[]", dep, maxsplit=1)[0].lower() for dep in listed}


def test_dependencies_are_exactly_the_non_stdlib_imports():
    # no library module imports numpy, and pyproject.toml declares exactly
    # the packages the library imports from outside the standard library:
    # none, so the package runs on the standard library alone
    imported = set().union(
        *(imported_modules(ast.parse(path.read_text(), filename=str(path))) for path in LIBRARY)
    )
    assert "numpy" not in imported
    outside = imported - set(sys.stdlib_module_names) - {"braidrook"}
    assert outside == _declared_dependencies() == set()


def test_importing_the_package_loads_no_numpy():
    # in a fresh interpreter, from this checkout, with every module imported
    src = str(Path(braidrook.__file__).parent.parent)
    modules = ", ".join(f"braidrook.{path.stem}" for path in LIBRARY if path.stem != "__init__")
    probe = f"import sys; sys.path.insert(0, {src!r}); import {modules}; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_only_modlinalg_names_the_listed_primes():
    # both mod-p certificates take their prime from _modlinalg.lower_bound,
    # the one loop over the listed primes
    names = {"SANDWICH_PRIMES", "is_p_integral"}
    readers = {
        path.stem
        for path in LIBRARY
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
    }
    assert readers == {"_modlinalg"}


def test_detector_finds_every_form_of_a_numpy_import():
    for source in (
        "import numpy\n",
        "import numpy.linalg as la\n",
        "from numpy import zeros\n",
        "def f():\n    import os, numpy as np\n    return np, os\n",
    ):
        assert "numpy" in imported_modules(ast.parse(source)), source
    assert "numpy" not in imported_modules(ast.parse("from . import numpy_free\nimport numpyish\n"))


# Library functions whose only callers are tests, each waiting to join a
# release criterion or to move into the tests. Do not add to this list:
# move a test-only helper into the tests instead.
TEST_ONLY_ALLOWED: set[str] = set()


def _imported_from(node: ast.ImportFrom) -> str | None:
    """The package module an ImportFrom reads from: "linalg" for
    `from .linalg import x` or `from braidrook.linalg import x`, "" for
    `from . import linalg`, None outside the package."""
    if node.level:
        return node.module or ""
    if node.module and node.module.split(".")[0] == "braidrook":
        return node.module.partition(".")[2]
    return None


def references(module: str, tree: ast.AST) -> Counter:
    """How often the code of module refers to each function: a function
    f of module m as ("m", "f"), a method as (None, "name"). A bare name
    is a function of module, or the function that `from .m import f`
    binds to it; an attribute m.f where `from . import m` binds m is the
    function f of m; any other attribute load is a method."""
    bound, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := _imported_from(node)) is not None:
            for alias in node.names:
                name = alias.asname or alias.name
                if source:
                    bound[name] = (source, alias.name)
                else:
                    modules[name] = alias.name
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[bound.get(node.id, (module, node.id))] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            value = node.value
            if isinstance(value, ast.Name) and value.id in modules:
                out[(modules[value.id], node.attr)] += 1
            else:
                out[(None, node.attr)] += 1
    return out


def unreferenced_functions(trees: dict[str, ast.Module]) -> set[str]:
    """Functions and methods (dunders aside) that no code outside their
    own body refers to, as "module.function" or "module.Class.method"."""
    total = sum((references(module, tree) for module, tree in trees.items()), Counter())
    out = set()
    for module, tree in trees.items():
        methods = {
            id(item): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            cls = methods.get(id(node))
            key = (None, name) if cls else (module, name)
            if total[key] == references(module, node)[key]:
                out.add(f"{module}.{cls}.{name}" if cls else f"{module}.{name}")
    return out


def test_every_library_function_has_a_library_caller():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in LIBRARY}
    flagged = {
        qualified
        for qualified in unreferenced_functions(trees)
        if qualified.split(".")[-1] not in TEST_ONLY_ALLOWED
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


def test_detector_resolves_shadowed_names():
    # every function below shares its name with something that is
    # referenced; only the references that reach it count
    source = (
        "def rank(m):\n"  # only the method is loaded, as p.rank
        "    return 0\n"
        "def det(m):\n"  # reached through `det as determinant`
        "    return 1\n"
        "def trace(m):\n"  # reached as a.trace
        "    return 2\n"
        "class Part:\n"
        "    def __init__(self, entries):\n"
        "        self.e = entries\n"  # a parameter, not the method
        "    def rank(self):\n"
        "        return 1\n"
        "    def det(self):\n"  # b's determinant is a.det
        "        return 0\n"
        "    def entries(self):\n"
        "        return self.e\n"
    )
    other = (
        "from . import a\n"
        "from .a import det as determinant\n"
        "def caller(p):\n"
        "    return p.rank() + determinant(p) + a.trace(p)\n"
    )
    trees = {"a": ast.parse(source), "b": ast.parse(other)}
    assert unreferenced_functions(trees) == {"a.rank", "a.Part.det", "a.Part.entries", "b.caller"}


# Imports of a package module inside a library function body, as
# (module, function, imported module). Such an import hides a cycle that a
# module-level import would refuse. The one left goes with the certified
# nullspace engine (ROADMAP.md item 7). Do not add to this list.
LAZY_IMPORTS_ALLOWED = {("linalg", "nullspace_of_rows", "_modlinalg")}


def lazy_package_imports(module: str, tree: ast.Module) -> set[tuple[str, str, str]]:
    """(module, function, imported module) for each import of a package
    module in the body of a function of module, nested functions included."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.ImportFrom) and (source := _imported_from(inner)) is not None:
                out |= {(module, node.name, source or alias.name) for alias in inner.names}
            elif isinstance(inner, ast.Import):
                out |= {
                    (module, node.name, alias.name.partition(".")[2])
                    for alias in inner.names
                    if alias.name.startswith("braidrook.")
                }
    return out


def test_no_library_function_imports_a_package_module():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in LIBRARY}
    found = set().union(*(lazy_package_imports(module, tree) for module, tree in trees.items()))
    extra = sorted(found - LAZY_IMPORTS_ALLOWED)
    assert not extra, f"package imports inside library functions: {extra}"


def test_detector_flags_every_form_of_a_lazy_package_import():
    source = (
        "import json\n"
        "from .linalg import rref\n"
        "def f():\n"
        "    import os\n"
        "    from .cellular import g\n"
        "    from . import _modlinalg\n"
        "    import braidrook.tensor\n"
        "    return json, rref, os, g, _modlinalg, braidrook\n"
    )
    assert lazy_package_imports("a", ast.parse(source)) == {
        ("a", "f", "cellular"),
        ("a", "f", "_modlinalg"),
        ("a", "f", "tensor"),
    }


PACKAGE = sorted(path.stem for path in LIBRARY if path.stem != "__init__")
# module.name, or braidrook.module.name, with any further .attribute; a
# word glued to the front or a path (src/braidrook/tensor.py) is not one
DOTTED = re.compile(r"(?<![\w./])(?:braidrook\.)?(" + "|".join(PACKAGE) + r")((?:\.[A-Za-z_]\w*)+)")
README = Path(__file__).resolve().parents[1] / "README.md"


def prose(source: str) -> list[str]:
    """The comments and the docstrings of a module's source. The code is
    left out: a local name such as the parser `burau` of cli.build_parser
    is no reference to the module."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    out = [tok.string for tok in tokens if tok.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(ast.get_docstring(node, clean=False) or "")
    return out


def dangling_references(text: str) -> list[str]:
    """Each module.name.more of text, module a package module, that does
    not resolve attribute by attribute; the file name module.py is none."""
    out = []
    for match in DOTTED.finditer(text):
        module, attrs = match.groups()
        if attrs == ".py":
            continue
        obj = importlib.import_module(f"braidrook.{module}")
        for attr in attrs[1:].split("."):
            if not hasattr(obj, attr):
                out.append(match.group(0))
                break
            obj = getattr(obj, attr)
    return out


@pytest.mark.parametrize("path", [*LIBRARY, README], ids=lambda p: p.name)
def test_every_module_reference_in_the_prose_resolves(path):
    # a docstring, comment or README line that names a deleted or renamed
    # function fails here
    source = path.read_text()
    texts = [source] if path == README else prose(source)
    dangling = [ref for text in texts for ref in dangling_references(text)]
    assert not dangling, f"{path.name}: references to nothing: {dangling}"


def test_detector_flags_a_dangling_reference():
    source = (
        "# burau.no_such_name, in a comment\n"
        "def f(parser):\n"
        '    """Calls braidrook.tensor.no_such_name and linalg.VectorSpan.add."""\n'
        "    burau = parser.add_parser('burau')\n"
        "    return burau.set_defaults, diagrams.no_such_name\n"
    )
    found = [ref for text in prose(source) for ref in dangling_references(text)]
    assert sorted(found) == ["braidrook.tensor.no_such_name", "burau.no_such_name"]
    assert dangling_references("see src/braidrook/tensor.py and tensor.py, then burau.row_window.") == []


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_probe_resolves(monkeypatch):
    # the benchmark's tracer records a probe whose function is gone as
    # absent and drops its metrics; a rename in the library fails here
    tracer = _load_tracer(monkeypatch)
    assert tracer.PROBES
    missing = [
        f"{p.module}.{p.attr}" for p in tracer.PROBES if tracer.Tracer._resolve(p)[2] is None
    ]
    assert not missing, f"tracer probes that resolve to nothing: {missing}"


def test_a_traced_verdict_reports_every_benchmark_layer(monkeypatch):
    # a benchmark run is refused when a per-layer metric it declares is
    # missing from the traced records
    tracer = _load_tracer(monkeypatch)
    from braidrook import tensor
    from braidrook.burau import BurauParams

    params = BurauParams.preset(3)
    with tracer.Tracer() as traced:
        with traced.span(tracer.ROOT_SPAN):
            assert tensor.duality_report(3, 2, params)["all_pass"]
    assert traced.absent == []
    declared = {layer["name"] for layer in json.loads(BENCHMARK.read_text())["per_layer"]}
    missing = declared - set(traced.metrics())
    assert not missing, f"benchmark layers missing from a traced verdict: {sorted(missing)}"
