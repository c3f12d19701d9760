"""Every name a package module imports is used in that module, every
private module-level function and constant is read somewhere in the
package, the modules of the certified integer paths import no numpy,
graphs is the only module that imports it, triangles imports only the
standard library, each module imports only the package modules of its
row in IMPORT_GRAPH and no private name of another, no module starts a
thread or a process, and every exception class of the package derives
from one base, the only package failure the CLI names.

Every result record is a named tuple with no instance dictionary, and no
module imports dataclasses, whose decorators generate code at import.

No linter ships with the package, so this walks the syntax tree instead.
`from __future__` imports and the re-exports of `__init__.py` are exempt.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "edgespectra"


def unused_imports(source: str, *, reexports: bool = False) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (reexports and node.level):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(), reexports=path.name == "__init__.py") == []


def test_unused_import_is_reported():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)", "path (line 2)"]
    assert unused_imports("from .x import y\n", reexports=True) == []


def _private_names(stmt: ast.stmt) -> list[str]:
    """Names with one leading underscore that a module-level statement
    defines: a function, or the targets of a constant's assignment."""
    if isinstance(stmt, ast.FunctionDef):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if name[:1] == "_" and name[:2] != "__"]


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and constants (one leading
    underscore) that no code of the given modules reads outside the
    function's own body or the constant's own assignment."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    refs = [(node, node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    dead = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            own = {id(node) for node in ast.walk(stmt)}
            for name in _private_names(stmt):
                if not any(ref == name and id(node) not in own for node, ref in refs):
                    dead.append(f"{mod}.{name}")
    return dead


def test_every_private_helper_is_used():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_helpers(sources) == []


def test_unreferenced_helper_is_reported():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead(k):\n    return _dead(k - 1)\n",
        "b": "from .a import _used\n\ndef _also_used():\n    return _used()\n\n"
             "class C:\n    def _method(self):\n        return a._also_used\n",
    }
    assert unreferenced_helpers(sources) == ["a._dead"]


def test_unread_constant_is_reported():
    sources = {
        "a": "_LIMIT = 3\n_ROWS = [1]\n_cap: int = 5\n__all__ = []\n\n"
             "def f():\n    global _ROWS\n    _ROWS = [0]\n    return _LIMIT\n",
        "b": "from . import a\n\ndef g():\n    return a._cap\n",
    }
    assert unreferenced_helpers(sources) == ["a._ROWS"]


# Modules whose answers are certificates: exact integers only, so neither
# numpy nor a package module that imports it.
EXACT_MODULES = ("certify", "cliquespec", "pell", "repcount", "squares", "triangles")


def fixed_width_imports(source: str) -> list[str]:
    """numpy imports, and relative imports of package modules outside
    EXACT_MODULES, in the given module source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "numpy":
                found.append(node.module)
            elif node.level and node.module not in EXACT_MODULES:
                found.append("." + (node.module or ""))
    return found


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_modules_import_no_numpy(module):
    assert fixed_width_imports((PACKAGE / f"{module}.py").read_text()) == []


def test_graphs_is_the_only_numpy_module():
    # the exhaustive small-graph scans are the package's one vectorised
    # code; every other module counts in Python ints
    importers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
                 if any(name[:1] != "." for name in fixed_width_imports(path.read_text()))]
    assert importers == ["graphs"]


def non_stdlib_imports(source: str) -> list[str]:
    """Relative imports, and imports of modules outside the standard
    library, in the given module source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                found.append("." * node.level + (node.module or ""))
            elif node.module.split(".")[0] not in sys.stdlib_module_names:
                found.append(node.module)
    return found


def test_triangles_imports_only_the_standard_library():
    # the predicates every certificate is re-checked by live here, so a
    # checker can import this one module without the rest of the package
    assert non_stdlib_imports((PACKAGE / "triangles.py").read_text()) == []


def test_non_stdlib_import_is_reported():
    source = ("from __future__ import annotations\nimport math, numpy\n"
              "from typing import Callable\nfrom .certify import tri\nfrom . import pell\n")
    assert non_stdlib_imports(source) == ["numpy", ".certify", "."]


def package_imports(source: str) -> set[str]:
    """The package modules the given module source imports by a relative
    import: x for "from .x import ..." and each name of "from . import"
    that is a package module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module)
            else:
                found |= {a.name for a in node.names if (PACKAGE / f"{a.name}.py").exists()}
    return found


#: Each module's package imports.  triangles is the base: the arithmetic,
#: the certificates, the walk budget and the memory cap live there, so a
#: module that needs only those imports nothing else of the package.
IMPORT_GRAPH = {"certify": {"triangles"}, "cliquespec": {"triangles"}, "pell": {"triangles"},
                "repcount": {"triangles"}, "squares": {"triangles"},
                "graphs": {"cliquespec", "triangles"}, "triangles": set()}


@pytest.mark.parametrize("module", sorted(IMPORT_GRAPH))
def test_import_graph(module):
    assert package_imports((PACKAGE / f"{module}.py").read_text()) == IMPORT_GRAPH[module]


def test_package_import_is_reported():
    source = ("from __future__ import annotations\nimport math\n"
              "from .triangles import tri\nfrom . import __version__, certify, graphs\n")
    assert package_imports(source) == {"triangles", "certify", "graphs"}


def sibling_private_names(source: str) -> list[str]:
    """Private names (one leading underscore) that the given module source
    takes from another package module: by "from .x import _name", or as
    x._name of a module x it imported by "from . import x"."""
    found, siblings = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [a.name for a in node.names if a.name.startswith("_")
                      and not a.name.startswith("__")]
            if not node.module:
                siblings |= {a.asname or a.name for a in node.names}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_a_private_name_of_another(path):
    assert sibling_private_names(path.read_text()) == []


def test_sibling_private_name_is_reported():
    source = ("from . import __version__, cliquespec\nfrom .triangles import _PART_BYTES, tri\n"
              "cliquespec._check_cap(1)\ncliquespec.spectrum(3, 2)\nx = tri.__name__\n")
    assert sibling_private_names(source) == ["_PART_BYTES", "cliquespec._check_cap"]


def test_numpy_import_is_reported():
    source = ("import math\nimport numpy as np\nfrom numpy.linalg import norm\n"
              "from .triangles import tri\nfrom .graphs import arrow\n")
    assert fixed_width_imports(source) == ["numpy", "numpy.linalg", ".graphs"]


# Every layer, table and campaign is built in the calling process and
# thread, so its output and its memory charge do not depend on the machine.
CONCURRENCY_MODULES = ("threading", "multiprocessing", "subprocess", "concurrent")
PROCESS_CALLS = ("fork", "sched_getaffinity")


def concurrency_uses(source: str) -> list[str]:
    """Imports of CONCURRENCY_MODULES, and reads of os.fork or
    os.sched_getaffinity, in the given module source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in CONCURRENCY_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            root = (node.module or "").split(".")[0]
            if root in CONCURRENCY_MODULES:
                found.append(node.module)
            elif root == "os":
                found += [f"os.{a.name}" for a in node.names if a.name in PROCESS_CALLS]
        elif (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"os.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_starts_no_threads_or_processes(path):
    assert concurrency_uses(path.read_text()) == []


def test_concurrency_use_is_reported():
    source = ("import os\nimport threading\nimport concurrent.futures\n"
              "from multiprocessing import Pool\nfrom subprocess import run\n"
              "from os import fork, getpid\n"
              "def f():\n    return os.fork() or len(os.sched_getaffinity(0)) or os.getpid()\n")
    assert concurrency_uses(source) == ["threading", "concurrent.futures", "multiprocessing",
                                        "subprocess", "os.fork", "os.fork", "os.sched_getaffinity"]


def test_every_package_exception_derives_from_one_base():
    from edgespectra import cli
    from edgespectra.triangles import EdgespectraError

    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("edgespectra" + ("" if path.stem == "__init__"
                                                          else "." + path.stem))
        defined.update({obj.__name__: obj for obj in vars(module).values()
                        if isinstance(obj, type) and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__})
    assert set(defined) == {"EdgespectraError", "PreconditionViolated", "WindowExhausted",
                            "DescentBudgetExceeded", "ScaleRejected", "SpectrumMemoryError",
                            "TupleBudgetExceeded", "RankBudgetExceeded", "DmBudgetExceeded"}
    assert all(issubclass(cls, EdgespectraError) for cls in defined.values())
    assert cli._FAILURES == (EdgespectraError, OverflowError, RecursionError)


#: The result records: immutable named tuples, built by tuple.__new__.
RECORDS = {
    "certify": ("PairMF", "TraceEntry", "Verdict", "TripleIdentity"),
    "cliquespec": ("CliquePartition", "EdgeSpectrum", "DensityReport", "IntervalReport"),
    "graphs": ("GraphMask", "ArrowResult", "RunReport", "TailCheck", "ConcentrationReport"),
    "pell": ("PellSolution", "FamilyPair", "ABCReport"),
    "repcount": ("RepHistogram", "ExceptionalReport"),
    "squares": ("ThreeSquareDecomp", "Witness7"),
    "triangles": ("UpperDecomp", "LowerDecomp"),
}
#: The package's other tuple classes, typing.NamedTuple rows of its tables.
TABLE_ROWS = {"certify": ("_Rule",), "cli": ("Command", "_OptionTable")}


def dataclass_imports(source: str) -> list[str]:
    """Imports of the dataclasses module in the given module source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "dataclasses":
            found += [f"dataclasses.{a.name}" for a in node.names]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_no_dataclasses(path):
    assert dataclass_imports(path.read_text()) == []


def test_dataclass_import_is_reported():
    source = ("import dataclasses as dc\nfrom dataclasses import dataclass, field\n"
              "from collections import namedtuple\nfrom .dataclasses import x\n")
    assert dataclass_imports(source) == ["dataclasses", "dataclasses.dataclass",
                                         "dataclasses.field"]


def test_every_record_is_a_slotted_tuple():
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "edgespectra" + ("" if path.stem == "__init__" else "." + path.stem)
        module = importlib.import_module(name)
        defined.update({f"{path.stem}.{obj.__name__}": obj for obj in vars(module).values()
                        if isinstance(obj, type) and issubclass(obj, tuple)
                        and obj.__module__ == name})
    records = {f"{mod}.{cls}" for mod, names in RECORDS.items() for cls in names}
    assert len(records) == 22
    assert set(defined) == records | {f"{mod}.{cls}" for mod, names in TABLE_ROWS.items()
                                      for cls in names}
    for name in records:
        cls = defined[name]
        assert vars(cls).get("__slots__") == (), name  # its own, not only its base's
        assert cls.__dictoffset__ == 0 and len(cls._fields) >= 2, name
