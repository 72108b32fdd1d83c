"""Static checks on the package source, its tests and its README: every
name a module imports is read in that module (__init__.py is skipped,
since it only imports modules, and so are ``from __future__`` imports),
every function, class and method the package defines is named somewhere
besides its definition in the package's modules or the benchmark, so that
no name is kept only for tests, every name the package and its tests read
from a specnorm module is defined there, and every ``module.attr`` the
README names in backticks resolves."""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import specnorm

MODULES = sorted(p for p in Path(specnorm.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(specnorm.__file__).resolve().parents[2]
README = ROOT / "README.md"
# a dotted name right after a backtick, not followed by more of a name or
# by a glob such as laws.check_*
_DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?![\w*])")


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds a
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_scanner_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\nimport os.path\n"
        "from . import fourier\nfrom .x import y as z\n"
        "def f(a: fourier.RealFn):\n    return np.zeros(z)\n"
    )
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list[str]:
    """The top-level functions and classes of source and the methods of its
    top-level classes, dunders aside."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body if isinstance(m, defs[:2])]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unreferenced(names: list[str], texts: list[str]) -> list[str]:
    """The names that occur in texts, as whole words, only in a def or
    class statement, sorted."""
    text = "\n".join(texts)
    words = Counter(re.findall(r"\w+", text))
    defined = Counter(re.findall(r"\b(?:def|class)\s+(\w+)", text))
    return sorted({n for n in names if words[n] == defined[n]})


def test_scanner_finds_an_unreferenced_definition():
    source = (
        "class A:\n    def __init__(self): pass\n    def used(self): pass\n"
        "    def unused(self): pass\ndef wrapper(): return A().used()\n"
    )
    assert definitions(source) == ["A", "used", "unused", "wrapper"]
    assert unreferenced(definitions(source), [source]) == ["unused", "wrapper"]
    assert unreferenced(["wrapper"], [source, "wrapper()"]) == []


def test_every_definition_is_referenced():
    # __init__.py only imports modules, and the tests do not count as readers
    texts = [p.read_text() for p in MODULES + sorted((ROOT / "perfbench").glob("*.py"))]
    names = [n for p in MODULES for n in definitions(p.read_text())]
    assert unreferenced(names, texts) == []


def top_level_names(source: str) -> set[str]:
    """The names that source's top-level def, class and assignment
    statements bind."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _package_module(node: ast.ImportFrom) -> str | None:
    """The specnorm module that node imports from ("" for the package
    itself), or None when node imports from outside specnorm."""
    if node.level == 1:
        return node.module or ""
    head, _, rest = (node.module or "").partition(".")
    return rest if node.level == 0 and head == "specnorm" else None


def misplaced_reads(source: str, homes: dict[str, set[str]]) -> list[str]:
    """The names that source reads from a specnorm module m other than
    through a top-level def, class or assignment of m (homes[m]), as
    "line: m.name" in line order.  A read is ``from .m import x``,
    ``from specnorm.m import x``, or ``m.x`` where m is bound by
    ``from . import m``, ``from specnorm import m`` or
    ``import specnorm.m as m``."""
    tree = ast.parse(source)
    bound, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            if module:
                reads += [(node.lineno, module, a.name) for a in node.names]
            elif module == "":
                bound.update((a.asname or a.name, a.name) for a in node.names if a.name in homes)
        elif isinstance(node, ast.Import):
            for a in node.names:
                head, _, module = a.name.partition(".")
                if head == "specnorm" and module in homes and a.asname:
                    bound[a.asname] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            reads.append((node.lineno, bound[node.value.id], node.attr))
    return [f"{line}: {m}.{x}" for line, m, x in sorted(reads) if x not in homes.get(m, ())]


def test_scanner_finds_misplaced_reads():
    homes = {"fourier": {"RealFn", "sylvester"}, "gf2": {"AmbientMismatch"}, "laws": {"check"}}
    source = (
        "import specnorm.gf2 as g\nimport numpy as np\n"
        "from specnorm import fourier, laws\nfrom .fourier import RealFn, AmbientMismatch\n"
        "from specnorm.gf2 import AmbientMismatch as E\n"
        "def f(monkeypatch):\n"
        "    monkeypatch.setattr(laws, 'sylvester', fourier.sylvester)\n"
        "    np.sylvester, g.AmbientMismatch, g.trivial, laws.check\n"
        "    return laws.sylvester(fourier.RealFn)\n"
    )
    assert misplaced_reads(source, homes) == [
        "4: fourier.AmbientMismatch", "8: gf2.trivial", "9: laws.sylvester"]
    assert top_level_names("import os\nX = Y = 1\nclass C:\n    V = 0\ndef f(): pass\n") \
        == {"X", "Y", "C", "f"}


def test_names_are_read_from_their_module():
    homes = {p.stem: top_level_names(p.read_text()) for p in MODULES}
    files = MODULES + sorted((ROOT / "tests").glob("*.py"))
    misplaced = [f"{p.name}:{read}" for p in files
                 for read in misplaced_reads(p.read_text(), homes)]
    assert misplaced == []


def test_package_holds_only_its_modules():
    # a fresh interpreter, since importing any other submodule (as the
    # tests do) binds it on the package too
    code = ("import sys, specnorm\n"
            "print(sorted(k for k in vars(specnorm) if not k.startswith('__')))\n"
            "print(specnorm.decompose is sys.modules['specnorm.decompose'],"
            " '__version__' in vars(specnorm))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(specnorm.__file__).parents[1]).stdout.splitlines()
    modules = sorted(["fourier", "gf2", "spectral", "additive", "decompose"])
    assert out == [str(modules), "True True"]


def module_names(text: str) -> list[str]:
    """The backticked dotted names in text whose head is a specnorm module,
    in order, each once."""
    modules = {p.stem for p in MODULES}
    names = (m.group(1) for m in _DOTTED.finditer(text))
    return list(dict.fromkeys(n for n in names if n.split(".")[0] in modules))


def test_scanner_finds_module_names():
    text = ("`gf2.Subgroup` and `gf2.Subgroup.coset_minima`, `spectral.pd_eval(t, d)`, "
            "`laws.check_*`, `RealFn._unchecked`, `BENCH_8.json`, `gf2.Subgroup`")
    assert module_names(text) == ["gf2.Subgroup", "gf2.Subgroup.coset_minima", "spectral.pd_eval"]


def test_readme_names_resolve():
    names = module_names(README.read_text())
    missing = []
    for name in names:
        head, *path = name.split(".")
        obj = importlib.import_module("specnorm." + head)
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert names and not missing
