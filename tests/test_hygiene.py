"""Static checks on the package source: every name a module imports is
read in that module.  __init__.py is skipped, since its imports are the
package's re-exports, and so are ``from __future__`` imports."""

import ast
from pathlib import Path

import pytest

import specnorm

MODULES = sorted(p for p in Path(specnorm.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
