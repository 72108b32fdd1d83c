"""The benchmark names specnorm functions by module and attribute path; a
rename or deletion there crashes every benchmark run, so each name it uses
must resolve."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# names that the benchmark binds to the namespace of specnorm modules
# (workloads.modules()), written as dotted chains
MODULES_ROOTS = {"m", "mods", "self.m"}


def test_every_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for mod_name, path, *_ in tracer.TARGETS:
        obj = importlib.import_module("specnorm." + mod_name)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{path}")
    assert tracer.TARGETS and not missing


def _chain(node) -> list[str] | None:
    """['self', 'm', 'laws'] for self.m.laws; None unless node is a pure
    attribute chain on a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def _split_root(chain: list[str], aliases: dict) -> list[str] | None:
    """The part of chain below the module namespace, or None when chain
    is not rooted there.  aliases maps a local name to its own path below
    the namespace (laws = m.laws gives laws -> ['laws'])."""
    for k in (2, 1):
        if ".".join(chain[:k]) in MODULES_ROOTS:
            return chain[k:]
    if chain[0] in aliases:
        return aliases[chain[0]] + chain[1:]
    return None


def perfbench_specnorm_names() -> set[str]:
    """Every attribute chain in perfbench/*.py rooted at the module
    namespace or at a local alias of a name below it."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                chain = _chain(node.value)
                below = _split_root(chain, {}) if chain else None
                if below:
                    aliases[node.targets[0].id] = below
        for node in ast.walk(tree):
            # a chain's prefixes are collected too; they resolve if it does
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            below = _split_root(chain, aliases) if chain else None
            if below:
                names.add(".".join(below))
    return names


def test_every_perfbench_name_resolves():
    names = perfbench_specnorm_names()
    missing = []
    for name in sorted(names):
        mod_name, *path = name.split(".")
        try:
            obj = importlib.import_module("specnorm." + mod_name)
        except ImportError:
            missing.append(name)
            continue
        for attr in path:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    assert len(names) >= 20 and not missing, missing
