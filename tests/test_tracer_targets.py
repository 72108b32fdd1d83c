"""The benchmark's span tracer names specnorm functions by module and
attribute path; a rename or deletion there crashes every traced benchmark
run, so each of its targets must resolve."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
