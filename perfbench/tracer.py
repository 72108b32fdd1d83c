"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the specnorm modules from outside the
package.  A function that another module bound at import time
(``from .spectral import psi`` in ``decompose``) is a second reference to
the same object, so every specnorm module namespace that holds the original
object gets the wrapper, and ``uninstall`` puts every original back.

Modules are reached through ``importlib.import_module``, which returns the
entry in ``sys.modules``: ``specnorm/__init__.py`` rebinds the attribute
``specnorm.decompose`` to the function, so ``import specnorm.decompose as D``
would hand back the function and the decompose layer would go untraced.

Spans are ``(name, start, end, parent_index, op_id, phase)`` tuples kept in
memory; ``write`` dumps them when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

LAW_IDS = {
    "check_tiny_norm": "tiny-norm",
    "check_pd": "pd",
    "check_approx_hom": "approx-hom",
    "check_power_bound": "power-bound",
    "check_bogolyubov": "bogolyubov",
    "check_lemma13": "lemma13",
    "check_plunnecke_instances": "plunnecke",
}


def _butterfly(counters, args, out):
    n = args[0].ambient.n
    points = n << n
    counters["fourier.butterfly_points"] += points
    # one read and one write of the float64 table per stage
    counters["fourier.bytes_computed"] += 16 * points


def _enumerated(counters, args, out):
    counters["gf2.Subgroup.elements_enumerated"] += args[0].size


def _steps(counters, args, out):
    counters["spectral.support_steps"] += out.steps_used


def _written(counters, args, out):
    counters["io.write_truth_table.bytes"] += os.path.getsize(args[0])


def _cli_name(args):
    return "cli.main." + args[0][0]


# (module, attribute path, span name, counter hook, span-name function)
TARGETS = [
    ("fourier", "wht", "fourier.wht", _butterfly, None),
    ("fourier", "iwht", "fourier.iwht", _butterfly, None),
    ("fourier", "convolve", "fourier.convolve", None, None),
    ("fourier", "spectrum_to_json", "fourier.spectrum_to_json", None, None),
    ("gf2", "Subgroup.element_array", "gf2.Subgroup.element_array", _enumerated, None),
    ("gf2", "Subgroup.mask", "gf2.Subgroup.mask", None, None),
    ("gf2", "Subgroup.annihilator", "gf2.Subgroup.annihilator", None, None),
    ("gf2", "rref_span", "gf2.rref_span", None, None),
    ("spectral", "psi", "spectral.psi", None, None),
    ("spectral", "a_norm", "spectral.a_norm", None, None),
    ("spectral", "find_spectral_support", "spectral.find_spectral_support", _steps, None),
    ("spectral", "round_to_int", "spectral.round_to_int", None, None),
    ("additive", "find_concentration_subgroup", "additive.find_concentration_subgroup", None, None),
    ("additive", "sumset", "additive.sumset", None, None),
    ("additive", "nu4", "additive.nu4", None, None),
    ("additive", "s_eta", "additive.s_eta", None, None),
    ("additive", "bogolyubov_subgroup", "additive.bogolyubov_subgroup", None, None),
    ("decompose", "decompose", "decompose.decompose", None, None),
    ("decompose", "inductive_step", "decompose.inductive_step", None, None),
    ("decompose", "evaluate", "decompose.evaluate", None, None),
    ("decompose", "trivial_expr", "decompose.trivial_expr", None, None),
    ("io", "read_truth_table", "io.read_truth_table", None, None),
    ("io", "write_truth_table", "io.write_truth_table", _written, None),
    ("cli", "main", None, None, _cli_name),
    ("generate", "gen_coset_ring", "generate.gen_coset_ring", None, None),
] + [("laws", attr, "laws." + law, None, None) for attr, law in LAW_IDS.items()]

SEARCH = "additive.find_concentration_subgroup"


class Tracer:
    """Records spans around library calls while installed and enabled."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self.enabled = False
        self.op = -1
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, count, naming):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (
                    naming(args) if naming else name,
                    start, end, parent, tracer.op, tracer.phase,
                )
            if count is not None:
                count(tracer.counters[tracer.phase], args, out)
            return out

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "specnorm" or key.startswith("specnorm.")
        ]
        for mod_name, path, name, count, naming in TARGETS:
            module = importlib.import_module("specnorm." + mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, count, naming))
                continue
            orig = getattr(module, path)
            wrapped = self._wrap(name, orig, count, naming)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Dump every span as tab-separated text, gzip level 1."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\tphase\n")
            for name, start, end, parent, op, phase in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t{phase}\n")

    def phase_totals(self) -> dict:
        """Per phase: {span name: [calls, self seconds]}, plus derived keys.

        ``psi_under_search`` counts psi spans nested (at any depth) under a
        concentration search, and ``self_total`` sums every span's self time.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        under = [False] * len(spans)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                under[i] = under[parent] or spans[parent][0] == SEARCH
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for i, (name, start, end, _, _, phase) in enumerate(spans):
            self_s = end - start - child[i]
            entry = out[phase][name]
            entry[0] += 1
            entry[1] += self_s
            out[phase]["self_total"][1] += self_s
            if name == "spectral.psi" and under[i]:
                out[phase]["psi_under_search"][0] += 1
        return out


def layer_metrics(tracer: Tracer, passes: list, op_seconds: dict) -> dict:
    """Per-layer values: the median over traced passes of each pass's total.

    ``passes`` names the traced phases; ``op_seconds[phase]`` is the summed
    wall time of that pass's ops.  Generator spans come from the traced
    set-up phase, because inputs are generated only there.
    """
    totals = tracer.phase_totals()
    per_pass: dict = defaultdict(list)
    for phase in passes:
        spans = totals.get(phase, {})
        counters = tracer.counters.get(phase, {})
        vals = {}
        for name, (calls, self_s) in spans.items():
            vals[name + ".calls"] = calls
            vals[name + ".self_s"] = self_s
        vals.update(counters)
        points = counters.get("fourier.butterfly_points", 0)
        kernel_s = vals.get("fourier.wht.self_s", 0.0) + vals.get("fourier.iwht.self_s", 0.0)
        vals["fourier.ns_per_point_stage"] = 1e9 * kernel_s / points if points else 0.0
        searches = vals.get(SEARCH + ".calls", 0)
        vals["additive.psi_per_search"] = (
            vals.get("psi_under_search.calls", 0) / searches if searches else 0.0
        )
        vals["trace.self_share"] = vals.get("self_total.self_s", 0.0) / op_seconds[phase]
        for key, value in vals.items():
            per_pass[key].append(value)
    out = {key: statistics.median(v) for key, v in per_pass.items()}
    for name, (calls, self_s) in totals.get("setup", {}).items():
        if name.startswith("generate."):
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
    return out
