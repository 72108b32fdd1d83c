"""The benchmark workloads.

Four op families (DecomposeCorpus, SpectralN20, LawsSuite, CliFiles) build
their inputs from the seed when constructed and expose ``ops``.  A workload
joins two families into one fixed list of ops that the runner repeats as
whole passes.  Two workloads rather than four give each run about twice the
measured time within the same total budget, which averages away more of
the second-scale speed swings of a shared machine; every layer is still
measured on one of them.

An op's ``run`` is the timed call into specnorm; its ``check`` verifies the
output afterwards, untimed, and adds deterministic quality figures to the
pass statistics.  Library calls go through module attributes
(``self.m.spectral.psi``) at call time, so the tracer's wrappers see them.

Sizes come from ``FULL``; ``TINY`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

FULL = {
    # passes per untraced run: a fixed amount of work per run, sized so a
    # run takes about 40-50 s against the 60 s cap
    "passes": {"decompose-laws": 2, "spectral-cli": 5},
    # n for decompose-corpus strata (each n equally often per pass)
    "corpus_ns": (5, 6, 7, 8, 9, 10),
    "spectral_ns": (20, 18),
    "tiny_norm_ns": (1, 2, 3, 4),
    "pd": (4, 10**4),
    "approx_hom": (8, 500),
    "power_bound": (8, 200),
    "bogolyubov": (12, 100),
    "lemma13": (10, 200),
    "plunnecke": (12, 500),
    "laws_repeats": 2,
    "cli_ns": (16, 20),
    "cli_decompose_ns": (8, 9, 10),
}

TINY = {
    "passes": {"decompose-laws": 2, "spectral-cli": 2},
    "corpus_ns": (5,),
    "spectral_ns": (12, 10),
    "tiny_norm_ns": (1, 2, 3),
    "pd": (2, 1000),
    "approx_hom": (6, 20),
    "power_bound": (6, 20),
    "bogolyubov": (8, 10),
    "lemma13": (6, 20),
    "plunnecke": (8, 20),
    "laws_repeats": 1,
    "cli_ns": (8, 10),
    "cli_decompose_ns": (5, 6, 6),
}

# fixed descent threshold for spectral-n20: dense random reals have every
# |fhat| far below it (0 steps), the two-flat unions take exactly 6 steps
SUPPORT_ETA = 0.05
TRANSFORM_TOL = 1e-12


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], None]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _l_trivial(values: np.ndarray) -> int:
    """Term count of the point-mass expression of rint(values): a value c at
    x != 0 costs 2|c| subgroup terms, at x = 0 it costs |c|."""
    c = np.abs(np.rint(values)).astype(np.int64)
    return int(2 * c.sum() - c[0])


def _record_decomposition(stats: dict, L: int, report: dict, values) -> None:
    stats["terms_L_total"] += L
    stats["splits_total"] += len(report["splits"])
    stats["fallback_ops"] += int(report["fallback_used"])
    l_triv = _l_trivial(values)
    if l_triv:
        stats["L_ratios"].append(L / l_triv)


def flat_union(m, ambient, rng):
    """Boolean OR of two codimension-3 flats whose annihilators are
    independent.  Every such function is an affine image of every other, so
    the spectrum is the same up to relabelling whatever the seed, and the
    descent at SUPPORT_ETA takes 6 steps on each of them."""
    while True:
        dual = m.gf2.rref_span(ambient, rng.integers(1, ambient.size, size=6))
        if dual.dim == 6:
            break
    words = [dual.basis[i] for i in rng.permutation(6)]
    parts = []
    for k in range(2):
        H = m.gf2.rref_span(ambient, words[3 * k:3 * k + 3]).annihilator()
        parts.append(m.generate.flat_indicator(H, int(rng.integers(0, ambient.size))).values)
    a, b = parts
    return m.fourier.RealFn(ambient, a + b - a * b)


def subgroup_of_dim(m, ambient, rng, dim: int):
    while True:
        H = m.gf2.rref_span(ambient, rng.integers(1, ambient.size, size=dim))
        if H.dim == dim:
            return H


class DecomposeCorpus:
    """decompose() on the acceptance recipe, stratified by n.

    Position t of a pass uses flats = 1 + t%4 and depth = t%4 as the
    acceptance corpus does, with n = corpus_ns[(t//4) % len] so every pass
    holds each n equally often, and the stream rng_for(seed, 90000 + t).
    One position in four adds uniform noise of +-eps0/2.
    """

    def __init__(self, m, seed: int, sizes: dict, workdir: str):
        self.m = m
        ns = sizes["corpus_ns"]
        eps0 = m.decompose.DecomposeParams().eps0
        self.ops = []
        for t in range(4 * len(ns)):
            rng = m.generate.rng_for(seed, 90000 + t)
            n = ns[(t // 4) % len(ns)]
            f, _ = m.generate.gen_coset_ring(m.gf2.Ambient(n), 1 + t % 4, t % 4, rng)
            if (t % 4 + t // 4) % 4 == 3:
                noise = rng.uniform(-eps0 / 2, eps0 / 2, f.ambient.size)
                f = m.fourier.RealFn(f.ambient, f.values + noise)
            self.ops.append(Op(f"decompose n={n} t={t}", self._run(f), self._check(f)))
        self.warmup = [self.ops[0]]

    def _run(self, f):
        return lambda: self.m.decompose.decompose(f)

    def _check(self, f):
        def check(result, stats):
            expr, report = result
            _require(report.exact, "report.exact is false")
            got = np.rint(self.m.decompose.evaluate(expr).values)
            _require(np.array_equal(got, np.rint(f.values)), "evaluate(expr) != rint(f)")
            _record_decomposition(stats, expr.L, report.to_json(), f.values)

        return check


class SpectralN20:
    """One dense analysis pipeline per op: wht, iwht, a_norm, psi onto a
    dim-2 subgroup, psi onto a dim n-4 subgroup, and the spectral-support
    descent from the full group.  Inputs alternate between dense random
    reals and two-flat unions at each n in spectral_ns.

    The transform residuals are checked on every op.  The idempotence spot
    check and the support recheck cost about as much as the op itself, so
    they run the first time an op's output is seen; the program is
    deterministic, and later repetitions must reproduce that verified
    output bit for bit (compared by digest).
    """

    def __init__(self, m, seed: int, sizes: dict, workdir: str):
        self.m = m
        self._verified: dict = {}
        self.ops = []
        for i, n in enumerate(sizes["spectral_ns"]):
            ambient = m.gf2.Ambient(n)
            rng = m.generate.rng_for(seed, 20000 + i)
            small = subgroup_of_dim(m, ambient, rng, 2)
            large = subgroup_of_dim(m, ambient, rng, n - 4)
            full = m.gf2.full(ambient)
            real = m.fourier.RealFn(ambient, rng.uniform(-1, 1, ambient.size))
            union = flat_union(m, ambient, rng)
            # the idempotence spot check alternates between the two psi outputs
            for kind, f, spot in (("real", real, 0), ("flats", union, 1)):
                spot_H = (small, large)[spot]
                self.ops.append(Op(
                    f"pipeline {kind} n={n}",
                    self._run(f, small, large, full),
                    self._check(len(self.ops), f, spot, spot_H),
                ))
        # the cheapest op (dense reals at the smaller n) warms every code path
        self.warmup = [self.ops[2]]

    def _run(self, f, small, large, full):
        def run():
            m = self.m
            s = m.fourier.wht(f)
            back = m.fourier.iwht(s)
            a = m.spectral.a_norm(f)
            p_small = m.spectral.psi(f, small)
            p_large = m.spectral.psi(f, large)
            cert = m.spectral.find_spectral_support(f, full, SUPPORT_ETA)
            return s, back, a, (p_small, p_large), cert

        return run

    def _check(self, key, f, spot, spot_H):
        def check(result, stats):
            s, back, a, projections, cert = result
            x = f.values
            _require(float(np.max(np.abs(back.values - x))) <= TRANSFORM_TOL,
                     "wht/iwht round trip residual")
            energy = float(np.mean(x * x))
            parseval = abs(energy - float(np.sum(s.coeffs ** 2))) / energy
            _require(parseval <= TRANSFORM_TOL, "Parseval residual")
            _require(abs(a - float(np.sum(np.abs(s.coeffs)))) <= TRANSFORM_TOL * max(1.0, a),
                     "a_norm disagrees with the spectrum")
            h = hashlib.blake2b(digest_size=16)
            for arr in (s.coeffs, back.values, projections[0].values, projections[1].values,
                        np.array(cert.subgroup.basis + (cert.steps_used,), dtype=np.int64),
                        np.array([a, cert.worst_mass])):
                h.update(np.ascontiguousarray(arr).data)
            digest = h.digest()
            if self._verified.get(key) == digest:
                return
            p = projections[spot]
            again = self.m.spectral.psi(p, spot_H)
            _require(float(np.max(np.abs(again.values - p.values))) <= TRANSFORM_TOL,
                     "psi is not idempotent")
            ok, _, _ = self.m.spectral.is_spectrally_supported(f, cert.subgroup, SUPPORT_ETA)
            _require(ok, "support certificate fails the recheck")
            self._verified[key] = digest

        return check


class LawsSuite:
    """One law check per op at its acceptance size; seeds from --seed.

    A pass runs the tiny-norm sweep n = 1..4 once and every other check
    laws_repeats times: tiny-norm n = 4 alone takes most of a sweep, and
    repeating the cheaper checks gives their latencies enough samples.
    """

    def __init__(self, m, seed: int, sizes: dict, workdir: str):
        self.m = m
        laws = m.laws
        sweep = [(f"tiny-norm n={n}", lambda n=n: laws.check_tiny_norm(n))
                 for n in sizes["tiny_norm_ns"]]
        d_max, points = sizes["pd"]
        n_bog, trials_bog = sizes["bogolyubov"]
        checks = [
            ("pd", lambda: laws.check_pd(d_max, points)),
            ("approx-hom", lambda: laws.check_approx_hom(*sizes["approx_hom"], seed)),
            ("power-bound", lambda: laws.check_power_bound(*sizes["power_bound"], seed)),
            ("bogolyubov 0.5/0.25",
             lambda: laws.check_bogolyubov(n_bog, trials_bog, seed, delta=0.5, epsilon=0.25)),
            ("bogolyubov 0.75/0.5",
             lambda: laws.check_bogolyubov(n_bog, trials_bog, seed + 1, delta=0.75, epsilon=0.5)),
            ("lemma13", lambda: laws.check_lemma13(*sizes["lemma13"], seed)),
            ("plunnecke", lambda: laws.check_plunnecke_instances(*sizes["plunnecke"], seed)),
        ]
        calls = sweep + checks * sizes["laws_repeats"]
        self.ops = [Op(label, call, self._check) for label, call in calls]
        self.warmup = [op for op in self.ops if op.label.startswith("bogolyubov")][:1]

    @staticmethod
    def _check(rep, stats):
        _require(rep.passed and rep.failures == 0 and rep.trials > 0,
                 f"{rep.law_id} verdict FAIL")
        stats["law_margins"].append(rep.worst_margin)


class CliFiles:
    """In-process cli.main calls on truth-table files written in set-up.

    Per n in cli_ns: wht --out, anorm, psi --out onto a dim-2 subgroup, and
    anorm on the real-valued projection that psi just wrote; then
    decompose --out on acceptance-recipe files at n <= 10, one of them noisy
    and stored as real=.
    """

    def __init__(self, m, seed: int, sizes: dict, workdir: str):
        self.m = m
        self._refs: dict = {}
        self.ops = []
        for i, n in enumerate(sizes["cli_ns"]):
            ambient = m.gf2.Ambient(n)
            rng = m.generate.rng_for(seed, 30000 + i)
            f = flat_union(m, ambient, rng)
            H = subgroup_of_dim(m, ambient, rng, 2)
            src = os.path.join(workdir, f"in{n}.txt")
            spec = os.path.join(workdir, f"spec{n}.json")
            proj = os.path.join(workdir, f"proj{n}.txt")
            m.io.write_truth_table(src, f)
            self.ops += [
                Op(f"wht n={n}", self._cli("wht", "--input", src, "--out", spec),
                   self._check_wht(f, spec)),
                Op(f"anorm n={n}", self._cli("anorm", "--input", src),
                   self._check_anorm(("a_norm", n), lambda f=f: f)),
                Op(f"psi n={n}", self._cli("psi", "--input", src, "--subgroup",
                                          json.dumps(H.to_json()), "--out", proj),
                   self._check_psi(f, H, proj)),
                Op(f"anorm projection n={n}", self._cli("anorm", "--input", proj),
                   self._check_anorm(("a_norm psi", n), lambda f=f, H=H: m.spectral.psi(f, H))),
            ]
        eps0 = m.decompose.DecomposeParams().eps0
        for t, n in enumerate(sizes["cli_decompose_ns"]):
            rng = m.generate.rng_for(seed, 31000 + t)
            f, _ = m.generate.gen_coset_ring(m.gf2.Ambient(n), 1 + t % 4, t % 4, rng)
            if t == len(sizes["cli_decompose_ns"]) - 1:
                noise = rng.uniform(-eps0 / 2, eps0 / 2, f.ambient.size)
                f = m.fourier.RealFn(f.ambient, f.values + noise)
            src = os.path.join(workdir, f"dec{t}.txt")
            out = os.path.join(workdir, f"dec{t}.json")
            m.io.write_truth_table(src, f)
            self.ops.append(Op(f"decompose n={n} t={t}",
                               self._cli("decompose", "--input", src, "--out", out),
                               self._check_decompose(f, out)))
        self.warmup = [self.ops[2]]

    def _cli(self, *argv):
        argv = list(argv)

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = self.m.cli.main(argv)
            return code, buf.getvalue()

        return run

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    @staticmethod
    def _printed(text: str, key: str) -> float:
        for line in text.splitlines():
            if line.startswith(key + "="):
                return float(line[len(key) + 1:])
        raise CheckFailed(f"no {key}= line in the output")

    def _check_wht(self, f, spec):
        def check(result, stats):
            code, text = result
            _require(code == 0, f"exit {code}")
            want = self._ref(("a_norm", f.ambient.n), lambda: self.m.spectral.a_norm(f))
            got = self._printed(text, "a_norm")
            _require(math.isclose(got, want, rel_tol=1e-9), "printed a_norm")
            _require(self._printed(text, "parseval_residual") <= TRANSFORM_TOL, "Parseval residual")
            with open(spec) as fh:
                entries = json.load(fh)
            total = sum(abs(e["coeff"]) for e in entries)
            _require(math.isclose(total, want, rel_tol=1e-9), "spectrum JSON does not sum to a_norm")

        return check

    def _check_anorm(self, key, make_fn):
        def check(result, stats):
            code, text = result
            _require(code == 0, f"exit {code}")
            want = self._ref(key, lambda: self.m.spectral.a_norm(make_fn()))
            _require(math.isclose(self._printed(text, "a_norm"), want, rel_tol=1e-9),
                     "printed a_norm")

        return check

    def _check_psi(self, f, H, proj):
        def check(result, stats):
            code, _ = result
            _require(code == 0, f"exit {code}")
            want = self._ref(("psi", f.ambient.n), lambda: self.m.spectral.psi(f, H))
            back = self.m.io.read_truth_table(proj)
            _require(float(np.max(np.abs(back.values - want.values))) <= TRANSFORM_TOL,
                     "projection file does not parse back to psi(f, H)")

        return check

    def _check_decompose(self, f, out):
        def check(result, stats):
            code, _ = result
            _require(code == 0, f"exit {code}")
            with open(out) as fh:
                doc = json.load(fh)
            _require(doc["exact"] is True, "decomposition is not exact")
            m = self.m
            ambient = f.ambient
            terms = tuple(
                m.decompose.SubgroupTerm(t["sign"], m.gf2.Subgroup.from_json(ambient, t["basis"]))
                for t in doc["terms"]
            )
            expr = m.decompose.CosetRingExpr(ambient, terms)
            got = np.rint(m.decompose.evaluate(expr).values)
            _require(np.array_equal(got, np.rint(f.values)), "parsed terms do not evaluate to rint(f)")
            _record_decomposition(stats, doc["L"], doc["report"], f.values)

        return check


class Workload:
    """Ops of several families, in order, as one pass."""

    def __init__(self, families, m, seed: int, sizes: dict, workdir: str):
        parts = [family(m, seed, sizes, workdir) for family in families]
        self.ops = [op for part in parts for op in part.ops]
        self.warmup = [op for part in parts for op in part.warmup]


# decompose-laws: Python-heavy work at n <= 12 (concentration search, many
# small transforms, sumsets and nu4); spectral-cli: dense n = 16..20 tables
# in process and through truth-table files
WORKLOADS = {
    "decompose-laws": (DecomposeCorpus, LawsSuite),
    "spectral-cli": (SpectralN20, CliFiles),
}


def new_pass_stats() -> dict:
    return {"terms_L_total": 0, "splits_total": 0, "fallback_ops": 0,
            "L_ratios": [], "law_margins": []}


def modules() -> SimpleNamespace:
    """The specnorm modules by short name.  import_module returns the
    sys.modules entry, which stays the module even where the package
    rebinds the attribute (specnorm.decompose is the function)."""
    names = ("fourier", "gf2", "spectral", "additive", "decompose", "laws",
             "io", "cli", "generate")
    return SimpleNamespace(**{n: importlib.import_module("specnorm." + n) for n in names})
