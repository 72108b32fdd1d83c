"""Acceptance gate: thirteen end-to-end criteria, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
These are the full-size runs; the unit suites cover the same code at small
scale.
"""

import hashlib
import json
import math
import time
from statistics import median

import numpy as np
import pytest

from specnorm import fourier
from specnorm.decompose import _term_count, decompose, decomposition_json, evaluate
from specnorm.fourier import RealFn, iwht, wht
from specnorm.generate import (
    flat_indicator,
    gen_coset_ring,
    random_flat,
    rng_for,
)
from specnorm.gf2 import Ambient, full
from specnorm.laws import (
    check_approx_hom,
    check_bogolyubov,
    check_lemma13,
    check_pd,
    check_plunnecke_instances,
    check_power_bound,
    check_roundtrip,
    check_tiny_norm,
)
from specnorm.spectral import (
    a_norm,
    find_spectral_support,
    is_spectrally_supported,
)

SEED = 2026
# sha256 over the concatenated json.dumps(decomposition_json(expr, rep),
# sort_keys=True) of the 200 roundtrip instances, and their total L: a
# change to any term, term order or report field changes the digest
CORPUS_SHA256 = "5bd9d3f603ad5b95afe32a2c0c2a5ec8d00a404523aa220cc276b1df3b351ee2"
CORPUS_TOTAL_L = 6434


def report(name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name:<28} {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name}: {detail}"


def test_01_tiny_norm_exhaustive():
    t0 = time.perf_counter()
    reps = [check_tiny_norm(n) for n in range(1, 5)]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reps) and elapsed < 30.0
    mins = [r.notes.get("min_noncoset_anorm") for r in reps]
    ok = ok and all(
        m is None or not math.isfinite(m) or abs(m - 1.5) <= 1e-9
        for m in mins
    )
    report(
        "tiny-norm n=1..4",
        ok,
        f"failures={sum(r.failures for r in reps)} "
        f"min_noncoset={mins[-1]:.12f} elapsed={elapsed:.1f}s",
    )


def test_02_transform_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 12, 16, 20):
        ambient = Ambient(n)
        for t in range(100):
            rng = rng_for(SEED, n * 1000 + t)
            f = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
            s = wht(f)
            scale = float(np.mean(f.values**2))
            parseval = abs(scale - float(np.sum(s.coeffs**2))) / scale
            back = iwht(s)
            rt = float(np.max(np.abs(back.values - f.values)))
            worst = max(worst, parseval, rt)
        if n <= 8:
            rng = rng_for(SEED, n)
            f = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
            xs = np.arange(ambient.size)
            signs = 1.0 - 2.0 * (
                np.bitwise_count(xs[:, None] & xs[None, :]) & 1
            )
            naive = signs @ f.values / ambient.size
            worst = max(worst, float(np.max(np.abs(wht(f).coeffs - naive))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 60.0
    report(
        "transform correctness",
        ok,
        f"worst_residual={worst:.2e} elapsed={elapsed:.1f}s "
        f"backend={fourier.BACKEND}",
    )


def test_03_performance_n20():
    ambient = Ambient(20)
    rng = rng_for(SEED, 3)
    f = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
    t0 = time.perf_counter()
    s = wht(f)
    t_wht = time.perf_counter() - t0
    t0 = time.perf_counter()
    a_norm(f)
    t_anorm = time.perf_counter() - t0
    ok = t_wht <= 2.0 and t_anorm <= 2.0
    report(
        "wht/a_norm n=20 under 2s",
        ok,
        f"wht={t_wht * 1e3:.1f}ms anorm={t_anorm * 1e3:.1f}ms "
        f"backend={fourier.BACKEND}",
    )
    del s


def test_04_approx_hom():
    rep = check_approx_hom(8, 500, SEED)
    report(
        "approximate homomorphism",
        rep.passed,
        f"trials={rep.trials} worst_margin={rep.worst_margin:.2e} "
        f"elapsed={rep.elapsed:.1f}s",
    )


def test_05_greedy_step_bound():
    failures = 0
    worst_slack = math.inf
    for t in range(200):
        rng = rng_for(SEED, 50_000 + t)
        n = int(rng.integers(4, 11))
        ambient = Ambient(n)
        if t % 2:
            f = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
        else:
            f, _ = gen_coset_ring(ambient, 1 + t % 3, t % 3, rng)
        eta = float(rng.uniform(0.05, 0.6))
        cert = find_spectral_support(f, full(ambient), eta)
        bound = math.ceil(a_norm(f) / eta)
        ok_support, _, worst = is_spectrally_supported(f, cert.subgroup, eta)
        if cert.steps_used > bound or not ok_support:
            failures += 1
        worst_slack = min(worst_slack, bound - cert.steps_used)
    report(
        "greedy support step bound",
        failures == 0,
        f"trials=200 failures={failures} min_slack={worst_slack}",
    )


def test_06_power_bound():
    rep = check_power_bound(8, 200, SEED)
    report(
        "power spectral bound k=2..5",
        rep.passed,
        f"trials={rep.trials} worst_margin={rep.worst_margin:.2e}",
    )


def test_07_bogolyubov():
    reps = [
        check_bogolyubov(12, 100, SEED, delta=0.5, epsilon=0.25),
        check_bogolyubov(12, 100, SEED + 1, delta=0.75, epsilon=0.5),
    ]
    ok = all(r.passed for r in reps)
    report(
        "bogolyubov inclusion",
        ok,
        f"sets={sum(r.trials for r in reps)} "
        f"failures={sum(r.failures for r in reps)}",
    )


def test_08_structured_level_sets():
    rep = check_lemma13(10, 200, SEED)
    report(
        "level-set density bounds",
        rep.passed,
        f"trials={rep.trials} worst_margin={rep.worst_margin:.2e}",
    )


def test_09_plunnecke():
    rep = check_plunnecke_instances(12, 500, SEED)
    report(
        "fourfold sumset bound",
        rep.passed,
        f"sets={rep.trials} failures={rep.failures}",
    )


def l_lower(f_int):
    """The least L' >= max(ceil(||f||_A), |f(0)|) with L' = f(0) mod 2, for
    an integer table f_int: every expression of it has L >= L', since each
    +-1_H has A-norm 1 and contains 0.  The integer transform T is exact and
    ||f||_A = sum |T| / 2^n, so the ceiling is an integer division."""
    m = -(-int(np.abs(fourier._wht(f_int)).sum()) // f_int.size)
    f0 = int(f_int[0])
    low = max(m, abs(f0))
    return low + (low - f0) % 2


def run_roundtrips():
    """200 coset-ring roundtrips, and the sha256 of their decomposition
    JSON; shared by criteria 10, 11 and 13."""
    results = []
    digest = hashlib.sha256()
    for t in range(200):
        rng = rng_for(SEED, 90_000 + t)
        n = int(rng.integers(5, 11))
        f, record = gen_coset_ring(Ambient(n), 1 + t % 4, t % 4, rng)
        expr, rep = decompose(f)
        digest.update(json.dumps(decomposition_json(expr, rep), sort_keys=True).encode())
        l_triv = _term_count(f.values)  # the point-mass expression's L
        exact_vals = np.array_equal(evaluate(expr).values, f.values)
        results.append((rep, expr.L, l_triv, exact_vals, l_lower(f.values)))
    return results, digest.hexdigest()


@pytest.fixture(scope="module")
def roundtrips():
    return run_roundtrips()


def test_10_decomposition_roundtrip(roundtrips):
    roundtrips, digest = roundtrips
    total_L = sum(L for _, L, *_ in roundtrips)
    inexact = sum(
        1 for rep, _, _, ev, _ in roundtrips if not (rep.exact and ev)
    )
    ratios = [L / lt for _, L, lt, *_ in roundtrips if lt > 0]
    med = median(ratios)
    # single-coset inputs cost at most two subgroup terms
    coset_ok = True
    for t in range(20):
        rng = rng_for(SEED, 95_000 + t)
        H, rep_pt = random_flat(Ambient(8), rng, min_dim=2)
        expr, drep = decompose(flat_indicator(H, rep_pt))
        coset_ok = coset_ok and drep.exact and expr.L <= 2
    ok = inexact == 0 and coset_ok and digest == CORPUS_SHA256 and total_L == CORPUS_TOTAL_L
    quality = "met" if med <= 0.25 else "missed (report-only)"
    report(
        "coset-ring roundtrip",
        ok,
        f"trials=200 inexact={inexact} single_coset_L<=2={coset_ok} "
        f"median_L_ratio={med:.3f} quality_target={quality} "
        f"total_L={total_L} sha256={digest}",
    )


def test_11_split_invariants(roundtrips):
    checked = 0
    bad = 0
    for rep, *_ in roundtrips[0]:
        for s in rep.splits:
            checked += 1
            add = abs(
                s["a_norm_f1"] + s["a_norm_f2"] - s["a_norm_before"]
            )
            progress = (
                s["a_norm_f1"] <= s["a_norm_before"] + 1e-9
                and s["a_norm_f2"] <= s["a_norm_before"] + 1e-9
            )
            if add > 1e-9 or not progress:
                bad += 1
    report(
        "split norm additivity",
        bad == 0 and checked > 0,
        f"splits={checked} violations={bad}",
    )


def test_12_pd_grid():
    rep = check_pd(d_max=4, points=10**4)
    ok = rep.passed and rep.elapsed < 1.0
    report(
        "polynomial grid identities",
        ok,
        f"failures={rep.failures} elapsed={rep.elapsed:.2f}s",
    )


def test_13_L_against_norm_lower_bound(roundtrips):
    """No instance has L below its l_lower, and each L has f(0)'s parity.
    The sum of the bounds, and the count of instances whose L meets its
    bound and so is certified minimal, are report-only."""
    pairs = [(L, low) for _, L, _, _, low in roundtrips[0]]
    below = sum(1 for L, low in pairs if L < low)
    # L_lower has f(0)'s parity, so L must have L_lower's
    parity = sum(1 for L, low in pairs if (L - low) % 2)
    report(
        "L against norm lower bound",
        below == 0 and parity == 0,
        f"instances={len(pairs)} below={below} "
        f"sum_L_lower={sum(low for _, low in pairs)} "
        f"certified={sum(1 for L, low in pairs if L == low)}",
    )
