"""Executable checks for the quantitative statements the library is
built around: exhaustive where feasible, seeded random trials elsewhere.

Each check returns a LawReport.  It passes when it ran at least one trial
and none failed, and any counterexample replays deterministically from
(law_id, n, trials, seed).
Margins are (bound - achieved), so nonnegative is healthy.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from . import spectral
from .additive import (
    PointSet,
    bogolyubov_subgroup,
    is_arithmetically_connected,
    iterated,
    nu4,
    s_eta,
    set_stats,
    spec_set,
)
from .decompose import decompose, trivial_expr
from .fourier import RealFn, convolve, lp_norm
# a module name of its own, so that tests can swap in a faulty matrix
from .fourier import sylvester as _hadamard
from .generate import (
    gen_coset_ring,
    random_structured_set_mask,
    random_subgroup,
    rng_for,
)
from .gf2 import Ambient, rref_span
from .spectral import (
    MAX_PD_DEGREE,
    a_norm,
    approx_hom_defect,
    pd_eval,
    psi,
    round_to_int,
    spectral_support_level,
)


@dataclass
class LawReport:
    law_id: str
    trials: int = 0
    failures: int = 0
    worst_margin: float = math.inf
    counterexample: dict | None = None
    elapsed: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        # a check that ran nothing has shown nothing
        return self.failures == 0 and self.trials > 0

    def record(self, margin: float, witness: dict) -> None:
        self.trials += 1
        if margin < self.worst_margin:
            self.worst_margin = margin
        if margin < 0:
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = witness

    def record_many(self, margins, witness) -> None:
        """``record`` once per entry of ``margins``, in order.  ``witness(i)``
        gives entry i's witness; it is called, before this returns, only
        for the entry that becomes the counterexample."""
        margins = np.asarray(margins, dtype=np.float64).ravel()
        self.trials += margins.size
        # record skips NaN (it is never < anything) and keeps the first of
        # equal minima, which is what argmin over the non-NaN entries gives
        valid = np.flatnonzero(~np.isnan(margins))
        if valid.size:
            worst = float(margins[valid[np.argmin(margins[valid])]])
            if worst < self.worst_margin:
                self.worst_margin = worst
        negative = np.flatnonzero(margins < 0)
        self.failures += negative.size
        if negative.size and self.counterexample is None:
            self.counterexample = witness(int(negative[0]))

    def to_json(self) -> dict:
        return {
            "law_id": self.law_id,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": _finite_or_none(self.worst_margin),
            "counterexample": self.counterexample,
            "elapsed": self.elapsed,
            "notes": {k: _finite_or_none(v) for k, v in self.notes.items()},
        }


def _finite_or_none(v):
    """JSON has no infinities or NaN: a non-finite float becomes null."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        rep = fn(*args, **kwargs)
        rep.elapsed = time.perf_counter() - t0
        return rep

    return wrapper


def _random_set(ambient: Ambient, rng) -> PointSet:
    """Half uniform-density, half structured (small-doubling) samples."""
    if rng.random() < 0.5:
        density = rng.choice([0.125, 0.25, 0.5])
        mask = rng.random(ambient.size) < density
        if not mask.any():
            mask[int(rng.integers(0, ambient.size))] = True
        return PointSet(ambient, mask)
    return PointSet(ambient, random_structured_set_mask(ambient, rng))


# Slack on the tiny-norm law's quantities (anorms, and the certificate's
# <f, phi> and sup |phi-hat|), all dyadic rationals at n <= 4.
TINY_NORM_TOL = 1e-9
# Added to every pd margin.  At d = 0 the lower bound |p_0(t)| >= ||t|| is an
# equality on the whole grid, so pd's worst margin is exactly this slack.
PD_SLACK = 1e-12

# Added to the approx-hom and power-bound bounds on an A-norm: absorbs the
# rounding of the transforms behind the defect.  With H trivial both
# defects are exactly 0 and eta is 0, so each margin is exactly this slack.
NORM_BOUND_SLACK = 1e-9
# Added to every margin between densities (lemma13, plunnecke, lemma14) and
# to lemma14's budget test.  A subgroup A has 4A = A and doubling 1, so its
# plunnecke margin is exactly this slack.
DENSITY_SLACK = 1e-12
# Subtracted from each lemma14 level threshold on nu4, see _level_set.
LEVEL_SLACK = 1e-12
# rho of the large spectrum in check_chang_report
CHANG_RHO = 0.25

_TINY_NORM_BLOCK = 512  # masks per block; see check_tiny_norm


def _subsets(N: int, k: int) -> np.ndarray:
    """The k-subsets of range(N) in lexicographic order, as k index rows."""
    return np.array(list(itertools.combinations(range(N), k)), dtype=np.intp).reshape(-1, k).T


def _tiny_norm_verdicts(masks: np.ndarray, had: np.ndarray) -> tuple[np.ndarray, float]:
    """The tiny-norm conditions on the tables 1_S, x in S iff bit x of the
    mask is set, for nonzero masks and the N x N transform matrix had:
    (ok per mask, smallest non-coset anorm)."""
    N = had.shape[0]
    xs = np.arange(N)
    pa, pb = _subsets(N, 2)
    tp, tq, tr = _subsets(N, 3)
    ok = np.empty(masks.size, dtype=bool)
    min_noncoset = math.inf
    # tables are stored transposed, one row per point x and one column per
    # mask, so every gather below copies whole rows
    for lo in range(0, masks.size, _TINY_NORM_BLOCK):
        block = masks[lo:lo + _TINY_NORM_BLOCK]
        f = ((block >> xs[:, None]) & 1).astype(bool)
        # coset: translate by the smallest member, then xor-closure over pairs
        f0 = f[xs[:, None] ^ np.argmax(f, axis=0), np.arange(block.size)]
        is_coset = ~(f0[pa] & f0[pb] & ~f0[pa ^ pb]).any(axis=0)
        # parallelogram violation: p < q < r in S with p^q^r outside S;
        # symmetric, so the sorted triples in lexicographic order suffice
        bad = f[tp] & f[tq] & f[tr] & ~f[tp ^ tq ^ tr]
        closed = ~bad.any(axis=0)
        an = np.abs(had.T @ f.astype(np.float64) / N).sum(axis=0)
        good = (is_coset == closed) & (is_coset == (an <= 1 + TINY_NORM_TOL))
        nc = np.flatnonzero(~is_coset)
        if nc.size:
            min_noncoset = min(min_noncoset, float(an[nc].min()))
            # phi = N (1_p + 1_q + 1_r - 1_(p^q^r)) from the first violating
            # parallelogram: <f, phi> / N and sup |phi @ had / N|
            w = np.argmax(bad[:, nc], axis=0)
            p, q, r = tp[w], tq[w], tr[w]
            s = p ^ q ^ r
            fv = f[:, nc].astype(np.float64)
            k = np.arange(nc.size)
            inner = fv[p, k] + fv[q, k] + fv[r, k] - fv[s, k]
            sup = np.abs(had[p] + had[q] + had[r] - had[s]).max(axis=1)
            good[nc] &= (
                (an[nc] >= 1.5 - TINY_NORM_TOL)
                & (np.abs(inner - 3.0) <= TINY_NORM_TOL)
                & (np.abs(sup - 2.0) <= TINY_NORM_TOL)
            )
        ok[lo:lo + block.size] = good
    return ok, min_noncoset


@_timed
def check_tiny_norm(n: int) -> LawReport:
    """Exhaustive: nonzero boolean f is a coset indicator iff a_norm <= 1
    iff parallelogram-closed, and otherwise a_norm >= 3/2, with the
    four-point certificate giving <f, phi> = 3 and ||phi-hat||_inf = 2.

    The 2^(2^n) - 1 tables are tested as array passes over blocks of 512
    masks.  The largest temporaries are the (C(2^n, 3), block) boolean
    triple tests, 287 KB each at n = 4.  The block is kept small for the
    peak RSS: run alone, the n = 4 sweep peaked at 32.9 MB with 512-mask
    blocks and at 41.2 MB with 4096-mask blocks, at no gain in speed.
    """
    Ambient(n)
    if n > 4:
        raise ValueError("exhaustive check is limited to n <= 4")
    rep = LawReport(law_id="tiny-norm")
    N = 1 << n
    masks = np.arange(1, 1 << N, dtype=np.int64)
    ok, min_noncoset = _tiny_norm_verdicts(masks, _hadamard(N))
    rep.record_many(np.where(ok, 0.0, -1.0), lambda i: {"mask": int(masks[i]), "n": n})
    # at n = 1 every nonzero boolean function is a coset indicator
    if math.isfinite(min_noncoset) and abs(min_noncoset - 1.5) > TINY_NORM_TOL:
        rep.record(-1.0, {"min_noncoset_anorm": min_noncoset})
    rep.notes["min_noncoset_anorm"] = min_noncoset
    return rep


@_timed
def check_pd(d_max: int = 4, points: int = 10**4) -> LawReport:
    """Grid check of the integer-detecting polynomial bounds: at each grid
    point t the lower bound |p_d(t)| >= ||t||, then, where |t| <= d, the
    upper bound |p_d(t)| <= 4^d ||t||."""
    if not 0 <= d_max <= MAX_PD_DEGREE:
        raise ValueError(f"d must be in [0, {MAX_PD_DEGREE}]")
    rep = LawReport(law_id="pd")
    for d in range(d_max + 1):
        t = np.linspace(-d - 0.5, d + 0.5, points)
        p = pd_eval(t, d)
        tbar = np.abs(t - np.round(t))
        lower = np.abs(p) - tbar + PD_SLACK
        upper = tbar * 4.0**d - np.abs(p) + PD_SLACK
        # one entry per margin, in grid order: lower, then upper if |t| <= d
        point = np.repeat(np.arange(points), 1 + (np.abs(t) <= d))
        is_lower = np.ones(point.size, dtype=bool)
        is_lower[1:] = point[1:] != point[:-1]
        rep.record_many(
            np.where(is_lower, lower[point], upper[point]),
            lambda i: {"d": d, "t": float(t[point[i]]),
                       "law": "lower" if is_lower[i] else "upper"},
        )
    return rep


@_timed
def check_approx_hom(n: int, trials: int, seed: int) -> LawReport:
    """defect(f, g, H) <= eta * a_norm(g) with measured eta."""
    rep = LawReport(law_id="approx-hom")
    ambient = Ambient(n)
    for t in range(trials):
        rng = rng_for(seed, t)
        f = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
        g = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
        H = random_subgroup(ambient, rng)
        eta, _ = spectral_support_level(f, H)
        defect = approx_hom_defect(f, g, H)
        bound = eta * a_norm(g) + NORM_BOUND_SLACK
        rep.record(bound - defect, {"trial": t, "seed": seed, "n": n})
    return rep


@_timed
def check_power_bound(n: int, trials: int, seed: int) -> LawReport:
    """a_norm(psi(f^k) - (psi f)^k) <= eta (k-1) M^(k-1), k in 2..5."""
    rep = LawReport(law_id="power-bound")
    ambient = Ambient(n)
    for t in range(trials):
        rng = rng_for(seed, t)
        k = 2 + t % 4
        f = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
        H = random_subgroup(ambient, rng)
        eta, _ = spectral_support_level(f, H)
        m_norm = a_norm(f)
        fk = RealFn(ambient, f.values**k)
        pf = psi(f, H)
        pfk = RealFn(ambient, pf.values**k)
        lhs = a_norm(psi(fk, H) - pfk)
        bound = eta * (k - 1) * m_norm ** (k - 1) + NORM_BOUND_SLACK
        rep.record(bound - lhs, {"trial": t, "seed": seed, "n": n, "k": k})
    return rep


@_timed
def check_bogolyubov(
    n: int, trials: int, seed: int, delta: float = 0.5, epsilon: float = 0.25
) -> LawReport:
    """S_delta + Spec_rho(A)^perp is inside S_(delta-eps), rho = sqrt(eps/2)."""
    if not 0 < epsilon < delta <= 1:
        raise ValueError("need 0 < epsilon < delta <= 1")
    rep = LawReport(law_id="bogolyubov")
    ambient = Ambient(n)
    rho = math.sqrt(epsilon / 2.0)
    for t in range(trials):
        rng = rng_for(seed, t)
        A = _random_set(ambient, rng)
        H = bogolyubov_subgroup(A, rho)
        Sd = s_eta(A, delta)
        Sde = s_eta(A, delta - epsilon)
        # Sd + H: the points whose H-coset meets Sd
        shifted = psi(Sd.indicator(), H).values > 0
        ok = bool(np.all(Sde.members | ~shifted))
        rep.record(0.0 if ok else -1.0, {"trial": t, "seed": seed, "n": n})
    return rep


@_timed
def check_lemma13(n: int, trials: int, seed: int) -> LawReport:
    """With eta = 1/(2K^4): density of S_eta >= alpha/2 and
    sup of 1_A * 1_(S_eta) >= eta * alpha / 2."""
    rep = LawReport(law_id="lemma13")
    ambient = Ambient(n)
    for t in range(trials):
        rng = rng_for(seed, t)
        A = PointSet(ambient, random_structured_set_mask(ambient, rng))
        stats = set_stats(A)
        K = stats.doubling
        eta = 1.0 / (2.0 * K**4)
        S = s_eta(A, eta)
        m1 = S.density - stats.alpha / 2.0 + DENSITY_SLACK
        sup = lp_norm(convolve(A.indicator(), S.indicator()), math.inf)
        m2 = sup - eta * stats.alpha / 2.0 + DENSITY_SLACK
        rep.record(min(m1, m2), {"trial": t, "seed": seed, "n": n, "K": K})
    return rep


@_timed
def check_plunnecke_instances(n: int, trials: int, seed: int) -> LawReport:
    """Empirical instances of E 1_(4A) <= K^4 alpha."""
    rep = LawReport(law_id="plunnecke")
    ambient = Ambient(n)
    for t in range(trials):
        rng = rng_for(seed, t)
        A = _random_set(ambient, rng)
        stats = set_stats(A)
        four = iterated(A, 4)
        margin = stats.doubling**4 * stats.alpha - four.density + DENSITY_SLACK
        rep.record(margin, {"trial": t, "seed": seed, "n": n, "K": stats.doubling})
    return rep


def _level_set(nu: np.ndarray, level: float, alpha: float) -> np.ndarray:
    """{x : nu(x) >= level * alpha^3}, down to LEVEL_SLACK below the level."""
    return nu >= level * alpha**3 - LEVEL_SLACK


@_timed
def check_lemma14(n: int, trials: int, seed: int) -> LawReport:
    """Pigeonhole level schedule: the part of the chosen level set not
    covered by full cosets of the Bogolyubov subgroup is small."""
    rep = LawReport(law_id="lemma14")
    ambient = Ambient(n)
    for t in range(trials):
        rng = rng_for(seed, t)
        A = None
        for _ in range(50):
            cand = PointSet(ambient, random_structured_set_mask(ambient, rng))
            if 16.0 * set_stats(cand).doubling ** 8 <= 1e5:
                A = cand
                break
        if A is None:
            continue  # doubling too large for the level scan; resampled out
        stats = set_stats(A)
        K = max(stats.doubling, 1.0)
        alpha = stats.alpha
        eta0 = 1.0 / (2.0 * K**4)
        eps = 1.0 / (64.0 * K**12)
        L = math.ceil(1.0 / (4.0 * K**4 * eps))
        nu = nu4(A).values
        budget = alpha / (16.0 * K**4)
        j_found = None
        prev = float(np.mean(_level_set(nu, eta0, alpha)))
        for j in range(L):
            cur = float(np.mean(_level_set(nu, eta0 - (j + 1) * eps, alpha)))
            if cur - prev <= budget + DENSITY_SLACK:
                j_found = j
                break
            prev = cur
        if j_found is None:
            rep.record(-1.0, {"trial": t, "seed": seed, "n": n, "K": K})
            continue
        rho = 1.0 / (16.0 * K**6)
        Hp = bogolyubov_subgroup(A, rho)
        S = PointSet(ambient, _level_set(nu, eta0 - (j_found + 1) * eps, alpha))
        cover = spectral._coset_sums(S.members.astype(np.float64), Hp)
        fully = cover > Hp.size - 0.5
        X = S.members & ~fully
        margin = budget - float(np.mean(X)) + DENSITY_SLACK
        rep.record(margin, {"trial": t, "seed": seed, "n": n, "K": K})
    return rep


@_timed
def check_chang_report(n: int, trials: int, seed: int) -> LawReport:
    """Report-only: dimension of span(Spec_rho(A)) against the Chang
    shape rho^-2 (1 + ln(1/alpha)), rho = CHANG_RHO.  Never fails."""
    rep = LawReport(law_id="chang-report")
    ambient = Ambient(n)
    ratios = []
    for t in range(trials):
        rng = rng_for(seed, t)
        A = _random_set(ambient, rng)
        dim = rref_span(ambient, spec_set(A, CHANG_RHO).points()).dim
        shape = CHANG_RHO**-2 * (1.0 + math.log(1.0 / A.density))
        ratios.append(dim / shape)
        rep.record(0.0, {"trial": t})
    rep.notes["max_dim_over_shape"] = max(ratios) if ratios else None
    rep.notes["median_dim_over_shape"] = median(ratios) if ratios else None
    return rep


@_timed
def check_connectedness(n: int, trials: int, seed: int) -> LawReport:
    """Definitional checks: subgroup-minus-zero families are 2-connected;
    independent-vector families are not, with a valid witness."""
    rep = LawReport(law_id="connectedness")
    ambient = Ambient(n)
    for t in range(trials):
        rng = rng_for(seed, t)
        if t % 2 == 0:
            H = random_subgroup(ambient, rng)
            while not 2 <= H.dim <= min(n, 4):
                H = random_subgroup(ambient, rng)
            A = PointSet.from_points(ambient, [x for x in H.elements() if x])
            ok, witness = is_arithmetically_connected(A, 2)
            rep.record(0.0 if ok and witness is None else -1.0, {"trial": t})
        else:
            k = 3 + t % max(1, n - 3)
            k = min(k, n)
            pts = [1 << i for i in range(k)]
            A = PointSet.from_points(ambient, pts)
            m = k - 1
            ok, witness = is_arithmetically_connected(A, m)
            good = not ok and witness is not None
            if good:
                # validate the witness: independent, no extra element in span
                span = rref_span(ambient, witness)
                good = span.dim == m and not any(
                    span.contains(a) for a in pts if a not in witness
                )
            rep.record(0.0 if good else -1.0, {"trial": t, "m": m})
    return rep


@_timed
def check_roundtrip(n: int, count: int, seed: int) -> LawReport:
    """decompose is exact on generated coset-ring functions."""
    rep = LawReport(law_id="roundtrip")
    ambient = Ambient(n)
    ratios = []
    for t in range(count):
        rng = rng_for(seed, t)
        flats = 1 + t % 4
        depth = t % 4
        f, record = gen_coset_ring(ambient, flats, depth, rng)
        expr, drep = decompose(f)
        l_triv = trivial_expr(round_to_int(f).f_int).L
        if l_triv:
            ratios.append(drep.L / l_triv)
        rep.record(
            0.0 if drep.exact else -1.0,
            {"trial": t, "seed": seed, "n": n, "record": record},
        )
    rep.notes["median_L_ratio"] = median(ratios) if ratios else None
    rep.notes["fallback_runs"] = 0  # decompose has no fallback; kept as a note key
    return rep


CHECKS = {
    "tiny-norm": lambda n, trials, seed: check_tiny_norm(n),
    "pd": lambda n, trials, seed: check_pd(),
    "approx-hom": check_approx_hom,
    "power-bound": check_power_bound,
    "bogolyubov": check_bogolyubov,
    "lemma13": check_lemma13,
    "plunnecke": check_plunnecke_instances,
    "lemma14": check_lemma14,
    "chang-report": check_chang_report,
    "connectedness": check_connectedness,
    "roundtrip": check_roundtrip,
}
