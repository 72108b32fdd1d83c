"""Executable checks for the quantitative statements the library is
built around: exhaustive where feasible, seeded random trials elsewhere.

Each check returns a LawReport.  It passes when it ran at least one trial
and none failed, and any counterexample replays deterministically from
(law_id, n, trials, seed).
Margins are (bound - achieved), so nonnegative is healthy.

The sampled checks approx-hom, power-bound, bogolyubov, lemma13 and
plunnecke run in blocks of max(1, TRIAL_BLOCK_ENTRIES >> n) trials.  Each
trial draws its inputs, in trial order, from its own rng_for(seed, t)
stream, so a trial's inputs do not depend on its block.  The block's
tables are stacked into one (block, 2^n) array, and each transform is one
fourier._wht call on all its rows.  Work that depends on each trial's own
subgroup (the coset folds and the support level) stays one trial at a
time, and the per-trial bounds are computed on Python floats (.tolist()),
so each margin is the same float as one trial's scalar arithmetic gives.
From n = 5 on, a row's transform is bit for bit the 1-D one, and at
n <= 4 the kernel pads a lone row onto the matrix path, so a margin does
not depend on the block size.

TRIAL_BLOCK_ENTRIES = 2^14 is sized by page faults.  glibc mmaps a
request of at least its mmap threshold (128 KiB at start), raises the
threshold to the size of each mmapped chunk it frees, and trims the heap
top when more than twice the threshold lies free there; each page given
back and touched again is a minor fault.  At 2^14 a block's float64
table is 128 KiB, and a block's tables and temporaries mostly fit in the
heap that the block before freed.  Whether they do depends on what ran
earlier in the process, so the size was measured in three states, at
the perfbench sizes of the checks (BENCH_47.json):
- perfbench decompose-laws, whose set-up has raised the thresholds: a
  warm pass takes 550-1,400 minor faults (33,700-64,400 at 2^15),
  plunnecke at n = 12 none a call (14,000-22,400 at 2^15), and peak RSS
  reads 0.15-0.31 MB higher, the heap that the blocks keep;
- a fresh process running one check, as `specnorm verify` does: each
  check takes 310-340 faults, its first touch, against 600-24,300 at
  2^15; at n = 12 approx-hom, whose draw stacks two tables, takes about
  17,500;
- `specnorm bench laws`, where the other checks at the same n ran first:
  at n = 10 and 12 approx-hom, power-bound, lemma13 and plunnecke fault
  at 2^14 too, though less than at 2^15.
Blocks of 2^13 entries fault only on first touch in all three (bar
approx-hom at n = 12 in one of two bench laws runs) but cost more Python
per trial (plunnecke 99 ms a warm call against 81).  Summed over the checks,
2^14 was the fastest size in perfbench passes and in fresh single calls,
and 2^13 in bench laws at n = 12 (755 ms against 791; 2^15 903).

The checks compute no quantity of their own that the library owns: each
|transform| comes from spectral._abs_spectrum (an A-norm is its row sum),
each coset sum from spectral._coset_sums, each support level from
spectral._descent, each nu4 level set from additive's _LEVEL_GUARD
rule (_level_sets, and s_eta for lemma14), and each point-mass L from
decompose._term_count.  check_tiny_norm alone multiplies by its own Hadamard
matrix: through _abs_spectrum its n = 4 sweep took 16.1-17.9 ms, not 14.5
(medians of 15 calls in three processes each, 2-vCPU Xeon), same verdicts.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from . import spectral
from .additive import (
    PointSet,
    _convolutions,
    _doubling,
    _level_sets,
    _nu4s,
    _spec_sets,
    _spectra,
    _sumsets,
    bogolyubov_subgroup,
    is_arithmetically_connected,
    s_eta,
    set_stats,
    spec_set,
)
from .decompose import _term_count, decompose
from .fourier import sylvester
from .generate import (
    gen_coset_ring,
    random_structured_set_mask,
    random_subgroup,
    rng_for,
)
from .gf2 import Ambient, rref_span
from .spectral import MAX_PD_DEGREE, pd_eval


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
        """One trial's margin; a negative one fails it."""
        self.record_many([margin], lambda i: witness)

    def record_many(self, margins, witness) -> None:
        """One trial per entry of ``margins``, in order.  ``witness(i)``
        gives entry i's witness; it is called, before this returns, only
        for the entry that becomes the counterexample, the first negative
        margin of the report."""
        margins = np.asarray(margins, dtype=np.float64).ravel()
        self.trials += margins.size
        # a NaN margin is never worst and never fails; of equal minima the
        # first is kept, which is what argmin over the non-NaN entries gives
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
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        rep = fn(*args, **kwargs)
        rep.elapsed = time.perf_counter() - t0
        return rep

    return wrapper


def _random_set(ambient: Ambient, rng) -> np.ndarray:
    """Nonempty set masks: half uniform-density, half structured (small-doubling)."""
    if rng.random() < 0.5:
        density = rng.choice([0.125, 0.25, 0.5])
        mask = rng.random(ambient.size) < density
        if not mask.any():
            mask[int(rng.integers(0, ambient.size))] = True
        return mask
    return random_structured_set_mask(ambient, rng)


# Slack on the tiny-norm law's quantities (anorms, and the certificate's
# sup |phi-hat|), all dyadic rationals at n <= 4.
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
# rho of the large spectrum in check_chang_report
CHANG_RHO = 0.25

# masks per chunk of the tiny-norm sweep, a multiple of the 64 masks a
# bit-plane word holds; sized by time and peak RSS, see check_tiny_norm
_TINY_NORM_CHUNK = 2048
# table entries per block of sampled trials; see the module docstring
TRIAL_BLOCK_ENTRIES = 2**14


def _sweep_index(N: int) -> tuple:
    """(tests, pairs, triples) for the tiny-norm sweep on N points: its
    closure tests.

    tests: index rows (a, b, c, d) into the 2N rows [translated tables;
    tables], one column per test "a, b and c in, d out".  The first
    `pairs` columns test the translate, one per pair a < b, with c = 0
    (in every translate) and d = a^b.  The rest test the table, one per
    triple p < q < r, with d = p^q^r.  Pairs and triples are each in
    lexicographic order; triples holds them as rows (p, q, r, p^q^r).
    """
    x = np.arange(N)
    lt = x[:, None] < x
    pa, pb = lt.nonzero()
    tp, tq, tr = (lt[:, :, None] & lt).nonzero()
    P = pa.size
    tests = np.empty((4, P + tp.size), dtype=np.intp)
    tests[0, :P], tests[1, :P], tests[2, :P], tests[3, :P] = pa, pb, 0, pa ^ pb
    tests[:, P:] = tp, tq, tr, tp ^ tq ^ tr
    triples = tests[:, P:].copy()
    tests[:, P:] += N
    return tests, P, triples


def _bit_planes(f: np.ndarray) -> np.ndarray:
    """An (N, m) boolean array as (N, ceil(m / 64)) uint64 words: bit j of
    word k in row x is f[x, 64 k + j]."""
    N, m = f.shape
    planes = np.zeros((N, -(-m // 64) * 8), dtype=np.uint8)
    planes[:, :-(-m // 8)] = np.packbits(f, axis=1, bitorder="little")
    return planes.view(np.uint64)


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """The first count bits of each row of _bit_planes words, as booleans."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=count, bitorder="little").view(bool)


def _tiny_norm_verdicts(masks: np.ndarray, had: np.ndarray) -> tuple[np.ndarray, float]:
    """The tiny-norm conditions on the tables 1_S, x in S iff bit x of the
    mask is set, for nonzero masks and the N x N transform matrix had:
    (ok per mask, smallest non-coset anorm)."""
    N = had.shape[0]
    xs = np.arange(N)[:, None]
    (a, b, c, d), pairs, (tp, tq, tr, ts) = _sweep_index(N)
    ok = np.empty(masks.size, dtype=bool)
    min_noncoset = math.inf
    # sup |phi-hat| of each triple's certificate phi = N (1_p + 1_q + 1_r -
    # 1_(p^q^r)) depends on the triple alone (none at n = 1): mark the
    # triples whose certificate is off, a NaN sup included
    sup = np.abs(had[tp] + had[tq] + had[tr] - had[ts]).max(axis=1)
    off = ~(np.abs(sup - 2.0) <= TINY_NORM_TOL)
    # tables are stored transposed, one row per point x and one column per
    # mask; the rows pack into words of 64 masks, so every test below
    # handles 64 masks per word operation
    for lo in range(0, masks.size, _TINY_NORM_CHUNK):
        chunk = masks[lo:lo + _TINY_NORM_CHUNK]
        m = chunk.size
        f = ((chunk >> xs) & 1).astype(bool)
        # the tables translated by their smallest members (lowest set
        # bits), then the tables
        low = np.bitwise_count((chunk & -chunk) - 1)
        f0 = ((chunk >> (xs ^ low)) & 1).astype(bool)
        planes = _bit_planes(np.concatenate((f0, f)))
        # the closure tests "a, b and c in, d out": a failed pair test means
        # the translate is not closed under xor, so S is not a coset; a
        # failed triple test is a parallelogram violation, p < q < r in S
        # with p^q^r outside S (symmetric, so sorted triples suffice)
        failed = planes[a]
        failed &= planes[b]
        failed &= planes[c]
        failed &= ~planes[d]
        bad = failed[pairs:]
        noncoset, unclosed = _unpack(np.array((
            np.bitwise_or.reduce(failed[:pairs]), np.bitwise_or.reduce(bad))), m)
        an = had.T @ f.astype(np.float64)
        an /= N
        an = np.abs(an, out=an).sum(axis=0)
        good = (noncoset == unclosed) & (noncoset != (an <= 1 + TINY_NORM_TOL))
        nc = noncoset.nonzero()[0]
        if nc.size:
            min_noncoset = min(min_noncoset, float(an[nc].min()))
            # the certificate sits on each mask's first violating triple, the
            # row where its bit of the running OR turns on; a mask's bit is
            # set in exactly one such row, or in none if no triple violates
            first = np.bitwise_or.accumulate(bad)
            first[1:] &= ~first[:-1]
            wrong = _unpack(np.bitwise_or.reduce(first[off]), m)
            good[nc] &= (an[nc] >= 1.5 - TINY_NORM_TOL) & ~wrong[nc]
        ok[lo:lo + m] = good
    return ok, min_noncoset


@_timed
def check_tiny_norm(n: int) -> LawReport:
    """Exhaustive: nonzero boolean f is a coset indicator iff a_norm <= 1
    iff parallelogram-closed, and otherwise a_norm >= 3/2, with the
    four-point certificate giving <f, phi> = 3 and ||phi-hat||_inf = 2.
    The certificate sits on the mask's first violating triple p < q < r,
    so f is 1, 1, 1, 0 at p, q, r, p^q^r and <f, phi> = 3 holds for every
    mask by construction; the sweep tests ||phi-hat||_inf alone.  That
    depends on the triple alone, so the sweep marks the triples whose
    certificate is off once, and a mask fails when its first violating
    triple is one of them.

    The 2^(2^n) - 1 tables are tested in chunks of _TINY_NORM_CHUNK = 2048
    masks, stored as bit planes: the table's value at each point x packs
    into 2048 / 64 uint64 words, so each closure test handles 64 masks
    per word operation.  The largest temporaries at n = 4 are the
    C(16, 2) + C(16, 3) = 680 closure tests (174 KB) and the float tables
    behind the anorms (256 KB), both formed in place.  Run alone, the
    n = 4 sweep takes 22-27 ms at a peak RSS of 33.8 MB (medians of 30
    calls a process, BENCH_28.json).  When the chunk size was chosen,
    2048-mask chunks took 36-38 ms at 34.2 MB, against 42-45 ms at
    33.9 MB with 1024 and 32-36 ms at 35.0 MB with 4096.  On the perfbench
    decompose-laws workload 2048-mask chunks ran more ops per second than
    1024 and as many as 3072 or 4096, which raised its peak RSS further
    (BENCH_12.json).
    """
    Ambient(n)
    if n > 4:
        raise ValueError("exhaustive check is limited to n <= 4")
    rep = LawReport(law_id="tiny-norm")
    N = 1 << n
    masks = np.arange(1, 1 << N, dtype=np.int64)
    ok, min_noncoset = _tiny_norm_verdicts(masks, sylvester(N))
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


def _sampled(law_id: str, n: int, trials: int, seed: int, block_margins) -> LawReport:
    """Run the trials in blocks of max(1, TRIAL_BLOCK_ENTRIES >> n), in
    order.  block_margins(block) gets a block's range of trial indices and
    returns (margins, extra): one margin per trial, and extra(i), the keys
    that trial i's witness adds to its trial, seed and n."""
    rep = LawReport(law_id=law_id)
    size = max(1, TRIAL_BLOCK_ENTRIES >> n)
    for lo in range(0, trials, size):
        block = range(lo, min(lo + size, trials))
        margins, extra = block_margins(block)
        rep.record_many(margins, lambda i: {
            "trial": block[i], "seed": seed, "n": n, **extra(i)})
    return rep


def _draw_reals(ambient: Ambient, seed: int, block: range, tables: int):
    """Per trial: the given number of uniform [-1, 1) tables, then a random
    subgroup, from the trial's own stream.  Returns the tables stacked
    ((tables, len(block), 2^n)) and the subgroups."""
    out = np.empty((tables, len(block), ambient.size))
    Hs = []
    for i, t in enumerate(block):
        rng = rng_for(seed, t)
        for table in out:
            table[i] = rng.uniform(-1, 1, ambient.size)
        Hs.append(random_subgroup(ambient, rng))
    return out, Hs


@_timed
def check_approx_hom(n: int, trials: int, seed: int) -> LawReport:
    """defect(f, g, H) <= eta * a_norm(g) with measured eta: the defect is
    a_norm(psi_H(fg) - psi_H(f) psi_H(g)), eta the support level of f on H."""
    ambient = Ambient(n)

    def block_margins(block):
        (F, G), Hs = _draw_reals(ambient, seed, block, 2)
        abs_f = spectral._abs_spectrum(F)
        norm_g = spectral._abs_spectrum(G).sum(axis=-1).tolist()
        D = np.empty_like(F)
        for i, H in enumerate(Hs):
            fg, pf, pg = spectral._coset_sums(np.stack((F[i] * G[i], F[i], G[i])), H, H.size)
            D[i] = fg - pf * pg
        defect = spectral._abs_spectrum(D).sum(axis=-1).tolist()
        return [
            spectral._descent(abs_f[i], H, math.inf).worst_mass * norm_g[i]
            + NORM_BOUND_SLACK - defect[i]
            for i, H in enumerate(Hs)
        ], lambda i: {}

    return _sampled("approx-hom", n, trials, seed, block_margins)


@_timed
def check_power_bound(n: int, trials: int, seed: int) -> LawReport:
    """a_norm(psi(f^k) - (psi f)^k) <= eta (k-1) M^(k-1), k in 2..5."""
    ambient = Ambient(n)

    def block_margins(block):
        (F,), Hs = _draw_reals(ambient, seed, block, 1)
        abs_f = spectral._abs_spectrum(F)
        m_norm = abs_f.sum(axis=-1).tolist()
        ks = [2 + t % 4 for t in block]
        D = np.empty_like(F)
        for i, H in enumerate(Hs):
            pf, pfk = spectral._coset_sums(np.stack((F[i], F[i]**ks[i])), H, H.size)
            D[i] = pfk - pf**ks[i]
        lhs = spectral._abs_spectrum(D).sum(axis=-1).tolist()
        return [
            spectral._descent(abs_f[i], H, math.inf).worst_mass * (ks[i] - 1)
            * m_norm[i] ** (ks[i] - 1)
            + NORM_BOUND_SLACK - lhs[i]
            for i, H in enumerate(Hs)
        ], lambda i: {"k": ks[i]}

    return _sampled("power-bound", n, trials, seed, block_margins)


@_timed
def check_bogolyubov(
    n: int, trials: int, seed: int, delta: float = 0.5, epsilon: float = 0.25
) -> LawReport:
    """S_delta + Spec_rho(A)^perp is inside S_(delta-eps), rho = sqrt(eps/2)."""
    if not 0 < epsilon < delta <= 1:
        raise ValueError("need 0 < epsilon < delta <= 1")
    ambient = Ambient(n)
    rho = math.sqrt(epsilon / 2.0)

    def block_margins(block):
        A = np.array([_random_set(ambient, rng_for(seed, t)) for t in block])
        spec = _spectra(A)
        alphas = (np.count_nonzero(A, axis=-1) / ambient.size).tolist()
        large = _spec_sets(spec, rho, alphas)
        nu = _nu4s(spec)
        Sd = _level_sets(nu, [delta] * len(block), alphas)
        Sde = _level_sets(nu, [delta - epsilon] * len(block), alphas)
        margins = []
        for i in range(len(block)):
            # H = Spec_rho(A)^perp; Sd + H: the points whose H-coset meets Sd
            H = rref_span(ambient, np.flatnonzero(large[i])).annihilator()
            shifted = spectral._coset_sums(Sd[i].astype(np.float64), H) > 0
            margins.append(0.0 if np.all(Sde[i] | ~shifted) else -1.0)
        return margins, lambda i: {}

    return _sampled("bogolyubov", n, trials, seed, block_margins)


@_timed
def check_lemma13(n: int, trials: int, seed: int) -> LawReport:
    """With eta = 1/(2K^4): density of S_eta >= alpha/2 and
    sup of 1_A * 1_(S_eta) >= eta * alpha / 2."""
    ambient = Ambient(n)
    N = ambient.size

    def block_margins(block):
        A = np.array([random_structured_set_mask(ambient, rng_for(seed, t)) for t in block],
                     dtype=bool)
        spec = _spectra(A)
        cards = np.count_nonzero(A, axis=-1).tolist()
        cards_2a = np.count_nonzero(_sumsets(spec, spec), axis=-1).tolist()
        Ks = [_doubling(c2, c) for c2, c in zip(cards_2a, cards)]
        alphas = [c / N for c in cards]
        etas = [1.0 / (2.0 * K**4) for K in Ks]
        S = _level_sets(_nu4s(spec), etas, alphas)
        dens_s = (np.count_nonzero(S, axis=-1) / N).tolist()
        sups = np.abs(_convolutions(spec, _spectra(S))).max(axis=-1).tolist()
        return [
            min(dens_s[i] - alphas[i] / 2.0 + DENSITY_SLACK,
                sups[i] - etas[i] * alphas[i] / 2.0 + DENSITY_SLACK)
            for i in range(len(block))
        ], lambda i: {"K": Ks[i]}

    return _sampled("lemma13", n, trials, seed, block_margins)


@_timed
def check_plunnecke_instances(n: int, trials: int, seed: int) -> LawReport:
    """Empirical instances of E 1_(4A) <= K^4 alpha.  4A = 2A + 2A, so a
    trial makes four transforms: A's spectrum, 2A, 2A's spectrum and 4A."""
    ambient = Ambient(n)
    N = ambient.size

    def block_margins(block):
        A = np.array([_random_set(ambient, rng_for(seed, t)) for t in block])
        spec = _spectra(A)
        two = _sumsets(spec, spec)
        spec_2a = _spectra(two)
        cards = np.count_nonzero(A, axis=-1).tolist()
        cards_2a = np.count_nonzero(two, axis=-1).tolist()
        dens_4a = (np.count_nonzero(_sumsets(spec_2a, spec_2a), axis=-1) / N).tolist()
        Ks = [_doubling(c2, c) for c2, c in zip(cards_2a, cards)]
        return [
            Ks[i]**4 * (cards[i] / N) - dens_4a[i] + DENSITY_SLACK for i in range(len(block))
        ], lambda i: {"K": Ks[i]}

    return _sampled("plunnecke", n, trials, seed, block_margins)


@_timed
def check_lemma14(n: int, trials: int, seed: int) -> LawReport:
    """Pigeonhole level schedule: the part of the chosen level set not
    covered by full cosets of the Bogolyubov subgroup is small."""
    rep = LawReport(law_id="lemma14")
    ambient = Ambient(n)
    for t in range(trials):
        rng = rng_for(seed, t)
        for _ in range(50):
            A = PointSet(ambient, random_structured_set_mask(ambient, rng))
            stats = set_stats(A)
            if 16.0 * stats.doubling ** 8 <= 1e5:
                break
        else:
            continue  # doubling too large for the level scan; resampled out
        K = stats.doubling  # >= 1: every draw contains 0, so A + A contains A
        alpha = stats.alpha
        eta0 = 1.0 / (2.0 * K**4)
        eps = 1.0 / (64.0 * K**12)
        L = math.ceil(1.0 / (4.0 * K**4 * eps))
        budget = alpha / (16.0 * K**4)
        j_found = None
        prev = s_eta(A, eta0).density
        for j in range(L):
            cur = s_eta(A, eta0 - (j + 1) * eps).density
            if cur - prev <= budget + DENSITY_SLACK:
                j_found = j
                break
            prev = cur
        if j_found is None:
            rep.record(-1.0, {"trial": t, "seed": seed, "n": n, "K": K})
            continue
        rho = 1.0 / (16.0 * K**6)
        Hp = bogolyubov_subgroup(A, rho)
        S = s_eta(A, eta0 - (j_found + 1) * eps)
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
        A = PointSet(ambient, _random_set(ambient, rng))
        dim = rref_span(ambient, spec_set(A, CHANG_RHO).points()).dim
        shape = CHANG_RHO**-2 * (1.0 + math.log(1.0 / A.density))
        ratios.append(dim / shape)
        rep.record(0.0, {"trial": t, "seed": seed, "n": n})
    rep.notes["max_dim_over_shape"] = max(ratios) if ratios else None
    rep.notes["median_dim_over_shape"] = median(ratios) if ratios else None
    return rep


@_timed
def check_connectedness(n: int, trials: int, seed: int) -> LawReport:
    """Definitional checks: subgroup-minus-zero families are 2-connected;
    independent-vector families are not, with a valid witness.  The
    subgroup trials need a subgroup of dimension >= 2, so n >= 2."""
    if n < 2:
        raise ValueError("connectedness check needs n >= 2")
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
            rep.record(0.0 if ok and witness is None else -1.0, {"trial": t, "seed": seed, "n": n})
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
            rep.record(0.0 if good else -1.0, {"trial": t, "seed": seed, "n": n, "m": m})
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
        l_triv = _term_count(f.values)  # the point-mass expression's L
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
