"""Spectral norm, coset-averaging projections, spectral support, and
almost-integer bookkeeping.

psi_H averages a function over cosets of H; on the Fourier side it
restricts the spectrum to the annihilator H^perp.  The greedy
spectral-support finder descends from H one codimension at a time,
each step swallowing an offending coset of ell^1 spectral mass; run
with eta = inf it takes no step, and its certificate's worst_mass is
the support level of f on H.  pd_eval evaluates the integer-detecting
polynomial p_d at a float or entrywise over an array.

psi and the descent run on coset sums computed without transforms,
in quotient coordinates: the cosets of S are indexed by their smallest
members, the words with every RREF pivot bit of S clear, which
gf2.Subgroup.coset_minima lists and free_bits indexes; this module
reads no pivot bit itself.  psi sums f over the cosets of H and divides by |H|.
The descent sums |fhat| over the cosets of H^perp once, keeps one sum
per coset, and each step pairs those cosets along the adjoined word, so
its array halves at every step.  On large tables over subgroups of
dimension >= FRAME_MIN_DIM, _coset_sums gathers the table once into
S's frame, halves it once per basis word and scatters the sums back;
elsewhere it folds the whole table once per basis word.  Both add the
same pairs in the same tree, so they agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .fourier import RealFn
from .gf2 import Subgroup, rref_span


class NotAlmostInteger(ValueError):
    """Some value sits at distance >= 1/2 - 1e-9 from every integer."""


@dataclass(frozen=True)
class AlmostIntFn:
    """A function together with its pointwise integer rounding."""

    f: RealFn
    f_int: RealFn
    eps: float  # exact max deviation ||f - f_int||_inf


@dataclass(frozen=True)
class SupportCertificate:
    subgroup: Subgroup
    eta: float
    worst_coset_rep: int
    worst_mass: float
    steps_used: int


def _abs_spectrum(table: np.ndarray) -> np.ndarray:
    """|fhat| of a (2^n,) table, or of each row of an (m, 2^n) stack, as a
    fresh array, with wht's operations."""
    a = fourier._wht(table)
    a /= table.shape[-1]
    return np.abs(a, out=a)


def a_norm(f: RealFn) -> float:
    """Spectral (Wiener/algebra) norm: sum of |fhat(r)|."""
    return float(_abs_spectrum(f.values).sum())


def psi(f: RealFn, H: Subgroup) -> RealFn:
    """Average f over cosets of H (spectrum restricted to H^perp)."""
    if f.ambient != H.ambient:
        raise fourier.AmbientMismatch("function and subgroup ambients differ")
    return RealFn(f.ambient, _coset_sums(f.values, H) / H.size)


# _coset_sums gathers into S's frame only at n >= FRAME_MIN_N and
# dim S >= FRAME_MIN_DIM.  Frame/fold time ratios (BENCH_13.json): at
# n = 16..20, 0.97-1.4 for dim 1, 0.70-0.93 for dim 2 and 0.14-0.5 for
# dims n/2 and up.  Below n = 16 the fold wins up to dim 3 on most runs
# and the frame only at larger dims (0.47 at n = 14, dim 10).
FRAME_MIN_N = 16
FRAME_MIN_DIM = 2


def _coset_sums(table: np.ndarray, S: Subgroup) -> np.ndarray:
    """out[..., x] = sum of table[..., :] over the coset x + S, for every x
    and for a (2^n,) table or each row of an (m, 2^n) stack.

    The fold: one XOR-gather per basis word over the whole table, the
    sums over span(D, b) being s + s[x ^ b] for the sums s over D.  Each
    fold is symmetric in x and x ^ b, so the result is bit-for-bit
    constant on every coset.  For the trivial S it is table itself.

    The frame path, at n >= FRAME_MIN_N and dim S >= FRAME_MIN_DIM:
    gather the table once into the (|S|, cosets) frame, sorted members
    of S XOR the coset minima; halve the member axis once per basis word
    (s[:h] + s[h:]); scatter the sums back once.  Sorted members put
    basis[0], on the top pivot, on the top bit of the row index, so each
    halving adds the pairs of the fold's own step in the same order up
    to a + b == b + a: the bits are the fold's.
    """
    n = table.shape[-1].bit_length() - 1
    if n < FRAME_MIN_N or S.dim < FRAME_MIN_DIM:
        out = table
        idx = np.arange(table.shape[-1])
        for b in S.basis:
            out = out + out.take(idx ^ b, axis=-1)
        return out
    frame = np.sort(S.element_array())[:, None] ^ S.coset_minima()
    s = table.take(frame, axis=-1)
    h = S.size
    while h > 1:
        h //= 2
        s = s[..., :h, :] + s[..., h:, :]
    out = np.empty(table.shape, dtype=s.dtype)
    out[..., frame] = s
    return out


# Coset sums within TIE_SLACK of the largest count as tied with it, so the
# smallest word wins even when transform rounding splits a tie by a few ulps.
TIE_SLACK = 1e-12


def is_spectrally_supported(f: RealFn, H: Subgroup, eta: float):
    """eta-spectral-support test; returns (ok, worst_rep, worst_mass): the
    worst off-H^perp coset mass of fhat and that coset's smallest word,
    read from the descent from H that takes no step ((0, 0.0) when H is
    trivial, as H^perp is then the whole group)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    cert = find_spectral_support(f, H, math.inf)
    return cert.worst_mass <= eta, cert.worst_coset_rep, cert.worst_mass


def find_spectral_support(f: RealFn, H: Subgroup, eta: float) -> SupportCertificate:
    """Greedy descent to a subgroup H' <= H on which f is eta-supported.

    Each step adjoins to the dual span the smallest frequency word of
    the coset with maximal offending mass; the step count is bounded by
    ceil(a_norm(f)/eta) since offending cosets are pairwise disjoint.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    return _descent(_abs_spectrum(f.values), H, eta)


def _descent(sums: np.ndarray, H: Subgroup, eta: float) -> SupportCertificate:
    """find_spectral_support on |fhat|, passed as the table sums, which is
    never written.

    The descent runs on the quotient by the dual span D: sums[i] is the
    mass of the coset whose smallest word is D.coset_minima()[i], so
    i = 0 is D itself, and those words increase with i.  The start
    D = H^perp is summed by _coset_sums and compressed onto its minima
    once; a trivial D needs neither, as sums already has one entry per
    coset.  Adjoining the word of coset c pairs coset i
    with coset i ^ c.  With p the top bit of c, the one of the two with
    bit p of i clear holds the smaller word and keeps the pair's sum,
    added in the order the whole-table fold added it.  So the array
    halves at every step, D's new minima are the old ones with bit p
    clear, and the smallest word of a worst coset sits at the first
    index within TIE_SLACK of the largest off-D mass.
    """
    ambient = H.ambient
    dual = H.annihilator()
    if dual.dim:
        sums = _coset_sums(sums, dual)[dual.coset_minima()]
    free = dual.free_bits()  # index bit k of sums is word bit free[k]
    reps = []
    while True:
        if sums.size == 1:
            worst, rep = 0.0, 0
            break
        off = sums[1:]
        worst = float(off.max())
        c = 1 + int((off >= worst - TIE_SLACK).argmax())
        rep = sum(1 << free[k] for k in range(c.bit_length()) if (c >> k) & 1)
        if worst <= eta:
            break
        p = c.bit_length() - 1
        halves = sums.reshape(-1, 2, 1 << p)
        partner = np.arange(1 << p) ^ (c ^ (1 << p))
        sums = (halves[:, 0, :] + halves[:, 1, :].take(partner, axis=1)).ravel()
        del free[p]
        reps.append(rep)
    return SupportCertificate(
        # (H^perp)^perp = H
        subgroup=rref_span(ambient, list(dual.basis) + reps).annihilator() if reps else H,
        eta=eta,
        worst_coset_rep=rep,
        worst_mass=worst,
        steps_used=len(reps),
    )


MAX_PD_DEGREE = 12  # (2d)! stays exactly representable territory


def pd_eval(t: float | np.ndarray, d: int) -> float | np.ndarray:
    """The integer-detecting polynomial 4^d (2d)!^-1 prod_{j=-d}^d (t - j),
    at a float or entrywise over an array, with the same operations in
    the same order either way."""
    if not 0 <= d <= MAX_PD_DEGREE:
        raise ValueError(f"d must be in [0, {MAX_PD_DEGREE}]")
    out = 4.0**d / math.factorial(2 * d)
    for j in range(-d, d + 1):
        out = out * (t - j)
    return out


ROUND_GUARD = 0.5 - 1e-9


def round_to_int(f: RealFn) -> AlmostIntFn:
    """Pointwise nearest-integer rounding with exact deviation."""
    rounded = np.rint(f.values)
    eps = float(np.max(np.abs(f.values - rounded))) if f.values.size else 0.0
    if eps >= ROUND_GUARD:
        raise NotAlmostInteger(f"max deviation {eps} >= {ROUND_GUARD}")
    # rint of a finite table is finite
    return AlmostIntFn(f=f, f_int=RealFn._unchecked(f.ambient, rounded), eps=eps)
