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
gf2.Subgroup.coset_minima lists and free_bits indexes.  _halve adds the
pairs of entries that differ by one word, keeps each sum at the member
with the word's top bit clear and drops that index bit, so one _halve
per basis word of S, in RREF order, leaves one sum per coset in
coset_minima order; _spread copies each sum back to both members.
From n = FRAME_MIN_N (15), _coset_sums halves, divides (psi divides by
|H|) and spreads, so the division runs on the quotient, and each gather
reads pieces of 2^fourier.BLOCK_BITS entries; below it _coset_sums folds
the whole table once per basis word.  At n = 15 the quotient took 0.2-0.6
of the fold's time over dims 1, 2, n/2, n - 4 and n - 2; at n = 14 it
took 1.2 and 1.04 of it at dims 1 and 2, so n = 14 folds.  The descent
halves |fhat| onto the cosets of H^perp once, and each step halves along
the adjoined word.  Every path adds the same pairs in the same tree, so
they agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .fourier import BLOCK_BITS, RealFn
from .gf2 import AmbientMismatch, Subgroup, rref_span


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
    fresh array."""
    a = fourier._fhat(table)
    return np.abs(a, out=a)


def a_norm(f: RealFn) -> float:
    """Spectral (Wiener/algebra) norm: sum of |fhat(r)|."""
    return float(_abs_spectrum(f.values).sum())


def psi(f: RealFn, H: Subgroup) -> RealFn:
    """Average f over cosets of H (spectrum restricted to H^perp)."""
    if f.ambient != H.ambient:
        raise AmbientMismatch("function and subgroup ambients differ")
    return RealFn(f.ambient, _coset_sums(f.values, H, H.size))


# _coset_sums runs on the quotient from n = FRAME_MIN_N and folds below it.
# Quotient/fold time ratios over dims 1, 2, n/2 and n - 2: 3.8-6.1 at n = 8,
# 1.3-1.7 at n = 12, 0.4-0.9 at n = 16.  Over dims 1, 2, n/2, n - 4 and
# n - 2: 0.41, 0.29, 0.20, 0.64, 0.29 at n = 15, and 1.20, 1.04, 0.75,
# 0.67, 0.63 at n = 14, which loses at dims 1 and 2 and so stays on the fold.
FRAME_MIN_N = 15
# _halve and _spread gather the partner half with takes when w's top bit
# p is at least TAKE_MIN_BIT, and one column of the 2^p-wide view at a
# time below it.  Over 2^20 entries, at p = 1..2 a halving took 4.5-7.5 ms
# by takes against 1.3-3.0 ms by columns and a spread 5.9-11 ms against
# 2.7-5.5 ms; at p = 3 a halving took 3.0-5.3 ms against 4.6-5.4 ms and a
# spread 3.7-8.6 ms against 10.5-13.4 ms.
TAKE_MIN_BIT = 3


def _xor_take(a: np.ndarray, low: int, out: np.ndarray) -> None:
    """out[..., i, j] = a[..., i, j ^ low] for a (..., R, 2^p) array a and
    low < 2^p, one piece of about 2^BLOCK_BITS entries at a time: m
    entries of a row, or whole rows when a row is shorter.  XOR by low
    maps the m entries from j = c on onto the m entries of a from c ^ top,
    top being low's bits from m up, and permutes them by low's bits below
    m, so every piece is one take through the same m-entry index."""
    rows, size = a.shape[-2:]
    m = min(size, 1 << BLOCK_BITS)
    idx = np.arange(m)
    idx ^= low & (m - 1)
    top = low & -m
    step = (1 << BLOCK_BITS) // m  # rows a piece
    for i in range(0, rows, step):
        for c in range(0, size, m):
            src = a[..., i:i + step, c ^ top:(c ^ top) + m]
            # every index is in range; "clip" spares the copy of out that
            # take buffers under the default mode
            np.take(src, idx, axis=-1, out=out[..., i:i + step, c:c + m], mode="clip")


def _halve(s: np.ndarray, w: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum the pairs {i, i ^ w} of the last axis of s, keeping each sum at
    the member whose bit p, w's top bit, is clear, as s[i] + s[i ^ w];
    w has no bit above p.  The result, written to out when given, drops
    index bit p: its entry j is the sum at the member i with the bits of
    j above p moved up one.  An s of one piece, as in most descent steps,
    takes a single gather."""
    p = w.bit_length() - 1
    low = w ^ (1 << p)
    h = s.reshape(s.shape[:-1] + (-1, 2, 1 << p))
    o = None if out is None else out.reshape(h.shape[:-2] + (1 << p,))
    if p >= TAKE_MIN_BIT and s.size <= 1 << BLOCK_BITS:
        o = np.add(h[..., 0, :], h[..., 1, :].take(np.arange(1 << p) ^ low, axis=-1), out=o)
    else:
        if o is None:
            o = np.empty(h.shape[:-2] + (1 << p,))
        if p >= TAKE_MIN_BIT:
            _xor_take(h[..., 1, :], low, o)
            np.add(h[..., 0, :], o, out=o)
        else:
            for j in range(1 << p):
                np.add(h[..., 0, j], h[..., 1, j ^ low], out=o[..., j])
    return o.reshape(s.shape[:-1] + (-1,))


def _spread(s: np.ndarray, w: int, out: np.ndarray) -> None:
    """The inverse layout of _halve: each entry of the last axis of s goes
    to both members of its pair {i, i ^ w} in out, which has twice the
    entries and ends constant on every pair."""
    p = w.bit_length() - 1
    low = w ^ (1 << p)
    r = s.reshape(s.shape[:-1] + (-1, 1 << p))
    o = out.reshape(r.shape[:-1] + (2, 1 << p))
    if p >= TAKE_MIN_BIT:
        o[..., 0, :] = r
        _xor_take(r, low, o[..., 1, :])
    else:
        for j in range(1 << p):
            o[..., 0, j] = r[..., j]
            o[..., 1, j ^ low] = r[..., j]


def _coset_sums(table: np.ndarray, S: Subgroup, divisor: int | None = None) -> np.ndarray:
    """out[..., x] = the sum of table[..., :] over the coset x + S, divided
    by divisor when one is given, for every x and for a (2^n,) table or
    each row of an (m, 2^n) stack.

    Below n = FRAME_MIN_N, the fold: one XOR-gather per basis word over
    the whole table, the sums over span(D, b) being s + s[x ^ b] for the
    sums s over D.  Each fold is symmetric in x and x ^ b, so the result
    is bit-for-bit constant on every coset.  For the trivial S and no
    divisor it is table itself.

    From n = FRAME_MIN_N, the quotient: _halve once per basis word, in
    basis order, divide, then _spread once per word in reverse.  Each RREF
    word has no bit at an earlier word's pivot or above it, so it keeps
    its value in the halved coordinates, and each halving adds the pairs
    of the fold's own step in the same order up to a + b == b + a: the
    bits are the fold's.  Level k of the halving, 2^(n-k) sums a row, is
    written to a temporary for k = 1 and packed into the output for
    k >= 2, which only the last spread, from level 1, overwrites: a call
    allocates two arrays whatever dim S is.  With a fresh array per level,
    psi at n = 20 took about 2,500 minor page faults a call instead of
    under 200.
    """
    n = table.shape[-1].bit_length() - 1
    if n < FRAME_MIN_N or not S.dim:
        idx = np.arange(table.shape[-1])
        for b in S.basis:
            table = table + table.take(idx ^ b, axis=-1)
        return table if divisor is None else table / divisor
    out = np.empty(table.shape)
    lead, size = table.shape[:-1], table.shape[-1]
    levels = [table, np.empty(lead + (size >> 1,))]
    start = 0
    for k in range(2, S.dim + 1):
        levels.append(out[..., start:start + (size >> k)])
        start += size >> k
    for k, b in enumerate(S.basis, 1):
        _halve(levels[k - 1], b, levels[k])
    if divisor is not None:
        np.divide(levels[-1], divisor, out=levels[-1])
    levels[0] = out
    for k in range(S.dim, 0, -1):
        _spread(levels[k], S.basis[k - 1], levels[k - 1])
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
    D = H^perp is one _halve per basis word, the halvings of _coset_sums'
    quotient.  Adjoining the word of coset c is one more _halve, by c: it
    pairs coset i with coset i ^ c, and with p the top bit of c, the one
    of the two with bit p of i clear holds the smaller word and keeps the
    pair's sum, added in the order the whole-table fold added it.  So the
    array halves at every step, D's new minima are the old ones with bit
    p clear, and the smallest word of a worst coset sits at the first
    index within TIE_SLACK of the largest off-D mass.
    """
    ambient = H.ambient
    dual = H.annihilator()
    for b in dual.basis:
        sums = _halve(sums, b)
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
        sums = _halve(sums, c)
        del free[c.bit_length() - 1]
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
    eps = float(np.max(np.abs(f.values - rounded)))
    if eps >= ROUND_GUARD:
        raise NotAlmostInteger(f"max deviation {eps} >= {ROUND_GUARD}")
    # rint of a finite table is finite
    return AlmostIntFn(f=f, f_int=RealFn._unchecked(f.ambient, rounded), eps=eps)
