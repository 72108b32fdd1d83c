"""Spectral norm, coset-averaging projections, spectral support, and
almost-integer bookkeeping.

psi_H averages a function over cosets of H; on the Fourier side it
restricts the spectrum to the annihilator H^perp.  The greedy
spectral-support finder descends from H one codimension at a time,
each step swallowing an offending coset of ell^1 spectral mass; the
support level of f on H is that descent run with eta = inf, so that it
takes no step.  pd_eval evaluates the integer-detecting polynomial p_d
at a float or over a whole array, and pd_apply applies it to a table.

psi and the descent run on coset sums computed without transforms: one
XOR-gather fold per basis word (_coset_sums).  psi folds f over H's
basis and divides by |H|; the descent folds |fhat| over H^perp once,
then once per step with the adjoined frequency word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .fourier import RealFn, wht
from .gf2 import Subgroup, point_to_hex, rref_span


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

    def to_json(self) -> dict:
        return {
            "subgroup": self.subgroup.to_json(),
            "eta": self.eta,
            "steps": self.steps_used,
            "worst_coset": point_to_hex(self.worst_coset_rep),
            "worst_mass": self.worst_mass,
        }


def a_norm(f: RealFn) -> float:
    """Spectral (Wiener/algebra) norm: sum of |fhat(r)|."""
    return fourier.spec_lp_norm(wht(f), 1)


def psi(f: RealFn, H: Subgroup) -> RealFn:
    """Average f over cosets of H (spectrum restricted to H^perp)."""
    if f.ambient != H.ambient:
        raise fourier.AmbientMismatch("function and subgroup ambients differ")
    return RealFn(f.ambient, _coset_sums(f.values, H) / H.size)


def _coset_sums(table: np.ndarray, S: Subgroup) -> np.ndarray:
    """out[..., x] = sum of table[..., :] over the coset x + S, for every x
    and for a (2^n,) table or each row of an (m, 2^n) stack.

    One XOR-gather fold per basis word: the sums over span(D, b) are
    s + s[x ^ b] for the sums s over D.  Each fold is symmetric in x and
    x ^ b, so the result is bit-for-bit constant on every coset.  For
    the trivial S the result is table itself, not a copy.
    """
    out = table
    idx = np.arange(table.shape[-1])
    for b in S.basis:
        out = out + out.take(idx ^ b, axis=-1)
    return out


# Coset sums within TIE_SLACK of the largest count as tied with it, so the
# smallest word wins even when transform rounding splits a tie by a few ulps.
TIE_SLACK = 1e-12


def _worst_off_coset(sums: np.ndarray, dual: Subgroup) -> tuple[float, int]:
    """Largest coset sum off the proper subgroup dual, and the smallest
    word attaining it to within TIE_SLACK.

    sums is constant on cosets of dual, so that word is also the
    smallest member of its coset.
    """
    off = ~dual.mask()
    worst = float(np.max(sums[off]))
    rep = int(np.flatnonzero(off & (sums >= worst - TIE_SLACK))[0])
    return worst, rep


def spectral_support_level(f: RealFn, H: Subgroup) -> tuple[float, int]:
    """Worst off-H^perp coset mass of fhat and the coset's smallest rep:
    the descent from H that takes no step.

    Returns (0.0, 0) when H is trivial, so that H^perp is the whole
    group and no off cosets exist.
    """
    cert = find_spectral_support(f, H, math.inf)
    return cert.worst_mass, cert.worst_coset_rep


def is_spectrally_supported(f: RealFn, H: Subgroup, eta: float):
    """eta-spectral-support test; returns (ok, worst_rep, worst_mass)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    worst, rep = spectral_support_level(f, H)
    return worst <= eta, rep, worst


def find_spectral_support(f: RealFn, H: Subgroup, eta: float) -> SupportCertificate:
    """Greedy descent to a subgroup H' <= H on which f is eta-supported.

    Each step adjoins to the dual span the smallest frequency word of
    the coset with maximal offending mass; the step count is bounded by
    ceil(a_norm(f)/eta) since offending cosets are pairwise disjoint.
    The coset sums of |fhat| are folded over H^perp once and then once
    more per step, with the adjoined word.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    return _descent(np.abs(wht(f).coeffs), H, eta)


def _descent(sums: np.ndarray, H: Subgroup, eta: float) -> SupportCertificate:
    """find_spectral_support on |fhat|, passed as the table sums.  Every
    fold rebinds sums, so a temporary passed in is freed at the first
    fold, not held for the whole descent (8 MiB at n = 20)."""
    ambient = H.ambient
    dual = H.annihilator()
    sums = _coset_sums(sums, dual)
    idx = np.arange(ambient.size)
    steps = 0
    while True:
        if dual.dim == ambient.n:
            worst, rep = 0.0, 0
            break
        worst, rep = _worst_off_coset(sums, dual)
        if worst <= eta:
            break
        dual = rref_span(ambient, list(dual.basis) + [rep])
        sums = sums + sums[idx ^ rep]
        steps += 1
    return SupportCertificate(
        subgroup=dual.annihilator() if steps else H,  # (H^perp)^perp = H
        eta=eta,
        worst_coset_rep=rep,
        worst_mass=worst,
        steps_used=steps,
    )


def approx_hom_defect(f: RealFn, g: RealFn, H: Subgroup) -> float:
    """a_norm(psi_H(fg) - psi_H(f) psi_H(g))."""
    return a_norm(psi(f * g, H) - psi(f, H) * psi(g, H))


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


def pd_apply(f: RealFn, d: int) -> RealFn:
    return RealFn(f.ambient, pd_eval(f.values, d))


ROUND_GUARD = 0.5 - 1e-9


def round_to_int(f: RealFn) -> AlmostIntFn:
    """Pointwise nearest-integer rounding with exact deviation."""
    rounded = np.rint(f.values)
    eps = float(np.max(np.abs(f.values - rounded))) if f.values.size else 0.0
    if eps >= ROUND_GUARD:
        raise NotAlmostInteger(f"max deviation {eps} >= {ROUND_GUARD}")
    return AlmostIntFn(f=f, f_int=RealFn(f.ambient, rounded), eps=eps)
