"""Sumsets, the fourfold autoconvolution nu4 and its level sets,
large-spectrum sets, Bogolyubov subgroups, arithmetic connectedness,
and the concentration-subgroup search (a heuristic candidate ladder
with no exhaustive mode; decompose does not use it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import fourier, spectral
from .fourier import RealFn, Spectrum, iwht, wht
from .gf2 import Ambient, AmbientMismatch, Subgroup, rref_span, trivial
from .spectral import AlmostIntFn


class ZeroInSet(ValueError):
    """Arithmetic connectedness requires 0 not in A."""


class SearchBudgetExceeded(RuntimeError):
    """Tuple search too large; shrink the instance."""


@dataclass(frozen=True)
class PointSet:
    """Subset of F_2^n as a dense boolean membership table."""

    ambient: Ambient
    members: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.members, dtype=bool)
        if m.shape != (self.ambient.size,):
            raise ValueError("membership table has wrong length")
        object.__setattr__(self, "members", m)

    @staticmethod
    def from_points(ambient: Ambient, points) -> "PointSet":
        m = np.zeros(ambient.size, dtype=bool)
        for p in points:
            m[ambient.check_point(int(p))] = True
        return PointSet(ambient, m)

    @property
    def card(self) -> int:
        return int(np.count_nonzero(self.members))

    @property
    def density(self) -> float:
        return self.card / self.ambient.size

    def points(self) -> list[int]:
        return [int(x) for x in np.nonzero(self.members)[0]]

    def indicator(self) -> RealFn:
        return RealFn(self.ambient, self.members.astype(np.float64))

    def _check(self, other: "PointSet") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("sets in different ambients")


@dataclass(frozen=True)
class SetStats:
    alpha: float
    doubling: float


def set_stats(A: PointSet) -> SetStats:
    alpha = A.density
    if A.card == 0:
        return SetStats(alpha=0.0, doubling=0.0)
    return SetStats(alpha=alpha, doubling=sumset(A, A).card / A.card)


def sumset(A: PointSet, B: PointSet) -> PointSet:
    """{a xor b : a in A, b in B}, via representation counts."""
    A._check(B)
    n_pts = A.ambient.size
    counts = n_pts * fourier.convolve(A.indicator(), B.indicator()).values
    return PointSet(A.ambient, counts > 0.5)


def iterated(A: PointSet, k: int) -> PointSet:
    """k-fold sumset A + ... + A."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = A
    for _ in range(k - 1):
        out = sumset(out, A)
    return out


def nu4(A: PointSet) -> RealFn:
    """Fourfold E-convolution of the indicator of A."""
    if A.card == 0:
        raise ValueError("nu4 of the empty set")
    c = wht(A.indicator()).coeffs
    return iwht(Spectrum(A.ambient, c**4))


# relative guard on the nu4 threshold: absorbs transform rounding
# without moving any honestly-separated point across the level
_LEVEL_GUARD = 1e-9


def s_eta(A: PointSet, eta: float) -> PointSet:
    """Super-level set {x : nu4(x) >= eta * alpha^3}."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    alpha = A.density
    thresh = eta * alpha**3
    return PointSet(A.ambient, nu4(A).values >= thresh - _LEVEL_GUARD * alpha**3)


# relative guard on the large-spectrum threshold: a coefficient equal to
# rho * alpha stays in the set when transform rounding puts it a few ulps below
SPEC_SET_SLACK = 1e-12


def spec_set(A: PointSet, rho: float) -> PointSet:
    """Large spectrum {r : |1A-hat(r)| >= rho * alpha}."""
    if not 0 < rho <= 1:
        raise ValueError("rho must be in (0, 1]")
    alpha = A.density
    c = np.abs(wht(A.indicator()).coeffs)
    return PointSet(A.ambient, c >= rho * alpha - SPEC_SET_SLACK * alpha)


def bogolyubov_subgroup(A: PointSet, rho: float) -> Subgroup:
    """Annihilator of the span of the large spectrum."""
    return rref_span(A.ambient, spec_set(A, rho).points()).annihilator()


TUPLE_BUDGET = 10**7


def is_arithmetically_connected(A: PointSet, m: int):
    """Exhaustive test of m-arithmetic connectedness.

    Returns (True, None) or (False, witness_tuple).  Vacuously true
    when |A| < m.  The witness is an m-tuple of independent elements
    whose span contains no further element of A.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if A.members[0]:
        raise ZeroInSet("0 must not belong to A")
    pts = A.points()
    if len(pts) < m:
        return True, None
    if math.comb(len(pts), m) > TUPLE_BUDGET:
        raise SearchBudgetExceeded(
            f"C({len(pts)}, {m}) tuples exceed the {TUPLE_BUDGET} budget"
        )
    points = np.array(pts, dtype=np.int64)
    for tup in combinations(pts, m):
        # the tuple's own m points always reduce to 0 in its span
        span = rref_span(A.ambient, tup)
        if span.dim == m and np.count_nonzero(span.reduce(points) == 0) == m:
            return False, tup
    return True, None


@dataclass(frozen=True)
class ConcentrationParams:
    rhos: tuple[float, ...] = (0.5, 0.25, 0.125)
    beam_top: int = 16
    beam_max_size: int = 4


def _psi_sup(f: RealFn, H: Subgroup) -> float:
    return float(np.max(np.abs(spectral.psi(f, H).values)))


def density_floor(f: AlmostIntFn) -> float:
    """Desk-scale stand-in for the proposition's density guarantee."""
    n = f.f.ambient.n
    m_norm = spectral.a_norm(f.f)
    l1 = float(np.mean(np.abs(f.f_int.values)))
    return min(1.0, max(2.0**-n, l1 / (8.0 * (m_norm + 1.0))))


def find_concentration_subgroup(
    f: AlmostIntFn, params: ConcentrationParams = ConcentrationParams()
) -> tuple[Subgroup, float]:
    """Search for a subgroup H maximizing ||psi_H f||_inf.

    Candidate ladder: Bogolyubov subgroups of the support, a beam over
    annihilators of small spans of the largest frequencies, and the
    trivial subgroup as an unconditional fallback.  There is no
    exhaustive mode.
    """
    if not np.any(f.f_int.values):
        raise ValueError("f_int is identically zero")
    ambient = f.f.ambient
    floor = density_floor(f)
    support = PointSet(ambient, f.f_int.values != 0)

    candidates: list[Subgroup] = []
    for rho in params.rhos:
        candidates.append(bogolyubov_subgroup(support, rho))

    coeffs = wht(f.f).coeffs
    order = np.lexsort((np.arange(ambient.size), -np.abs(coeffs)))
    top = [int(r) for r in order[: params.beam_top] if r != 0]
    for size in range(1, params.beam_max_size + 1):
        if size > len(top):
            break
        for R in combinations(top, size):
            candidates.append(rref_span(ambient, R).annihilator())

    # ties at equal score prefer the larger subgroup (coarser cosets
    # mean shorter representations), then the smaller canonical basis
    best: tuple[tuple, Subgroup] | None = None
    for H in candidates:
        if H.density < floor:
            continue
        score = _psi_sup(f.f, H)
        key = (-round(score / 1e-9) * 1e-9, -H.dim, H.basis)
        if best is None or key < best[0]:
            best = (key, H)
    if best is not None and -best[0][0] > 0:
        return best[1], -best[0][0]

    H = trivial(ambient)
    return H, _psi_sup(f.f, H)
