"""Sumsets, the fourfold autoconvolution nu4 and its level sets,
large-spectrum sets, Bogolyubov subgroups, arithmetic connectedness,
and the concentration-subgroup search (a heuristic candidate ladder
with no exhaustive mode; decompose does not use it).

A PointSet is immutable, so it transforms its indicator at most once
(``PointSet.spectrum``) and computes its nu4 at most once.  sumset,
nu4, s_eta, spec_set and bogolyubov_subgroup read those caches, so a
set's spectrum is reused by every law that looks at it.

Each of those steps is an array-level helper (_spectra, _convolutions,
_sumsets, _nu4s, _level_sets, _spec_sets) that takes one table or an
(m, 2^n) stack of rows, one set per row.  The PointSet functions call
them on one table and the sampled law checks on a block of trials, so
each threshold and guard (the sumset cut at 1/2, _LEVEL_GUARD,
SPEC_SET_SLACK) is written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import fourier, spectral
from .fourier import RealFn, wht
from .gf2 import Ambient, AmbientMismatch, Subgroup, rref_span, trivial
from .spectral import AlmostIntFn


class ZeroInSet(ValueError):
    """Arithmetic connectedness requires 0 not in A."""


class SearchBudgetExceeded(RuntimeError):
    """Tuple search too large; shrink the instance."""


@dataclass(frozen=True)
class PointSet:
    """Subset of F_2^n as a dense boolean membership table.

    The table is a read-only copy of the one passed in, so the cached
    spectrum and nu4 below can never go stale.
    """

    ambient: Ambient
    members: np.ndarray

    def __post_init__(self):
        m = np.array(self.members, dtype=bool)
        if m.shape != (self.ambient.size,):
            raise ValueError("membership table has wrong length")
        m.flags.writeable = False
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

    @cached_property
    def spectrum(self) -> np.ndarray:
        """wht(self.indicator()).coeffs, computed once, read-only."""
        c = _spectra(self.members)
        c.flags.writeable = False
        return c

    @cached_property
    def _nu4(self) -> RealFn:
        out = RealFn(self.ambient, _nu4s(self.spectrum))
        out.values.flags.writeable = False
        return out

    def _check(self, other: "PointSet") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("sets in different ambients")


@dataclass(frozen=True)
class SetStats:
    alpha: float
    doubling: float


# Array-level helpers.  Each takes a (2^n,) table or an (m, 2^n) stack of
# rows, one set per row, and transforms every row in one fourier._wht call.
# The PointSet functions below call them on one table, the sampled law
# checks on a block of trials; per-row floats (alphas, etas) are Python
# floats, so each row's threshold is the same float either way.


def _spectra(members: np.ndarray) -> np.ndarray:
    """wht of each row's indicator."""
    return fourier._fhat(members.astype(np.float64))


def _convolutions(spec_a: np.ndarray, spec_b: np.ndarray) -> np.ndarray:
    """1_A * 1_B, E-normalized, per row, from the two spectra."""
    return fourier._wht(spec_a * spec_b)


def _sumsets(spec_a: np.ndarray, spec_b: np.ndarray) -> np.ndarray:
    """Members of A + B per row: the representation counts above 1/2."""
    return spec_a.shape[-1] * _convolutions(spec_a, spec_b) > 0.5


def _nu4s(spec: np.ndarray) -> np.ndarray:
    """nu4 per row, from its spectrum: iwht(spec^4).

    spec^4 is taken as two squarings: on a 2-vCPU Xeon with numpy 2.4,
    np.power(spec, 4) took about 75 ns an entry, ten times as long.  An
    indicator's spectrum holds k / 2^n with |k| <= 2^n, so up to n = 13
    both give k^4 / 2^4n exactly; above it they agree to within rounding.
    """
    return fourier._wht(np.square(np.square(spec)))


def _doubling(card_2a: int, card: int) -> float:
    """|A + A| / |A|, and 0 for the empty set."""
    return card_2a / card if card else 0.0


def set_stats(A: PointSet) -> SetStats:
    return SetStats(alpha=A.density, doubling=_doubling(sumset(A, A).card, A.card))


def sumset(A: PointSet, B: PointSet) -> PointSet:
    """{a xor b : a in A, b in B}, via representation counts."""
    A._check(B)
    return PointSet(A.ambient, _sumsets(A.spectrum, B.spectrum))


def nu4(A: PointSet) -> RealFn:
    """Fourfold E-convolution of the indicator of A (cached, read-only)."""
    if A.card == 0:
        raise ValueError("nu4 of the empty set")
    return A._nu4


# relative guard on the nu4 threshold: absorbs transform rounding
# without moving any honestly-separated point across the level
_LEVEL_GUARD = 1e-9


def _level_sets(nu: np.ndarray, etas, alphas) -> np.ndarray:
    """{x : nu(x) >= eta * alpha^3} per row of nu, down to _LEVEL_GUARD *
    alpha^3 below the level; etas and alphas hold one float per row."""
    floors = [eta * alpha**3 - _LEVEL_GUARD * alpha**3 for eta, alpha in zip(etas, alphas)]
    return nu >= np.reshape(floors, (-1, 1))


def s_eta(A: PointSet, eta: float) -> PointSet:
    """Super-level set {x : nu4(x) >= eta * alpha^3}."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return PointSet(A.ambient, _level_sets(nu4(A).values, [eta], [A.density])[0])


# relative guard on the large-spectrum threshold: a coefficient equal to
# rho * alpha stays in the set when transform rounding puts it a few ulps below
SPEC_SET_SLACK = 1e-12


def _spec_sets(spec: np.ndarray, rho: float, alphas) -> np.ndarray:
    """{r : |spec(r)| >= rho * alpha} per row, down to SPEC_SET_SLACK *
    alpha below it; alphas holds one float per row."""
    floors = [rho * alpha - SPEC_SET_SLACK * alpha for alpha in alphas]
    return np.abs(spec) >= np.reshape(floors, (-1, 1))


def spec_set(A: PointSet, rho: float) -> PointSet:
    """Large spectrum {r : |1A-hat(r)| >= rho * alpha}."""
    if not 0 < rho <= 1:
        raise ValueError("rho must be in (0, 1]")
    return PointSet(A.ambient, _spec_sets(A.spectrum, rho, [A.density])[0])


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


# the rungs of find_concentration_subgroup's candidate ladder
BOGOLYUBOV_RHOS = (0.5, 0.25, 0.125)
BEAM_TOP = 16
BEAM_MAX_SIZE = 4


def _psi_sup(f: RealFn, H: Subgroup) -> float:
    return float(np.max(np.abs(spectral.psi(f, H).values)))


def density_floor(f: AlmostIntFn) -> float:
    """Desk-scale stand-in for the proposition's density guarantee."""
    n = f.f.ambient.n
    m_norm = spectral.a_norm(f.f)
    l1 = float(np.mean(np.abs(f.f_int.values)))
    return min(1.0, max(2.0**-n, l1 / (8.0 * (m_norm + 1.0))))


def find_concentration_subgroup(f: AlmostIntFn) -> tuple[Subgroup, float]:
    """Search for a subgroup H maximizing ||psi_H f||_inf.

    Candidate ladder: the Bogolyubov subgroup of the support at each rho
    in BOGOLYUBOV_RHOS, a beam over the annihilators of the spans of up
    to BEAM_MAX_SIZE of the BEAM_TOP largest nonzero frequencies, and
    the trivial subgroup as an unconditional fallback.  There is no
    exhaustive mode.
    """
    if not np.any(f.f_int.values):
        raise ValueError("f_int is identically zero")
    ambient = f.f.ambient
    floor = density_floor(f)
    support = PointSet(ambient, f.f_int.values != 0)

    candidates: list[Subgroup] = []
    for rho in BOGOLYUBOV_RHOS:
        candidates.append(bogolyubov_subgroup(support, rho))

    coeffs = wht(f.f).coeffs
    order = np.lexsort((np.arange(ambient.size), -np.abs(coeffs)))
    top = [int(r) for r in order[:BEAM_TOP] if r != 0]
    for size in range(1, BEAM_MAX_SIZE + 1):
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
