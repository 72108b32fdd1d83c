"""Rewriting of an (almost) integer-valued function as a signed sum of
subgroup indicators, through the spectral quotient.

decompose rounds f to f_int = rint(f), which is what the output
represents, transforms it once, and makes one descent on that
|f_int-hat| table, whose sum is the one split norm it reports.  The
transform of an integer table is exact dyadic arithmetic, and every
|f_int-hat(r)| is a multiple of 2^-n, so every off-dual coset mass is
either exactly 0 or at least 2^-n.  The greedy spectral-support descent
from the full group, run with eta below 2^-n, therefore stops only when
the dual spans the support of f_int-hat.  Each step adds one dimension
to the dual, so it takes at most n steps, and it lands on H', the
largest subgroup that f_int is periodic under.  f_int is constant on
H'-cosets, so it collapses to two arrays, the coset minima and its
values there, and then to subgroup indicators via 1_{x+H} = 1_<H,x> -
1_H.  _term_count is the one count of those terms, L, here and for the
point-mass baseline that the laws measure L against.  A final
evaluation, one Gray-code pass per subgroup dimension and one bincount,
checks the result is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import RealFn
from .gf2 import Ambient, Subgroup, _gray_elements, _joins, full, trivial
from .spectral import (
    AlmostIntFn,
    NotAlmostInteger,
    SupportCertificate,
    _abs_spectrum,
    _descent,
    round_to_int,
)

# Most terms an expansion may have: the point-mass count of a boolean
# table at gf2.MAX_N, 1 + 2 (2^24 - 1), is below it.
MAX_TERMS = 2**25


@dataclass(frozen=True)
class SubgroupTerm:
    sign: int  # +1 or -1
    H: Subgroup


@dataclass(frozen=True)
class CosetRingExpr:
    ambient: Ambient
    terms: tuple[SubgroupTerm, ...]

    @property
    def L(self) -> int:
        return len(self.terms)

    def to_json(self) -> list[dict]:
        return [{"sign": t.sign, "basis": t.H.to_json()} for t in self.terms]


def exact_support_eta(ambient: Ambient) -> float:
    """Half the 2^-n quantum of coset mass on an integer table: with this
    eta the descent stops only at the exact support."""
    return 2.0 ** -(ambient.n + 1)


@dataclass(frozen=True)
class DecomposeParams:
    eps0: float = 2.0**-20

    def __post_init__(self):
        if not 0 < self.eps0 < 0.5:
            raise ValueError("eps0 must lie in (0, 1/2)")


@dataclass
class DecomposeReport:
    L: int = 0
    depth: int = 0  # never written: one descent, no recursion; kept as a report key
    splits: list = field(default_factory=list)
    fallback_used: bool = False  # the step is total; kept as a report key
    exact: bool = False

    def to_json(self) -> dict:
        # the fields in their order; a shallow copy, as asdict would copy splits
        return dict(vars(self))


@dataclass(frozen=True)
class SplitOutcome:
    """One descent on rint(f), ||f_int||_A, and f_int's nonzero H'-cosets
    as their minima (reps) and values (coeffs)."""

    certificate: SupportCertificate
    reps: np.ndarray
    coeffs: np.ndarray
    a_norm_before: float


def _extract_coset_terms(f_int: RealFn, H: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """The minima of the H-cosets where f_int is nonzero, in increasing
    order, and f_int's values there as int64.

    Raises ValueError when the expansion would have more than MAX_TERMS
    terms, counted by _term_count before any int64 cast.
    """
    reps = H.coset_minima()
    vals = np.rint(f_int.values[reps])
    L = _term_count(vals)
    if not L <= MAX_TERMS:
        raise ValueError(f"the expansion needs {L:.6g} terms, more than MAX_TERMS = {MAX_TERMS}")
    keep = vals != 0
    return reps[keep], vals[keep].astype(np.int64)


def _term_count(c: np.ndarray) -> float:
    """L = 2 sum|c| - |c[0]| terms for sum_i c[i] 1_{x_i + H}, c an integer
    table over H's cosets with entry 0 on H: |c| copies of +-H for H itself
    and of the pair +-<H, x_i>, -+H for every other coset.  The point-mass
    count of f is H = {0}, c = f.  In Python floats: past float64's range it is inf."""
    mass = np.abs(c)
    return 2.0 * float(mass.sum()) - float(mass[0])


def evaluate(expr: CosetRingExpr) -> RealFn:
    """The table of sum_j sign_j 1_{H_j}.

    Equal subgroups have their signs summed first.  The distinct
    subgroups are enumerated one stacked Gray-code pass per dimension and
    added by one bincount.  Every sum is a small integer, which float64
    adds exactly, so the table is bit for bit the one that adding the
    terms one at a time gives.
    """
    coeffs: dict[tuple, int] = {}
    for t in expr.terms:
        coeffs[t.H.basis] = coeffs.get(t.H.basis, 0) + t.sign
    by_dim: dict[int, list] = {}
    for basis, c in coeffs.items():
        if c:
            by_dim.setdefault(len(basis), []).append((basis, c))
    # seeded, as concatenate refuses an empty list
    elems, weights = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for d, group in by_dim.items():
        bases, cs = zip(*group)
        elems.append(_gray_elements(np.array(bases, dtype=np.int64)).ravel())
        weights.append(np.repeat(np.array(cs, dtype=np.float64), 1 << d))
    out = np.bincount(
        np.concatenate(elems), weights=np.concatenate(weights),
        minlength=expr.ambient.size,
    )
    if out.size != expr.ambient.size:  # as indexing the table would raise
        raise IndexError("a term's subgroup has points outside the ambient")
    # with no live term, bincount returns int64 zeros
    return RealFn._unchecked(expr.ambient, out.astype(np.float64, copy=False))


def _expand(H: Subgroup, reps: np.ndarray, coeffs: np.ndarray) -> CosetRingExpr:
    """The subgroup expression of coeffs[i] 1_{reps[i] + H}, each rep an
    int64 coset minimum of H, in their order: rep 0 gives |coeff| copies
    of +-H, any other rep |coeff| copies of the pair +-<H, rep>, -+H."""
    joins = iter(_joins(H, reps[reps != 0]))
    signed_H = {1: SubgroupTerm(1, H), -1: SubgroupTerm(-1, H)}
    out = []
    for r, c in zip(reps.tolist(), coeffs.tolist()):
        s = 1 if c > 0 else -1
        once = [SubgroupTerm(s, next(joins)), signed_H[-s]] if r else [signed_H[s]]
        out.extend(once * abs(c))
    return CosetRingExpr(H.ambient, tuple(out))


def trivial_expr(f_int: RealFn) -> CosetRingExpr:
    """Point-mass expression: every nonzero value as cosets of {0}, the
    baseline that decompose's L is measured against."""
    H = trivial(f_int.ambient)
    return _expand(H, *_extract_coset_terms(f_int, H))


def inductive_step(f: AlmostIntFn) -> SplitOutcome:
    """Descend from the full group on rint(f) at exact_support_eta and
    extract its coset terms.  The descent takes at most n steps and ends
    with no off-dual mass, so f_int is constant on the cosets it lands on
    and psi_{H'} f_int = f_int: the split is (f_int, 0).

    One |f_int-hat| table, the one transform of a decompose, feeds both
    the descent and a_norm_before, its sum.
    """
    f_int = f.f_int
    mass = _abs_spectrum(f_int.values)
    cert = _descent(mass, full(f_int.ambient), exact_support_eta(f_int.ambient))
    reps, coeffs = _extract_coset_terms(f_int, cert.subgroup)
    return SplitOutcome(
        certificate=cert, reps=reps, coeffs=coeffs, a_norm_before=float(mass.sum()),
    )


def decompose(
    f: RealFn, params: DecomposeParams = DecomposeParams()
) -> tuple[CosetRingExpr, DecomposeReport]:
    base = round_to_int(f)
    if base.eps > params.eps0:
        raise NotAlmostInteger(
            f"deviation {base.eps} exceeds the eps0 budget {params.eps0}"
        )
    report = DecomposeReport()
    outcome = inductive_step(base)
    report.splits.append(
        {
            "a_norm_before": outcome.a_norm_before,
            # at exact_support_eta the descent stops only when every off-D
            # coset mass, a sum of entries >= 0, is exactly 0, so every entry
            # of |f_int-hat| off D = H'^perp is +0.0: zeroing them leaves the
            # table, and its sum, as they are, so f1 = psi_{H'} f_int has
            # the whole norm to the bit and f2 = f_int - f1 none
            "a_norm_f1": outcome.a_norm_before,
            "a_norm_f2": 0.0,
            "eta": outcome.certificate.eta,
            "eps_level": params.eps0,
        }
    )
    expr = _expand(outcome.certificate.subgroup, outcome.reps, outcome.coeffs)
    report.L = expr.L
    # both tables hold integers, so == is the exactness test
    report.exact = bool(np.array_equal(evaluate(expr).values, base.f_int.values))
    return expr, report


def decomposition_json(
    expr: CosetRingExpr, report: DecomposeReport
) -> dict:
    return {
        "n": expr.ambient.n,
        "L": expr.L,
        "terms": expr.to_json(),
        "report": report.to_json(),
        "exact": report.exact,
    }
