"""Rewriting of an (almost) integer-valued function as a signed sum of
subgroup indicators, through the spectral quotient.

decompose rounds f to f_int = rint(f), which is what the output
represents, and makes one descent on it.  The transform of an integer
table is exact dyadic arithmetic, and every |f_int-hat(r)| is a multiple
of 2^-n, so every off-dual coset mass is either exactly 0 or at least
2^-n.  The greedy spectral-support descent from the full group, run with
eta below 2^-n, therefore stops only when the dual spans the support of
f_int-hat.  Each step adds one dimension to the dual, so it takes at
most n steps, and it lands on H', the largest subgroup that f_int is
periodic under.  f_int is constant on H'-cosets, so it collapses to
signed coset terms and then to subgroup indicators via
1_{x+H} = 1_<H,x> - 1_H.  A final evaluation checks the result is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import RealFn, wht
from .gf2 import Ambient, Subgroup, full, rref_span, trivial
from .spectral import (
    AlmostIntFn,
    NotAlmostInteger,
    SupportCertificate,
    find_spectral_support,
    round_to_int,
)


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


@dataclass(frozen=True)
class SignedCosetTerm:
    coeff: int
    rep: int
    H: Subgroup


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
    depth: int = 0
    splits: list = field(default_factory=list)
    fallback_used: bool = False  # the step is total; kept as a report key
    exact: bool = False

    def to_json(self) -> dict:
        return {
            "L": self.L,
            "depth": self.depth,
            "splits": self.splits,
            "fallback_used": self.fallback_used,
            "exact": self.exact,
        }


@dataclass(frozen=True)
class SplitOutcome:
    """One descent on rint(f) and the split f_int = f1 + f2 it induces,
    with f1 = psi_{H'} f_int and f2 = 0."""

    certificate: SupportCertificate
    terms: tuple[SignedCosetTerm, ...]
    a_norm_before: float
    a_norm_parts: tuple[float, float]


def _extract_coset_terms(f_int: RealFn, H: Subgroup) -> tuple[SignedCosetTerm, ...]:
    """One term per H-coset with a nonzero value, in increasing order of
    the coset's smallest element."""
    vals = np.rint(f_int.values).astype(np.int64)
    reps = np.unique(H.reduce(np.arange(f_int.ambient.size, dtype=np.int64)))
    return tuple(
        SignedCosetTerm(coeff=int(vals[r]), rep=int(r), H=H)
        for r in reps[vals[reps] != 0]
    )


def coset_to_subgroups(term: SignedCosetTerm) -> list[SubgroupTerm]:
    """1_{x+H} = 1_<H,x> - 1_H when x is outside H, repeated |coeff| times."""
    s = 1 if term.coeff > 0 else -1
    out = []
    if term.H.contains(term.rep):
        out.extend([SubgroupTerm(s, term.H)] * abs(term.coeff))
    else:
        bigger = rref_span(term.H.ambient, list(term.H.basis) + [term.rep])
        for _ in range(abs(term.coeff)):
            out.append(SubgroupTerm(s, bigger))
            out.append(SubgroupTerm(-s, term.H))
    return out


def evaluate(expr: CosetRingExpr) -> RealFn:
    out = np.zeros(expr.ambient.size)
    for t in expr.terms:
        out[t.H.element_array()] += t.sign
    return RealFn(expr.ambient, out)


def _expand(ambient: Ambient, terms) -> CosetRingExpr:
    """The subgroup expression of signed coset terms, in their order."""
    return CosetRingExpr(
        ambient, tuple(t for ct in terms for t in coset_to_subgroups(ct))
    )


def trivial_expr(f_int: RealFn) -> CosetRingExpr:
    """Point-mass expression: every nonzero value as cosets of {0}, the
    baseline that decompose's L is measured against."""
    return _expand(f_int.ambient, _extract_coset_terms(f_int, trivial(f_int.ambient)))


def inductive_step(f: AlmostIntFn) -> SplitOutcome:
    """Descend from the full group on rint(f) at exact_support_eta and
    extract its coset terms.  The descent takes at most n steps and ends
    with no off-dual mass, so f_int is constant on the cosets it lands on.

    The split norms all come from one |f_int-hat|: f1 = psi_{H'} f_int has
    the part of the spectrum on H'^perp and f2 = f_int - f1 the part off it.
    """
    f_int = f.f_int
    cert = find_spectral_support(
        f_int, full(f_int.ambient), exact_support_eta(f_int.ambient)
    )
    mass = np.abs(wht(f_int).coeffs)
    on = cert.subgroup.annihilator().mask()
    return SplitOutcome(
        certificate=cert,
        terms=_extract_coset_terms(f_int, cert.subgroup),
        a_norm_before=float(np.sum(mass)),
        a_norm_parts=(
            float(np.sum(np.where(on, mass, 0.0))),
            float(np.sum(np.where(on, 0.0, mass))),
        ),
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
            "a_norm_f1": outcome.a_norm_parts[0],
            "a_norm_f2": outcome.a_norm_parts[1],
            "eta": outcome.certificate.eta,
            "eps_level": max(base.eps, params.eps0),
        }
    )
    expr = _expand(f.ambient, outcome.terms)
    report.L = expr.L
    got = np.rint(evaluate(expr).values).astype(np.int64)
    want = np.rint(base.f_int.values).astype(np.int64)
    report.exact = bool(np.array_equal(got, want))
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
