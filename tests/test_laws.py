"""Small-scale runs of the law checks.  The full-size runs live in
test_acceptance.py; here we just want every check exercised on each push.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnorm import laws
from specnorm.laws import (
    CHECKS,
    DENSITY_SLACK,
    LEVEL_SLACK,
    NORM_BOUND_SLACK,
    PD_SLACK,
    TINY_NORM_TOL,
    LawReport,
    check_approx_hom,
    check_bogolyubov,
    check_chang_report,
    check_connectedness,
    check_lemma13,
    check_lemma14,
    check_pd,
    check_plunnecke_instances,
    check_power_bound,
    check_roundtrip,
    check_tiny_norm,
)
from specnorm.additive import PointSet
from specnorm.generate import random_subgroup
from specnorm.gf2 import trivial
from specnorm.spectral import pd_eval


class TestLawReport:
    def test_record_and_passed(self):
        rep = LawReport(law_id="x")
        rep.record(0.5, None)
        assert rep.passed and rep.trials == 1 and rep.failures == 0
        rep.record(-0.1, {"bad": True})
        assert not rep.passed
        assert rep.counterexample == {"bad": True}
        assert rep.worst_margin == -0.1

    def test_no_trials_does_not_pass(self):
        rep = LawReport(law_id="x")
        assert rep.failures == 0 and not rep.passed
        rep.record_many([], lambda i: None)
        assert not rep.passed

    @pytest.mark.parametrize("call", [
        lambda: check_pd(4, 0),
        lambda: check_approx_hom(6, 0, 0),
    ], ids=["pd-no-points", "approx-hom-no-trials"])
    def test_check_that_ran_nothing_fails(self, call):
        rep = call()
        assert rep.trials == 0 and rep.failures == 0 and not rep.passed

    @pytest.mark.parametrize("d_max", [-3, -1, 13])
    def test_pd_degree_out_of_range(self, d_max):
        with pytest.raises(ValueError, match=r"d must be in \[0, 12\]"):
            check_pd(d_max)
        with pytest.raises(ValueError, match=r"d must be in \[0, 12\]"):
            pd_eval(0.0, d_max)

    def test_json(self):
        rep = LawReport(law_id="x")
        rep.record(1.0, None)
        doc = rep.to_json()
        assert doc["law_id"] == "x" and doc["failures"] == 0

    def test_json_non_finite_notes_are_null(self):
        rep = LawReport(law_id="x", notes={"a": math.inf, "b": math.nan, "c": 1.5})
        assert rep.to_json()["notes"] == {"a": None, "b": None, "c": 1.5}
        assert rep.to_json()["worst_margin"] is None

    @settings(max_examples=200, deadline=None)
    @given(
        prior=st.lists(st.floats(allow_nan=True), max_size=3),
        margins=st.lists(
            st.one_of(st.floats(allow_nan=True), st.sampled_from([-1.0, 0.0, -0.0])),
            max_size=40,
        ),
    )
    def test_record_many_is_sequential_record(self, prior, margins):
        seq, many = LawReport(law_id="x"), LawReport(law_id="x")
        for rep in (seq, many):
            for i, m in enumerate(prior):
                rep.record(m, {"prior": i})
        for i, m in enumerate(margins):
            seq.record(m, {"i": i})
        many.record_many(np.array(margins, dtype=np.float64), lambda i: {"i": i})
        assert (many.trials, many.failures, many.counterexample) == (
            seq.trials, seq.failures, seq.counterexample)
        assert repr(float(many.worst_margin)) == repr(float(seq.worst_margin))

    def test_record_many_calls_witness_once(self):
        calls = []
        rep = LawReport(law_id="x")
        rep.record_many([0.5, -1.0, -2.0], lambda i: calls.append(i) or {"i": i})
        assert calls == [1] and rep.counterexample == {"i": 1}
        rep.record_many([-3.0], lambda i: calls.append(i) or {"j": i})
        assert calls == [1] and rep.failures == 3 and rep.worst_margin == -3.0


class TestChecksSmall:
    def test_tiny_norm_n3(self):
        rep = check_tiny_norm(3)
        assert rep.passed
        assert rep.notes["min_noncoset_anorm"] == pytest.approx(1.5)

    def test_pd(self):
        assert check_pd(d_max=3, points=500).passed

    def test_approx_hom(self):
        assert check_approx_hom(6, 20, 0).passed

    def test_power_bound(self):
        assert check_power_bound(6, 20, 0).passed

    def test_bogolyubov(self):
        assert check_bogolyubov(8, 20, 0).passed
        assert check_bogolyubov(8, 10, 1, delta=0.75, epsilon=0.5).passed

    def test_lemma13(self):
        assert check_lemma13(8, 20, 0).passed

    def test_plunnecke(self):
        assert check_plunnecke_instances(8, 30, 0).passed

    def test_lemma14(self):
        assert check_lemma14(8, 10, 0).passed

    def test_chang_report(self):
        rep = check_chang_report(8, 10, 0)
        assert rep.passed  # report-only

    def test_connectedness(self):
        assert check_connectedness(7, 10, 0).passed

    def test_roundtrip(self):
        rep = check_roundtrip(6, 10, 0)
        assert rep.passed
        assert rep.notes["median_L_ratio"] is not None

    def test_registry_uniform_signature(self):
        for name, check in CHECKS.items():
            rep = check(4, 2, 0)
            assert isinstance(rep, LawReport), name
            assert rep.elapsed >= 0.0


def _reference_tiny_norm_mask(mask: int, n: int) -> tuple[bool, float]:
    """The tiny-norm conditions for one mask, as the per-mask loop that
    check_tiny_norm ran before its array pass (1e-9 is TINY_NORM_TOL):
    (ok, the anorm if the table is not a coset indicator, else inf)."""
    N = 1 << n
    had = laws._hadamard(N)
    f = ((mask >> np.arange(N)) & 1).astype(np.float64)
    an = float(np.abs(f @ had / N).sum())
    S = np.nonzero(f > 0.5)[0]
    S0 = S ^ S[0]
    inS0 = np.zeros(N, dtype=bool)
    inS0[S0] = True
    is_coset = bool(inS0[S0[:, None] ^ S0[None, :]].all())
    X = S[:, None, None] ^ S[None, :, None] ^ S[None, None, :]
    P, Q, R = np.meshgrid(S, S, S, indexing="ij")
    valid = (P != Q) & (P != R) & (Q != R)
    bad = valid & ~(f > 0.5)[X]
    closed = not bad.any()
    ok = is_coset == closed and is_coset == (an <= 1 + 1e-9)
    if is_coset:
        return ok, math.inf
    ok = ok and an >= 1.5 - 1e-9
    w = np.argwhere(bad)[0]
    p, q, r = int(S[w[0]]), int(S[w[1]]), int(S[w[2]])
    phi = np.zeros(N)
    phi[p] = phi[q] = phi[r] = N
    phi[p ^ q ^ r] = -N
    ok = ok and abs(float(f @ phi) / N - 3.0) <= 1e-9
    ok = ok and abs(float(np.max(np.abs(phi @ had / N))) - 2.0) <= 1e-9
    return ok, an


def _reference_tiny_norm_ok(mask: int, n: int) -> bool:
    return _reference_tiny_norm_mask(mask, n)[0]


def _reference_tiny_norm(n: int) -> LawReport:
    rep = LawReport(law_id="tiny-norm")
    min_noncoset = math.inf
    for mask in range(1, 1 << (1 << n)):
        ok, an = _reference_tiny_norm_mask(mask, n)
        rep.record(0.0 if ok else -1.0, {"mask": mask, "n": n})
        min_noncoset = min(min_noncoset, an)
    if math.isfinite(min_noncoset) and abs(min_noncoset - 1.5) > 1e-9:
        rep.record(-1.0, {"min_noncoset_anorm": min_noncoset})
    return rep


def _patch_hadamard(monkeypatch, fault):
    original = laws._hadamard
    monkeypatch.setattr(laws, "_hadamard", lambda N: fault(original(N)))


class TestTinyNormArrayPass:
    @pytest.mark.parametrize("n,step", [(1, 1), (2, 1), (3, 1), (4, 61)])
    def test_verdicts_match_per_mask_reference(self, n, step):
        N = 1 << n
        masks = np.arange(1, 1 << N, step, dtype=np.int64)
        ok, _ = laws._tiny_norm_verdicts(masks, laws._hadamard(N))
        assert ok.all()
        assert ok.tolist() == [_reference_tiny_norm_ok(int(m), n) for m in masks]

    @pytest.mark.parametrize("n,trials,min_noncoset", [
        (1, 3, math.inf), (2, 15, 1.5), (3, 255, 1.5), (4, 65535, 1.5)])
    def test_report(self, n, trials, min_noncoset):
        rep = check_tiny_norm(n)
        assert (rep.trials, rep.failures, rep.worst_margin) == (trials, 0, 0.0)
        assert rep.counterexample is None
        assert rep.notes["min_noncoset_anorm"] == min_noncoset

    @pytest.mark.parametrize("fault,failures,first_mask", [
        ("halve-column-3", 101, 7),
        # a doubled row x = 7 also reaches masks without 7 whose certificate
        # has p^q^r = 7, through sup |phi-hat| alone
        ("double-row-7", 66, 22),
    ])
    def test_fault_injection_fails_like_the_reference(
            self, monkeypatch, fault, failures, first_mask):
        def inject(had):
            had = had.copy()
            if fault == "halve-column-3":
                had[:, 3] *= 0.5
            else:
                had[7] *= 2.0
            return had

        _patch_hadamard(monkeypatch, inject)
        rep, ref = check_tiny_norm(3), _reference_tiny_norm(3)
        assert rep.failures == ref.failures == failures
        assert rep.counterexample == ref.counterexample == {"mask": first_mask, "n": 3}
        assert (rep.trials, rep.worst_margin) == (ref.trials, ref.worst_margin)
        ok, _ = laws._tiny_norm_verdicts(np.arange(1, 256), laws._hadamard(8))
        assert ok.tolist() == [_reference_tiny_norm_ok(m, 3) for m in range(1, 256)]

    @pytest.mark.parametrize("scale,passed", [(0.4, True), (2.0, False)])
    def test_tolerance_edge(self, monkeypatch, scale, passed):
        # scaling the transform by 1 + x scales every anorm by it: coset
        # anorms reach 1 + x, which TINY_NORM_TOL admits only below its edge
        _patch_hadamard(monkeypatch, lambda had: had * (1 + scale * TINY_NORM_TOL))
        rep = check_tiny_norm(2)
        assert rep.passed is passed
        if not passed:
            assert rep.counterexample == {"mask": 1, "n": 2}

    @pytest.mark.parametrize("n", [0, -1, 5])
    def test_bad_n(self, n):
        with pytest.raises(ValueError):
            check_tiny_norm(n)


def _reference_pd(d_max: int, points: int):
    """check_pd's margins and witnesses from a scalar pd_eval loop."""
    margins, witnesses = [], []
    for d in range(d_max + 1):
        for t in np.linspace(-d - 0.5, d + 0.5, points):
            p = pd_eval(float(t), d)
            tbar = abs(t - round(t))
            margins.append(abs(p) - tbar + 1e-12)
            witnesses.append({"d": d, "t": float(t), "law": "lower"})
            if abs(t) <= d:
                margins.append(tbar * 4.0**d - abs(p) + 1e-12)
                witnesses.append({"d": d, "t": float(t), "law": "upper"})
    return np.array(margins, dtype=np.float64), witnesses


class TestPdArrayPass:
    def test_margins_match_scalar_reference_bitwise(self, monkeypatch):
        margins, witnesses = [], []
        record_many = LawReport.record_many

        def capture(self, m, witness):
            margins.append(np.array(m, dtype=np.float64))
            witnesses.extend(witness(i) for i in range(len(m)))
            record_many(self, m, witness)

        monkeypatch.setattr(LawReport, "record_many", capture)
        rep = check_pd(4, 10**4)
        ref_margins, ref_witnesses = _reference_pd(4, 10**4)
        assert np.concatenate(margins).tobytes() == ref_margins.tobytes()
        assert witnesses == ref_witnesses
        assert rep.trials == 82124 and rep.failures == 0
        assert rep.worst_margin == 1e-12

    def test_slack_edge(self, monkeypatch):
        # at d = 0 the lower bound is an equality on the grid, so the worst
        # margin is exactly the slack and any negative slack fails
        assert check_pd(0, 101).worst_margin == PD_SLACK
        monkeypatch.setattr(laws, "PD_SLACK", -math.ulp(0.0))
        rep = check_pd(0, 101)
        assert rep.failures == rep.trials == 102
        assert rep.counterexample == {"d": 0, "t": -0.5, "law": "lower"}


class TestNamedSlacks:
    @pytest.mark.parametrize("check", [check_approx_hom, check_power_bound])
    def test_norm_bound_slack_edge(self, monkeypatch, check):
        # with H trivial psi is the identity, so eta and every defect are
        # exactly 0 and every margin is exactly the slack
        monkeypatch.setattr(laws, "random_subgroup", lambda ambient, rng: trivial(ambient))
        rep = check(6, 20, 3)
        assert (rep.failures, rep.worst_margin) == (0, NORM_BOUND_SLACK)
        monkeypatch.setattr(laws, "NORM_BOUND_SLACK", -math.ulp(0.0))
        assert check(6, 20, 3).failures == 20

    def test_density_slack_edge(self, monkeypatch):
        # a subgroup A has 4A = A and doubling 1, so every plunnecke margin
        # is exactly the slack
        monkeypatch.setattr(laws, "_random_set", lambda ambient, rng: PointSet(
            ambient, random_subgroup(ambient, rng).mask()))
        rep = check_plunnecke_instances(6, 20, 3)
        assert (rep.failures, rep.worst_margin) == (0, DENSITY_SLACK)
        monkeypatch.setattr(laws, "DENSITY_SLACK", -math.ulp(0.0))
        assert check_plunnecke_instances(6, 20, 3).failures == 20

    def test_level_slack_edge(self):
        # a nu4 value down to LEVEL_SLACK below the level is in the level
        # set, and one ulp further down is out
        level, alpha = 0.375, 0.25
        edge = level * alpha**3 - LEVEL_SLACK
        nu = np.array([level * alpha**3 - 0.5 * LEVEL_SLACK, edge, np.nextafter(edge, -np.inf)])
        assert laws._level_set(nu, level, alpha).tolist() == [True, True, False]
