"""Small-scale runs of the law checks.  The full-size runs live in
test_acceptance.py; here we just want every check exercised on each push.
"""

import itertools
import math
import tracemalloc
from statistics import median

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specnorm import fourier, laws
from specnorm.laws import (
    CHECKS,
    DENSITY_SLACK,
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
from specnorm.additive import (
    PointSet,
    bogolyubov_subgroup,
    s_eta,
    set_stats,
    sumset,
)
from specnorm.fourier import RealFn, convolve, lp_norm
from specnorm.decompose import _term_count, decompose, trivial_expr
from specnorm.generate import (
    gen_coset_ring,
    random_structured_set_mask,
    random_subgroup,
    rng_for,
)
from specnorm.gf2 import Ambient, trivial
from specnorm.spectral import (
    a_norm,
    find_spectral_support,
    pd_eval,
    psi,
    round_to_int,
)


def reference_record(rep, margin, witness):
    """One trial's margin, recorded by scalar comparisons."""
    rep.trials += 1
    if margin < rep.worst_margin:
        rep.worst_margin = margin
    if margin < 0:
        rep.failures += 1
        if rep.counterexample is None:
            rep.counterexample = witness


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
        for i, m in enumerate(prior):
            reference_record(seq, m, {"prior": i})
            many.record(m, {"prior": i})
        for i, m in enumerate(margins):
            reference_record(seq, m, {"i": i})
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

    def test_connectedness_needs_n_2(self):
        # F_2^1 has no subgroup of dimension 2 for the even trials to draw
        with pytest.raises(ValueError, match="n >= 2"):
            check_connectedness(1, 10, 0)
        assert check_connectedness(2, 10, 0).passed

    def test_roundtrip(self):
        rep = check_roundtrip(6, 10, 0)
        assert rep.passed
        assert rep.notes["median_L_ratio"] is not None

    def test_registry_uniform_signature(self):
        for name, check in CHECKS.items():
            rep = check(4, 2, 0)
            assert isinstance(rep, LawReport), name
            assert rep.elapsed >= 0.0


class TestReplayableWitnesses:
    """A counterexample names its trial, seed and n, so the law replays it
    alone: the same check run up to that trial fails there first."""

    def test_connectedness(self, monkeypatch):
        # every family reads as connected: the odd trials' independent
        # vectors, which are not, fail
        monkeypatch.setattr(laws, "is_arithmetically_connected", lambda A, m: (True, None))
        rep = check_connectedness(6, 4, 21)
        assert rep.failures == 2
        assert rep.counterexample == {"trial": 1, "seed": 21, "n": 6, "m": 3}
        w = rep.counterexample
        assert check_connectedness(w["n"], w["trial"] + 1, w["seed"]).counterexample == w

    def test_chang_report(self, monkeypatch):
        # the report never fails by itself: record every trial as failed
        record = LawReport.record
        monkeypatch.setattr(LawReport, "record",
                            lambda self, margin, witness: record(self, -1.0, witness))
        rep = check_chang_report(8, 3, 5)
        assert rep.failures == 3
        assert rep.counterexample == {"trial": 0, "seed": 5, "n": 8}


@st.composite
def sparse_integer_tables(draw):
    """Integer tables on F_2^n, n = 1..8, with entries in -3..3 at density
    0.1, 0.5 or 1, and sometimes a nonzero value forced at 0."""
    a = Ambient(draw(st.integers(1, 8)))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    vals = rng.integers(-3, 4, a.size) * (rng.random(a.size) < density)
    if draw(st.booleans()):
        vals[0] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return RealFn(a, vals.astype(float))


class TestRoundtripBaseline:
    """check_roundtrip and criterion 10 count the point-mass expression's
    terms with decompose._term_count instead of building it."""

    @given(sparse_integer_tables())
    @example(RealFn(Ambient(3), np.zeros(8)))
    @example(RealFn(Ambient(1), [-2.0, 0.0]))
    @settings(max_examples=150, deadline=None)
    def test_count_matches_trivial_expr(self, f):
        assert _term_count(f.values) == trivial_expr(f).L

    @pytest.mark.parametrize("n, count, seed", [(5, 24, 7), (8, 12, 0), (10, 8, 3)])
    def test_median_ratio_matches_trivial_expr(self, n, count, seed):
        ratios = []
        for t in range(count):
            f, _ = gen_coset_ring(Ambient(n), 1 + t % 4, t % 4, rng_for(seed, t))
            l_triv = trivial_expr(round_to_int(f).f_int).L
            if l_triv:
                ratios.append(decompose(f)[1].L / l_triv)
        assert check_roundtrip(n, count, seed).notes["median_L_ratio"] == median(ratios)


def _reference_tiny_norm_mask(mask: int, n: int) -> tuple[bool, float]:
    """The tiny-norm conditions for one mask, as the per-mask loop that
    check_tiny_norm ran before its array pass (1e-9 is TINY_NORM_TOL):
    (ok, the anorm if the table is not a coset indicator, else inf)."""
    N = 1 << n
    had = fourier.sylvester(N)
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


def _reference_block_verdicts(masks: np.ndarray, had: np.ndarray) -> tuple[np.ndarray, float]:
    """_tiny_norm_verdicts as a pass over blocks of 512 masks with one
    boolean per (test, mask), as it was before the bit-plane pass (1e-9
    is TINY_NORM_TOL)."""
    def subsets(k):
        return np.array(list(itertools.combinations(range(N), k)), dtype=np.intp).reshape(-1, k).T

    N = had.shape[0]
    xs = np.arange(N)
    pa, pb = subsets(2)
    tp, tq, tr = subsets(3)
    ok = np.empty(masks.size, dtype=bool)
    min_noncoset = math.inf
    for lo in range(0, masks.size, 512):
        block = masks[lo:lo + 512]
        f = ((block >> xs[:, None]) & 1).astype(bool)
        f0 = f[xs[:, None] ^ np.argmax(f, axis=0), np.arange(block.size)]
        is_coset = ~(f0[pa] & f0[pb] & ~f0[pa ^ pb]).any(axis=0)
        bad = f[tp] & f[tq] & f[tr] & ~f[tp ^ tq ^ tr]
        closed = ~bad.any(axis=0)
        an = np.abs(had.T @ f.astype(np.float64) / N).sum(axis=0)
        good = (is_coset == closed) & (is_coset == (an <= 1 + 1e-9))
        nc = np.flatnonzero(~is_coset)
        if nc.size:
            min_noncoset = min(min_noncoset, float(an[nc].min()))
            w = np.argmax(bad[:, nc], axis=0)
            p, q, r = tp[w], tq[w], tr[w]
            s = p ^ q ^ r
            fv = f[:, nc].astype(np.float64)
            k = np.arange(nc.size)
            inner = fv[p, k] + fv[q, k] + fv[r, k] - fv[s, k]
            sup = np.abs(had[p] + had[q] + had[r] - had[s]).max(axis=1)
            good[nc] &= (
                (an[nc] >= 1.5 - 1e-9)
                & (np.abs(inner - 3.0) <= 1e-9)
                & (np.abs(sup - 2.0) <= 1e-9)
            )
        ok[lo:lo + block.size] = good
    return ok, min_noncoset


def _patch_sylvester(monkeypatch, fault):
    """Corrupt the transform matrix where check_tiny_norm reads it and where
    the references here read it."""
    original = fourier.sylvester
    for module in (laws, fourier):
        monkeypatch.setattr(module, "sylvester", lambda N: fault(original(N)))


def _inject(fault):
    """The transform matrix with one entry class corrupted."""
    def corrupt(had):
        had = had.copy()
        if fault == "halve-column-3":
            had[:, 3] *= 0.5
        else:
            had[7] *= 2.0
        return had

    return corrupt


class TestTinyNormArrayPass:
    @pytest.mark.parametrize("n,step", [(1, 1), (2, 1), (3, 1), (4, 61)])
    def test_verdicts_match_per_mask_reference(self, n, step):
        N = 1 << n
        masks = np.arange(1, 1 << N, step, dtype=np.int64)
        ok, _ = laws._tiny_norm_verdicts(masks, fourier.sylvester(N))
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
        _patch_sylvester(monkeypatch, _inject(fault))
        rep, ref = check_tiny_norm(3), _reference_tiny_norm(3)
        assert rep.failures == ref.failures == failures
        assert rep.counterexample == ref.counterexample == {"mask": first_mask, "n": 3}
        assert (rep.trials, rep.worst_margin) == (ref.trials, ref.worst_margin)
        ok, _ = laws._tiny_norm_verdicts(np.arange(1, 256), fourier.sylvester(8))
        assert ok.tolist() == [_reference_tiny_norm_ok(m, 3) for m in range(1, 256)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_verdicts_match_block_reference_on_every_mask(self, n):
        N = 1 << n
        masks = np.arange(1, 1 << N, dtype=np.int64)
        had = fourier.sylvester(N)
        ok, min_noncoset = laws._tiny_norm_verdicts(masks, had)
        ref_ok, ref_min = _reference_block_verdicts(masks, had)
        assert np.array_equal(ok, ref_ok)
        assert min_noncoset == ref_min

    @pytest.mark.parametrize("fault,failures,first_mask", [
        ("halve-column-3", 2213, 7),
        ("double-row-7", 15041, 22),
    ])
    def test_fault_injection_at_n4_fails_like_the_block_reference(
            self, monkeypatch, fault, failures, first_mask):
        _patch_sylvester(monkeypatch, _inject(fault))
        masks = np.arange(1, 1 << 16, dtype=np.int64)
        ok, min_noncoset = laws._tiny_norm_verdicts(masks, fourier.sylvester(16))
        ref_ok, ref_min = _reference_block_verdicts(masks, fourier.sylvester(16))
        assert np.array_equal(ok, ref_ok) and min_noncoset == ref_min
        rep = check_tiny_norm(4)
        # the halved column also pulls min_noncoset below 3/2: one more failure
        assert rep.failures == failures == (~ref_ok).sum() + (ref_min != 1.5)
        assert rep.counterexample == {"mask": first_mask, "n": 4}

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        where=st.sampled_from(["row", "column", "entry"]),
        i=st.integers(0, 7),
        j=st.integers(0, 7),
        factor=st.floats(0.5, 2.0).filter(lambda x: x != 1.0),
    )
    def test_scaled_transform_matches_block_reference(self, n, where, i, j, factor):
        # a scaled row, column or entry moves some certificates' sup off 2,
        # and each mask fails only through its own first violating triple
        N = 1 << n
        had = fourier.sylvester(N)
        i, j = i % N, j % N
        if where == "row":
            had[i] *= factor
        elif where == "column":
            had[:, j] *= factor
        else:
            had[i, j] *= factor
        masks = np.arange(1, 1 << N, dtype=np.int64)
        ok, min_noncoset = laws._tiny_norm_verdicts(masks, had)
        ref_ok, ref_min = _reference_block_verdicts(masks, had)
        assert np.array_equal(ok, ref_ok)
        assert min_noncoset == ref_min

    def test_n4_sweep_peak_memory(self):
        # tracemalloc peak of the whole n = 4 check: 2.16 MB with 2048-mask
        # chunks (numpy 2.4, Python 3.11), set by record_many's arrays over
        # the 65,535 margins; 2.25 MB with 3072 and 2.81 MB with 4096.  The
        # bound leaves 21% headroom.
        check_tiny_norm(4)
        tracemalloc.start()
        try:
            check_tiny_norm(4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    @pytest.mark.parametrize("scale,passed", [(0.4, True), (2.0, False)])
    def test_tolerance_edge(self, monkeypatch, scale, passed):
        # scaling the transform by 1 + x scales every anorm by it: coset
        # anorms reach 1 + x, which TINY_NORM_TOL admits only below its edge
        _patch_sylvester(monkeypatch, lambda had: had * (1 + scale * TINY_NORM_TOL))
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


def reference_check_approx_hom(n, trials, seed):
    """check_approx_hom as the per-trial loop it ran before trial blocks."""
    rep = LawReport(law_id="approx-hom")
    ambient = Ambient(n)
    for t in range(trials):
        rng = rng_for(seed, t)
        f = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
        g = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
        H = random_subgroup(ambient, rng)
        eta = find_spectral_support(f, H, math.inf).worst_mass
        defect = a_norm(psi(f * g, H) - psi(f, H) * psi(g, H))
        bound = eta * a_norm(g) + laws.NORM_BOUND_SLACK
        rep.record(bound - defect, {"trial": t, "seed": seed, "n": n})
    return rep


def reference_check_power_bound(n, trials, seed):
    rep = LawReport(law_id="power-bound")
    ambient = Ambient(n)
    for t in range(trials):
        rng = rng_for(seed, t)
        k = 2 + t % 4
        f = RealFn(ambient, rng.uniform(-1, 1, ambient.size))
        H = random_subgroup(ambient, rng)
        eta = find_spectral_support(f, H, math.inf).worst_mass
        m_norm = a_norm(f)
        fk = RealFn(ambient, f.values**k)
        pf = psi(f, H)
        pfk = RealFn(ambient, pf.values**k)
        lhs = a_norm(psi(fk, H) - pfk)
        bound = eta * (k - 1) * m_norm ** (k - 1) + laws.NORM_BOUND_SLACK
        rep.record(bound - lhs, {"trial": t, "seed": seed, "n": n, "k": k})
    return rep


def reference_check_bogolyubov(n, trials, seed, delta=0.5, epsilon=0.25):
    rep = LawReport(law_id="bogolyubov")
    ambient = Ambient(n)
    rho = math.sqrt(epsilon / 2.0)
    for t in range(trials):
        rng = rng_for(seed, t)
        A = PointSet(ambient, laws._random_set(ambient, rng))
        H = bogolyubov_subgroup(A, rho)
        Sd = s_eta(A, delta)
        Sde = s_eta(A, delta - epsilon)
        shifted = psi(Sd.indicator(), H).values > 0
        ok = bool(np.all(Sde.members | ~shifted))
        rep.record(0.0 if ok else -1.0, {"trial": t, "seed": seed, "n": n})
    return rep


def reference_check_lemma13(n, trials, seed):
    rep = LawReport(law_id="lemma13")
    ambient = Ambient(n)
    for t in range(trials):
        rng = rng_for(seed, t)
        A = PointSet(ambient, random_structured_set_mask(ambient, rng))
        stats = set_stats(A)
        K = stats.doubling
        eta = 1.0 / (2.0 * K**4)
        S = s_eta(A, eta)
        m1 = S.density - stats.alpha / 2.0 + laws.DENSITY_SLACK
        sup = lp_norm(convolve(A.indicator(), S.indicator()), math.inf)
        m2 = sup - eta * stats.alpha / 2.0 + laws.DENSITY_SLACK
        rep.record(min(m1, m2), {"trial": t, "seed": seed, "n": n, "K": K})
    return rep


def reference_check_plunnecke_instances(n, trials, seed):
    rep = LawReport(law_id="plunnecke")
    ambient = Ambient(n)
    for t in range(trials):
        rng = rng_for(seed, t)
        A = PointSet(ambient, laws._random_set(ambient, rng))
        stats = set_stats(A)
        two = sumset(A, A)
        four = sumset(two, two)
        margin = stats.doubling**4 * stats.alpha - four.density + laws.DENSITY_SLACK
        rep.record(margin, {"trial": t, "seed": seed, "n": n, "K": stats.doubling})
    return rep


BLOCKED = {
    "approx-hom": (check_approx_hom, reference_check_approx_hom),
    "power-bound": (check_power_bound, reference_check_power_bound),
    "bogolyubov": (check_bogolyubov, reference_check_bogolyubov),
    "lemma13": (check_lemma13, reference_check_lemma13),
    "plunnecke": (check_plunnecke_instances, reference_check_plunnecke_instances),
}


def _fields(rep):
    return (rep.law_id, rep.trials, rep.failures, repr(rep.worst_margin),
            rep.counterexample, rep.notes)


def _recorded(call):
    """call()'s report and every (margin, witness) it records, in order,
    through record_many (record is record_many of one entry)."""
    out = []
    record_many = LawReport.record_many

    def capture_many(self, m, witness):
        out.extend(zip(np.asarray(m, dtype=np.float64).tolist(), map(witness, range(len(m)))))
        record_many(self, m, witness)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LawReport, "record_many", capture_many)
        rep = call()
    return _fields(rep), repr(out)


class TestTrialBlocks:
    """The sampled checks run in blocks of trials, one _wht call per block
    per transform.  Each must report what its per-trial loop reported."""

    @pytest.mark.parametrize("law", sorted(BLOCKED))
    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(5, 9), trials=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           block_bits=st.sampled_from([8, 11, 15]))
    def test_equals_per_trial_reference(self, law, n, trials, seed, block_bits):
        check, reference = BLOCKED[law]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laws, "TRIAL_BLOCK_ENTRIES", 2**block_bits)
            got = _recorded(lambda: check(n, trials, seed))
        assert got == _recorded(lambda: reference(n, trials, seed))

    @pytest.mark.parametrize("law", sorted(BLOCKED))
    @pytest.mark.parametrize("n", range(2, 7))
    def test_trial_alone_equals_trial_in_block(self, monkeypatch, law, n):
        check = BLOCKED[law][0]
        in_block = _recorded(lambda: check(n, 24, 5))
        monkeypatch.setattr(laws, "TRIAL_BLOCK_ENTRIES", 0)  # one trial per block
        assert _recorded(lambda: check(n, 24, 5)) == in_block


class TestTransformsPerTrial:
    """Each transform is one _wht call per block over all its trials' rows.
    Rows per trial: plunnecke 4 (A's spectrum, 2A, 2A's spectrum and 4A);
    bogolyubov 2 (A's spectrum and one nu4 for both level sets); lemma13 5
    (A's spectrum, 2A, nu4, S's spectrum and 1_A * 1_S); approx-hom 3 (f, g
    and the defect); power-bound 2 (f and the defect).  A decompose, as the
    roundtrip check runs it, makes one: |f_int-hat| feeds both the descent
    and the split norms."""

    @pytest.mark.parametrize("check, per_trial", [
        (check_plunnecke_instances, 4), (check_bogolyubov, 2), (check_lemma13, 5),
        (check_approx_hom, 3), (check_power_bound, 2),
    ], ids=["plunnecke", "bogolyubov", "lemma13", "approx-hom", "power-bound"])
    def test_count(self, monkeypatch, check, per_trial):
        calls = []
        kernel = fourier._wht
        monkeypatch.setattr(fourier, "_wht", lambda a: calls.append(a.shape) or kernel(a))
        # 2^8 entries make blocks of 4 trials at n = 6: 7 trials are 2 blocks
        monkeypatch.setattr(laws, "TRIAL_BLOCK_ENTRIES", 2**8)
        assert check(6, 7, 0).passed
        assert calls == [(4, 64)] * per_trial + [(3, 64)] * per_trial

    @pytest.mark.parametrize("t", range(8))
    def test_decompose_count(self, monkeypatch, t):
        rng = rng_for(2026, t)
        n = int(rng.integers(3, 11))
        f, _ = gen_coset_ring(Ambient(n), 1 + t % 4, t % 4, rng)
        calls = []
        kernel = fourier._wht
        monkeypatch.setattr(fourier, "_wht", lambda a: calls.append(a.shape) or kernel(a))
        assert decompose(f)[1].exact
        assert calls == [(1 << n,)]


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
        monkeypatch.setattr(
            laws, "_random_set", lambda ambient, rng: random_subgroup(ambient, rng).mask())
        rep = check_plunnecke_instances(6, 20, 3)
        assert (rep.failures, rep.worst_margin) == (0, DENSITY_SLACK)
        monkeypatch.setattr(laws, "DENSITY_SLACK", -math.ulp(0.0))
        assert check_plunnecke_instances(6, 20, 3).failures == 20
