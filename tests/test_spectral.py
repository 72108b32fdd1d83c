import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnorm.decompose import exact_support_eta
from specnorm.fourier import BLOCK_BITS, RealFn, Spectrum, constant, iwht, wht
from specnorm.generate import (
    flat_indicator,
    gen_coset_ring,
    random_subgroup,
    rng_for,
    subgroup_of_dim,
)
from specnorm.gf2 import Ambient, full, rref_span, trivial
from specnorm.spectral import (
    FRAME_MIN_N,
    MAX_PD_DEGREE,
    ROUND_GUARD,
    TAKE_MIN_BIT,
    TIE_SLACK,
    NotAlmostInteger,
    SupportCertificate,
    _coset_sums,
    _descent,
    a_norm,
    find_spectral_support,
    is_spectrally_supported,
    pd_eval,
    psi,
    round_to_int,
)

THREE_CORNER = RealFn(Ambient(2), [1.0, 1.0, 1.0, 0.0])


@st.composite
def tables_and_subgroups(draw, values, max_n=6):
    """(f, H) on F_2^n, n <= max_n, with f's entries drawn from values."""
    n = draw(st.integers(1, max_n))
    a = Ambient(n)
    vals = draw(st.lists(values, min_size=a.size, max_size=a.size))
    gens = draw(st.lists(st.integers(0, a.size - 1), max_size=n + 1))
    return RealFn(a, vals), rref_span(a, gens)


REALS = st.floats(-4.0, 4.0, allow_nan=False)
SMALL_INTS = st.integers(-3, 3).map(float)


class TestANorm:
    def test_zero(self):
        assert a_norm(RealFn(Ambient(3), np.zeros(8))) == 0.0

    def test_coset_indicators(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011, 0b1100])
        for t in (0, 1, 0b1010):
            assert a_norm(flat_indicator(H, t)) == pytest.approx(1.0, abs=1e-12)

    def test_submultiplicative(self):
        rng = rng_for(42)
        a = Ambient(5)
        for _ in range(200):
            f = RealFn(a, rng.uniform(-1, 1, a.size))
            g = RealFn(a, rng.uniform(-1, 1, a.size))
            assert a_norm(f * g) <= a_norm(f) * a_norm(g) + 1e-9


class TestPsi:
    def test_trivial_subgroup_is_identity(self):
        f = THREE_CORNER
        g = psi(f, trivial(f.ambient))
        assert np.allclose(g.values, f.values, atol=1e-14)
        assert not np.shares_memory(g.values, f.values)

    def test_full_group_gives_mean(self):
        f = THREE_CORNER
        assert np.allclose(psi(f, full(f.ambient)).values, 0.75, atol=1e-14)

    def test_coset_averages_by_hand(self):
        H = rref_span(Ambient(2), [0b01])
        got = psi(THREE_CORNER, H)
        assert np.allclose(got.values, [1.0, 1.0, 0.5, 0.5], atol=1e-14)

    def test_fourier_form(self):
        rng = rng_for(7)
        a = Ambient(6)
        f = RealFn(a, rng.uniform(-1, 1, a.size))
        H = rref_span(a, [0b000111, 0b101000])
        mask = H.annihilator().mask()
        assert np.allclose(
            wht(psi(f, H)).coeffs, np.where(mask, wht(f).coeffs, 0.0), atol=1e-12
        )

    def test_contractive(self):
        rng = rng_for(8)
        a = Ambient(6)
        for t in range(50):
            f = RealFn(a, rng.uniform(-1, 1, a.size))
            H = random_subgroup(a, rng)
            g = psi(f, H)
            assert a_norm(g) <= a_norm(f) + 1e-9
            assert np.max(np.abs(g.values)) <= np.max(np.abs(f.values)) + 1e-12

    def test_idempotent_and_nested(self):
        rng = rng_for(9)
        a = Ambient(5)
        f = RealFn(a, rng.uniform(-1, 1, a.size))
        H1 = rref_span(a, [0b00011])
        H2 = rref_span(a, [0b00011, 0b01100])
        assert np.allclose(psi(psi(f, H1), H1).values, psi(f, H1).values, atol=1e-12)
        # H1 <= H2: projecting twice lands on the coarser projection
        assert np.allclose(psi(psi(f, H1), H2).values, psi(f, H2).values, atol=1e-12)

    def test_spectral_split_additivity(self):
        rng = rng_for(10)
        a = Ambient(6)
        for _ in range(20):
            f = RealFn(a, rng.uniform(-1, 1, a.size))
            H = random_subgroup(a, rng)
            f1 = psi(f, H)
            assert a_norm(f) == pytest.approx(a_norm(f1) + a_norm(f - f1), abs=1e-9)


class TestPsiProperties:
    @given(tables_and_subgroups(REALS))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, fH):
        f, H = fH
        once = psi(f, H)
        assert np.array_equal(psi(once, H).values, once.values)

    @given(tables_and_subgroups(REALS))
    @settings(max_examples=100, deadline=None)
    def test_contractive(self, fH):
        f, H = fH
        g = psi(f, H)
        assert np.max(np.abs(g.values)) <= np.max(np.abs(f.values)) + 1e-12
        assert a_norm(g) <= a_norm(f) + 1e-9

    @given(tables_and_subgroups(REALS))
    @settings(max_examples=100, deadline=None)
    def test_restricts_spectrum_to_annihilator(self, fH):
        f, H = fH
        want = np.where(H.annihilator().mask(), wht(f).coeffs, 0.0)
        assert np.max(np.abs(wht(psi(f, H)).coeffs - want)) <= 1e-12

    @given(tables_and_subgroups(SMALL_INTS))
    @settings(max_examples=100, deadline=None)
    def test_integer_table_is_exact(self, fH):
        f, H = fH
        sums = H.size * psi(f, H).values
        assert np.array_equal(sums, np.rint(sums))
        want = [sum(f.values[x ^ h] for h in H.elements()) for x in range(f.ambient.size)]
        assert np.array_equal(sums, want)


class TestCosetSums:
    def test_matches_brute_force(self):
        rng = rng_for(11)
        for n in range(1, 7):
            a = Ambient(n)
            for _ in range(10):
                S = random_subgroup(a, rng)
                table = rng.uniform(-1, 1, a.size)
                got = _coset_sums(table, S)
                elems = S.element_array()
                want = np.array([np.sum(table[elems ^ x]) for x in range(a.size)])
                assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_constant_on_cosets(self):
        rng = rng_for(12)
        a = Ambient(8)
        S = rref_span(a, [0b10110001, 0b01100110, 0b00011011])
        sums = _coset_sums(rng.uniform(-1, 1, a.size), S)
        for x in range(a.size):
            assert np.all(sums[S.element_array() ^ x] == sums[x])


def fold_coset_sums(table, S):
    """Coset sums by one whole-table XOR-gather fold per basis word: the
    reference for both paths of _coset_sums."""
    out = table
    idx = np.arange(table.shape[-1])
    for b in S.basis:
        out = out + out.take(idx ^ b, axis=-1)
    return out


def fold_worst_off_coset(sums, dual):
    """Largest coset sum off the proper subgroup dual, and the smallest
    word within TIE_SLACK of it, read from a whole-table mask."""
    off = ~dual.mask()
    worst = float(np.max(sums[off]))
    rep = int(np.flatnonzero(off & (sums >= worst - TIE_SLACK))[0])
    return worst, rep


def fold_descent(sums, H, eta):
    """The descent on whole tables: every step folds all 2^n sums with the
    adjoined word and masks the new dual."""
    ambient = H.ambient
    dual = H.annihilator()
    sums = fold_coset_sums(sums, dual)
    idx = np.arange(ambient.size)
    steps = 0
    while True:
        if dual.dim == ambient.n:
            worst, rep = 0.0, 0
            break
        worst, rep = fold_worst_off_coset(sums, dual)
        if worst <= eta:
            break
        dual = rref_span(ambient, list(dual.basis) + [rep])
        sums = sums + sums[idx ^ rep]
        steps += 1
    return SupportCertificate(
        subgroup=dual.annihilator() if steps else H,
        eta=eta,
        worst_coset_rep=rep,
        worst_mass=worst,
        steps_used=steps,
    )


# n on both sides of the quotient path's threshold, plus small n
EDGE_NS = (1, 2, 3, 5, 8, FRAME_MIN_N - 1, FRAME_MIN_N)


@st.composite
def edge_subgroups(draw):
    """(S, rng): a subgroup of drawn dimension, the trivial and one-word
    subgroups and the whole group among them, and a stream for its tables."""
    n = draw(st.sampled_from(EDGE_NS))
    d = min(n, draw(st.sampled_from((0, 1, n)) | st.integers(0, n)))
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    return subgroup_of_dim(Ambient(n), d, rng), rng


def tied_masses(rng, size):
    """Nonnegative integer masses, mostly zero, so coset sums tie exactly."""
    q = min(0.25, 8 / size)
    return rng.choice([0.0, 1.0, 2.0], size, p=[1 - 2 * q, q, q])


class TestQuotientPaths:
    @given(edge_subgroups(), st.sampled_from(["real", "int", "stack"]))
    @settings(max_examples=120, deadline=None)
    def test_coset_sums_match_fold_bitwise(self, case, kind):
        S, rng = case
        size = S.ambient.size
        table = {
            "real": lambda: rng.uniform(-1, 1, size),
            "int": lambda: tied_masses(rng, size),
            "stack": lambda: rng.uniform(-1, 1, (3, size)),
        }[kind]()
        got = _coset_sums(table, S)
        want = fold_coset_sums(table, S)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(edge_subgroups(), st.sampled_from(["reals", "ints"]),
           st.sampled_from(["inf", "0.05", "exact"]))
    @settings(max_examples=120, deadline=None)
    def test_descent_matches_fold_bitwise(self, case, kind, eta_kind):
        S, rng = case
        a = S.ambient
        if kind == "reals":
            sums = np.abs(wht(RealFn(a, rng.uniform(-1, 1, a.size))).coeffs)
        else:
            sums = tied_masses(rng, a.size)
        eta = {"inf": math.inf, "0.05": 0.05, "exact": exact_support_eta(a)}[eta_kind]
        sums.setflags(write=False)  # _descent never writes its input
        for H in (S, S.annihilator(), full(a)):
            got = _descent(sums, H, eta)
            assert repr(got) == repr(fold_descent(sums, H, eta))


# n on the quotient path, where psi divides the halved sums by |H| and
# spreads them back
QUOTIENT_NS = range(FRAME_MIN_N, 21)


def assert_quotient_is_fold(table, S):
    got = _coset_sums(table, S)
    want = fold_coset_sums(table, S)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if table.ndim == 1:
        g = psi(RealFn(S.ambient, table), S).values
        assert g.tobytes() == (want / S.size).tobytes()
        assert not np.shares_memory(g, table)


class TestQuotientLargeN:
    @given(st.sampled_from(QUOTIENT_NS), st.integers(0, 2**32 - 1), st.booleans(),
           st.data())
    @settings(max_examples=12, deadline=None)
    def test_drawn_dims_match_fold_bitwise(self, n, seed, stack, data):
        a = Ambient(n)
        rng = rng_for(seed)
        S = subgroup_of_dim(a, data.draw(st.integers(0, n)), rng)
        assert_quotient_is_fold(rng.uniform(-1, 1, (3, a.size) if stack else a.size), S)

    # the threshold, one gather piece of 2^BLOCK_BITS entries, many pieces
    @pytest.mark.parametrize("n", [FRAME_MIN_N, BLOCK_BITS, QUOTIENT_NS[-1]])
    @pytest.mark.parametrize("bits", range(1, 16))
    def test_unit_word_spans_match_fold_bitwise(self, n, bits):
        # every subgroup spanned by unit words of bits 0..3: top bits on
        # both sides of TAKE_MIN_BIT
        a = Ambient(n)
        S = rref_span(a, [1 << j for j in range(4) if (bits >> j) & 1])
        assert_quotient_is_fold(rng_for(bits).uniform(-1, 1, a.size), S)

    @pytest.mark.parametrize("n", QUOTIENT_NS)
    @pytest.mark.parametrize("p", [TAKE_MIN_BIT - 1, TAKE_MIN_BIT])
    def test_pivots_at_the_crossover_match_fold_bitwise(self, n, p):
        # words with lower bits set, so that the partner index is not the
        # identity, alone and under a high word
        a = Ambient(n)
        rng = rng_for(n + p)
        for words in ([(2 << p) - 1], [(1 << p) | 1, (1 << (n - 1)) | 0b1011]):
            S = rref_span(a, words)
            assert S.basis[-1].bit_length() - 1 == p
            assert_quotient_is_fold(rng.uniform(-1, 1, a.size), S)
            assert_quotient_is_fold(rng.uniform(-1, 1, (2, a.size)), S)


class TestSpectralSupport:
    def test_subgroup_indicator_always_supported(self):
        a = Ambient(3)
        H = rref_span(a, [0b011])
        ok, _, worst = is_spectrally_supported(flat_indicator(H, 0), H, 1e-6)
        assert ok and worst == pytest.approx(0.0, abs=1e-12)

    def test_full_group_singleton_cosets(self):
        f = THREE_CORNER
        top_off = float(np.max(np.abs(wht(f).coeffs[1:])))
        ok, _, _ = is_spectrally_supported(f, full(f.ambient), top_off + 1e-12)
        assert ok

    def test_three_corner_witness(self):
        H = rref_span(Ambient(2), [0b01])
        ok, rep, worst = is_spectrally_supported(THREE_CORNER, H, 0.4)
        assert not ok
        assert worst == pytest.approx(0.5)
        assert rep == 0b01  # smallest word of the coset {01, 11}


def reference_support_level(f, H):
    """The support level without the descent: H^perp, the coset sums of
    |fhat| over it, and the worst coset off it."""
    Hp = H.annihilator()
    if Hp.dim == f.ambient.n:
        return 0.0, 0
    return fold_worst_off_coset(fold_coset_sums(np.abs(wht(f).coeffs), Hp), Hp)


def support_level(f, H):
    """The worst off-H^perp coset mass and its smallest word, read from
    the descent from H that takes no step."""
    cert = find_spectral_support(f, H, math.inf)
    return cert.worst_mass, cert.worst_coset_rep


class TestSupportLevel:
    @given(tables_and_subgroups(REALS, max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_zero_step_descent_matches_reference(self, fH):
        f, H = fH
        for K in (H, full(f.ambient), trivial(f.ambient)):
            got = support_level(f, K)
            want = reference_support_level(f, K)
            assert repr(got) == repr(want)

    def test_trivial_subgroup_has_no_off_coset(self):
        # H = {0} has H^perp the whole group
        assert support_level(THREE_CORNER, trivial(Ambient(2))) == (0.0, 0)
        assert support_level(THREE_CORNER, full(Ambient(2))) == (0.25, 1)


class TestWorstOffCoset:
    @pytest.mark.parametrize("below, rep", [(0.0, 3), (0.5, 3), (1.0, 3), (2.0, 5)])
    def test_tie_slack_edge(self, below, rep):
        # from the full group the dual is trivial and every word is its own
        # coset, so the zero-step descent reads sums as given; word 3 counts as
        # tied with the larger word 5 while within TIE_SLACK of its sum
        sums = np.zeros(8)
        sums[5] = 1.0
        sums[3] = 1.0 - below * TIE_SLACK
        cert = _descent(sums, full(Ambient(3)), math.inf)
        assert (cert.worst_mass, cert.worst_coset_rep) == (1.0, rep)


class TestFindSpectralSupport:
    def test_eta_above_total_mass_stops_immediately(self):
        rng = rng_for(1)
        a = Ambient(5)
        f = RealFn(a, rng.uniform(-1, 1, a.size))
        H = rref_span(a, [0b00111])
        cert = find_spectral_support(f, H, a_norm(f) + 1.0)
        assert cert.steps_used == 0
        assert cert.subgroup == H

    def test_subgroup_indicator_descends_to_h(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011, 0b0100])
        f = flat_indicator(H, 0)
        eta = 0.5 * np.mean(f.values)
        cert = find_spectral_support(f, full(a), eta)
        assert cert.subgroup == H
        assert cert.steps_used == a.n - H.dim

    def test_three_corner_greedy_trace(self):
        # exhaustive trace: eta=0.2 forces descent until every
        # off-identity coset mass is at most 0.2
        f = THREE_CORNER
        cert = find_spectral_support(f, full(f.ambient), 0.2)
        ok, _, worst = is_spectrally_supported(f, cert.subgroup, 0.2)
        assert ok
        # |fhat| = (.75,.25,.25,.25): singleton masses .25 > .2 so the
        # greedy must absorb every nonzero frequency
        assert cert.subgroup.dim == 0
        assert cert.steps_used == 2

    def test_step_bound_and_revalidation(self):
        rng = rng_for(123)
        a = Ambient(7)
        for t in range(60):
            f = RealFn(a, rng.uniform(-1, 1, a.size))
            eta = float(rng.uniform(0.05, 1.0))
            H = random_subgroup(a, rng)
            cert = find_spectral_support(f, H, eta)
            assert cert.steps_used <= math.ceil(a_norm(f) / eta)
            assert all(H.contains(b) for b in cert.subgroup.basis)
            ok, _, _ = is_spectrally_supported(f, cert.subgroup, eta)
            assert ok


def reference_descent(f, eta):
    """The descent with every step's coset sums of |fhat| recomputed
    through a forward and an inverse transform (dual starts trivial)."""
    a = f.ambient
    absf = np.abs(wht(f).coeffs)
    dual = trivial(a)
    steps = 0
    while dual.dim < a.n:
        restricted = np.where(dual.annihilator().mask(), wht(RealFn(a, absf)).coeffs, 0.0)
        sums = dual.size * iwht(Spectrum(a, restricted)).values
        off = ~dual.mask()
        worst = float(np.max(sums[off]))
        cand = int(np.flatnonzero(off & (sums >= worst - 1e-12))[0])
        if worst <= eta:
            return dual.annihilator(), steps, int(np.min(dual.element_array() ^ cand))
        dual = rref_span(a, list(dual.basis) + [cand])
        steps += 1
    return dual.annihilator(), steps, 0


def test_descent_matches_transform_reference_on_acceptance_recipe():
    for t in range(200):
        rng = rng_for(2026, 90_000 + t)
        n = int(rng.integers(5, 11))
        f, _ = gen_coset_ring(Ambient(n), 1 + t % 4, t % 4, rng)
        eta = exact_support_eta(f.ambient)
        cert = find_spectral_support(f, full(f.ambient), eta)
        got = (cert.subgroup, cert.steps_used, cert.worst_coset_rep)
        assert got == reference_descent(f, eta), t


def approx_hom_defect(f, g, H):
    return a_norm(psi(f * g, H) - psi(f, H) * psi(g, H))


class TestApproxHom:
    def test_exact_for_subgroup_indicator(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011])
        f = flat_indicator(H, 0)
        rng = rng_for(2)
        g = RealFn(a, rng.uniform(-1, 1, a.size))
        assert approx_hom_defect(f, g, H) == pytest.approx(0.0, abs=1e-9)

    def test_exact_for_constant_partner(self):
        rng = rng_for(3)
        a = Ambient(4)
        f = RealFn(a, rng.uniform(-1, 1, a.size))
        H = rref_span(a, [0b0011])
        assert approx_hom_defect(f, constant(a, 1.0), H) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_bounded_by_measured_eta(self):
        rng = rng_for(4)
        a = Ambient(6)
        for _ in range(100):
            f = RealFn(a, rng.uniform(-1, 1, a.size))
            g = RealFn(a, rng.uniform(-1, 1, a.size))
            H = random_subgroup(a, rng)
            eta, _ = support_level(f, H)
            assert approx_hom_defect(f, g, H) <= eta * a_norm(g) + 1e-9

    def test_power_bound(self):
        rng = rng_for(5)
        a = Ambient(6)
        for t in range(40):
            f = RealFn(a, rng.uniform(-1, 1, a.size))
            H = random_subgroup(a, rng)
            eta, _ = support_level(f, H)
            M = a_norm(f)
            for k in range(2, 6):
                fk = RealFn(a, f.values**k)
                pf = psi(f, H)
                lhs = a_norm(psi(fk, H) - RealFn(a, pf.values**k))
                assert lhs <= eta * (k - 1) * M ** (k - 1) + 1e-9


class TestPd:
    def test_integer_roots(self):
        for d in range(5):
            for k in range(-d, d + 1):
                assert pd_eval(float(k), d) == 0.0

    def test_hand_value(self):
        assert pd_eval(0.5, 1) == pytest.approx(-0.75)
        assert abs(pd_eval(0.5, 1)) >= 0.5

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            pd_eval(0.0, 13)
        with pytest.raises(ValueError):
            pd_eval(0.0, -1)

    def test_almost_integer_bound(self):
        # eps-almost-integer f with |f| <= d keeps P_d(f) below eps 4^d
        rng = rng_for(6)
        a = Ambient(5)
        for d in (1, 2, 3):
            base = rng.integers(-d, d + 1, a.size).astype(float)
            np.clip(base, -d + 1, d - 1, out=base)
            eps = 0.05
            f = RealFn(a, base + rng.uniform(-eps, eps, a.size))
            out = pd_eval(f.values, d)
            assert np.max(np.abs(out)) <= eps * 4.0**d + 1e-12

    def test_detection(self):
        # small P_d values certify almost-integrality
        rng = rng_for(7)
        a = Ambient(5)
        d = 2
        f = RealFn(a, rng.integers(-1, 2, a.size) + rng.uniform(-0.01, 0.01, a.size))
        delta = float(np.max(np.abs(pd_eval(f.values, d))))
        assert delta <= 0.5
        assert round_to_int(f).eps <= delta + 1e-12


def reference_pd_table(f, d):
    """p_d over a table by in-place products on a filled array."""
    out = np.full(f.ambient.size, 4.0**d / math.factorial(2 * d))
    for j in range(-d, d + 1):
        out *= f.values - j
    return out


class TestPdArray:
    @given(st.integers(0, MAX_PD_DEGREE), st.data())
    @settings(max_examples=100, deadline=None)
    def test_array_matches_scalar_bitwise(self, d, data):
        a = Ambient(data.draw(st.integers(1, 5)))
        ts = data.draw(st.lists(st.floats(-2.0 * (d + 1), 2.0 * (d + 1)),
                                min_size=a.size, max_size=a.size))
        t = np.array(ts, dtype=np.float64)
        scalar = np.array([pd_eval(x, d) for x in ts], dtype=np.float64)
        assert pd_eval(t, d).tobytes() == scalar.tobytes()
        f = RealFn(a, t)
        assert reference_pd_table(f, d).tobytes() == scalar.tobytes()

    def test_array_degree_guard(self):
        with pytest.raises(ValueError):
            pd_eval(np.zeros(4), MAX_PD_DEGREE + 1)


class TestRoundToInt:
    def test_boolean_exact(self):
        f = THREE_CORNER
        out = round_to_int(f)
        assert out.eps == 0.0
        assert np.array_equal(out.f_int.values, f.values)

    def test_small_perturbation(self):
        a = Ambient(3)
        H = rref_span(a, [0b011])
        base = flat_indicator(H, 0)
        rng = rng_for(8)
        signs = rng.choice([-1.0, 1.0], a.size)
        out = round_to_int(RealFn(a, base.values + 0.01 * signs))
        assert np.array_equal(out.f_int.values, base.values)
        assert out.eps == pytest.approx(0.01)

    def test_boundary_rejected(self):
        with pytest.raises(NotAlmostInteger):
            round_to_int(RealFn(Ambient(2), [0.0, 0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_round_guard_edge(self, sign):
        # a deviation of exactly ROUND_GUARD is refused; one ulp below rounds
        with pytest.raises(NotAlmostInteger):
            round_to_int(RealFn(Ambient(1), [sign * ROUND_GUARD, 0.0]))
        below = float(np.nextafter(ROUND_GUARD, 0.0))
        out = round_to_int(RealFn(Ambient(1), [sign * below, 0.0]))
        assert out.eps == below
        assert np.array_equal(out.f_int.values, [0.0, 0.0])
