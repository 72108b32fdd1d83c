import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnorm.decompose import (
    CosetRingExpr,
    DecomposeParams,
    SignedCosetTerm,
    SubgroupTerm,
    coset_to_subgroups,
    decompose,
    decomposition_json,
    evaluate,
    exact_support_eta,
    inductive_step,
    trivial_expr,
)
from specnorm.fourier import RealFn
from specnorm.generate import flat_indicator, gen_coset_ring, random_flat, rng_for
from specnorm.gf2 import Ambient, rref_span, trivial
from specnorm.spectral import NotAlmostInteger, a_norm, psi, round_to_int


EPS0 = DecomposeParams().eps0


def expr_values(expr):
    return np.rint(evaluate(expr).values).astype(np.int64)


@st.composite
def signed_flat_sums(draw, max_n=8):
    """Sum of c_i 1_{t_i + H_i} with nonzero integer c_i in [-3, 3]."""
    n = draw(st.integers(2, max_n))
    a = Ambient(n)
    words = st.integers(0, a.size - 1)
    vals = np.zeros(a.size)
    for _ in range(draw(st.integers(1, 4))):
        H = rref_span(a, draw(st.lists(words, max_size=n)))
        c = draw(st.integers(1, 3)) * draw(st.sampled_from([-1, 1]))
        vals += c * flat_indicator(H, draw(words)).values
    return RealFn(a, vals)


def outside_coset(n, seed):
    """Indicator of a coset x + H with x outside H."""
    rng = rng_for(seed)
    while True:
        H, x = random_flat(Ambient(n), rng, min_dim=2)
        if not H.contains(x):
            return flat_indicator(H, x)


class TestCosetToSubgroups:
    def test_rep_inside(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011])
        out = coset_to_subgroups(SignedCosetTerm(2, 0b0011, H))
        assert out == [SubgroupTerm(1, H), SubgroupTerm(1, H)]

    def test_rep_outside(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011])
        out = coset_to_subgroups(SignedCosetTerm(-1, 0b0100, H))
        assert len(out) == 2
        got = np.zeros(a.size, dtype=np.int64)
        for t in out:
            got[t.H.element_array()] += t.sign
        want = -flat_indicator(H, 0b0100).values
        assert np.array_equal(got, np.rint(want).astype(np.int64))


class TestEvaluateTrivial:
    def test_trivial_expr_roundtrip(self):
        a = Ambient(4)
        rng = rng_for(10)
        vals = rng.integers(-3, 4, a.size).astype(float)
        f = RealFn(a, vals)
        expr = trivial_expr(f)
        assert np.array_equal(expr_values(expr), vals.astype(np.int64))
        # point masses off zero cost two terms each, the one at zero costs one
        nonzero = np.nonzero(vals)[0]
        want_L = sum(
            abs(int(vals[x])) * (1 if x == 0 else 2) for x in nonzero
        )
        assert expr.L == want_L

    def test_empty(self):
        a = Ambient(3)
        expr = trivial_expr(RealFn(a, np.zeros(8)))
        assert expr.L == 0
        assert np.array_equal(expr_values(expr), np.zeros(8, dtype=np.int64))


def reference_trivial_expr(f_int):
    """The point-mass expression by a loop over the nonzero points."""
    vals = np.rint(f_int.values).astype(np.int64)
    triv = trivial(f_int.ambient)
    terms = []
    for x in np.nonzero(vals)[0]:
        terms.extend(coset_to_subgroups(SignedCosetTerm(int(vals[x]), int(x), triv)))
    return CosetRingExpr(f_int.ambient, tuple(terms))


def reference_split_norms(f):
    """The split norms through f1 = psi_{H'} f_int and three transforms."""
    f_int = f.f_int
    cert = inductive_step(f).certificate
    f1 = psi(f_int, cert.subgroup)
    return a_norm(f_int), (a_norm(f1), a_norm(f_int - f1))


class TestMergedPathsMatchReferences:
    @given(signed_flat_sums())
    @settings(max_examples=80, deadline=None)
    def test_trivial_expr_terms_and_order(self, f):
        assert trivial_expr(f).terms == reference_trivial_expr(f).terms

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_trivial_expr_on_random_integer_tables(self, n, seed):
        a = Ambient(n)
        f = RealFn(a, rng_for(seed).integers(-3, 4, a.size).astype(float))
        assert trivial_expr(f).terms == reference_trivial_expr(f).terms

    @given(signed_flat_sums())
    @settings(max_examples=80, deadline=None)
    def test_split_norms_bitwise(self, f):
        out = inductive_step(round_to_int(f))
        before, parts = reference_split_norms(round_to_int(f))
        assert repr((out.a_norm_before, out.a_norm_parts)) == repr((before, parts))


class TestInductiveStep:
    def test_zero_function(self):
        a = Ambient(4)
        f = round_to_int(RealFn(a, np.zeros(a.size)))
        out = inductive_step(f)
        assert out.terms == () and out.certificate.steps_used == 0

    def test_subgroup_indicator_one_round(self):
        a = Ambient(6)
        H = rref_span(a, [0b000011, 0b001100])
        f = round_to_int(flat_indicator(H, 0))
        out = inductive_step(f)
        assert out.certificate.subgroup == H
        assert out.terms == (SignedCosetTerm(1, 0, H),)
        assert out.a_norm_before == pytest.approx(1.0)
        # norm additivity of the split
        assert sum(out.a_norm_parts) == pytest.approx(out.a_norm_before, abs=1e-9)

    @given(signed_flat_sums())
    @settings(max_examples=60, deadline=None)
    def test_integer_table_reaches_exact_support(self, f):
        n = f.ambient.n
        out = inductive_step(round_to_int(f))
        assert out.certificate.steps_used <= n
        assert out.certificate.worst_mass == 0.0
        assert out.certificate.eta == exact_support_eta(f.ambient)
        assert out.a_norm_parts[1] == 0.0


class TestDecompose:
    def test_subgroup(self):
        a = Ambient(5)
        H = rref_span(a, [0b00011, 0b00100])
        f = flat_indicator(H, 0)
        expr, rep = decompose(f)
        assert rep.exact and expr.L == 1
        assert expr.terms[0] == SubgroupTerm(1, H)

    def test_coset(self):
        a = Ambient(5)
        H = rref_span(a, [0b00011, 0b01000])
        f = flat_indicator(H, 0b00100)
        expr, rep = decompose(f)
        assert rep.exact and expr.L == 2
        assert not rep.fallback_used

    def test_complement_codim_one(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011, 0b0100, 0b1000])
        f = RealFn(a, 1.0 - H.mask().astype(float))
        expr, rep = decompose(f)
        assert rep.exact
        assert expr.L <= 2

    def test_complement_codim_two(self):
        # three nonzero cosets, two subgroup terms each
        a = Ambient(4)
        H = rref_span(a, [0b0011, 0b0100])
        f = RealFn(a, 1.0 - H.mask().astype(float))
        expr, rep = decompose(f)
        assert rep.exact
        assert expr.L <= 6

    def test_union_of_cosets(self):
        a = Ambient(6)
        H = rref_span(a, [0b000011, 0b001100])
        u = flat_indicator(H, 0).values + flat_indicator(H, 0b010000).values
        f = RealFn(a, np.minimum(u, 1.0))
        expr, rep = decompose(f)
        assert rep.exact
        assert np.array_equal(expr_values(expr), np.rint(f.values).astype(np.int64))

    def test_random_coset_rings_exact(self):
        rng = rng_for(11)
        for t in range(25):
            a = Ambient(int(rng.integers(4, 9)))
            f, _ = gen_coset_ring(a, flats=1 + t % 4, depth=t % 3, rng=rng)
            expr, rep = decompose(f)
            assert rep.exact, f"trial {t}"
            assert np.array_equal(
                expr_values(expr), np.rint(f.values).astype(np.int64)
            )
            # norm additivity and progress per recorded split
            for s in rep.splits:
                assert s["a_norm_f1"] + s["a_norm_f2"] == pytest.approx(
                    s["a_norm_before"], abs=1e-9
                )

    def test_perturbed_input(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011])
        vals = flat_indicator(H, 0b0100).values.copy()
        rng = rng_for(12)
        vals += rng.uniform(-1e-7, 1e-7, a.size)
        expr, rep = decompose(RealFn(a, vals))
        assert rep.exact
        assert np.array_equal(
            expr_values(expr),
            np.rint(flat_indicator(H, 0b0100).values).astype(np.int64),
        )

    def test_eps0_exceeded(self):
        a = Ambient(3)
        vals = np.zeros(8)
        vals[0] = 1.3
        with pytest.raises(NotAlmostInteger):
            decompose(RealFn(a, vals))

    def test_bad_params(self):
        with pytest.raises(ValueError):
            DecomposeParams(eps0=0.7)

    def test_json(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011, 0b0100])
        expr, rep = decompose(flat_indicator(H, 0))
        doc = decomposition_json(expr, rep)
        assert doc["n"] == 4 and doc["L"] == 1 and doc["exact"]
        assert doc["terms"][0]["sign"] == 1
        assert all(s.startswith("0x") for s in doc["terms"][0]["basis"])

    def test_L_close_to_norm_bound(self):
        # representation length stays comparable to the trivial one
        rng = rng_for(13)
        a = Ambient(7)
        f, _ = gen_coset_ring(a, flats=3, depth=2, rng=rng)
        expr, rep = decompose(f)
        triv = trivial_expr(round_to_int(f).f_int)
        assert rep.exact
        assert expr.L <= max(2, triv.L)

    def test_single_coset_with_noise_n10(self):
        # in-budget noise must not turn two subgroup terms into point masses
        f = outside_coset(10, 14)
        rng = rng_for(15)
        noisy = RealFn(f.ambient, f.values + rng.uniform(-1e-7, 1e-7, f.ambient.size))
        expr, rep = decompose(noisy)
        assert rep.exact and not rep.fallback_used
        assert expr.L == 2

    def test_eps0_does_not_change_the_terms(self):
        f = outside_coset(10, 16)
        expr, rep = decompose(f, DecomposeParams(eps0=0.4))
        assert rep.exact and expr.L == 2
        assert expr.terms == decompose(f)[0].terms
        assert rep.splits[0]["eta"] == exact_support_eta(f.ambient)


class TestDecomposeProperties:
    @given(signed_flat_sums())
    @settings(max_examples=80, deadline=None)
    def test_exact_on_signed_integer_flat_sums(self, f):
        expr, rep = decompose(f)
        assert rep.exact and not rep.fallback_used
        assert np.array_equal(expr_values(expr), np.rint(f.values).astype(np.int64))
        assert len(rep.splits) == 1

    @given(
        signed_flat_sums(),
        st.floats(0.0, 0.99 * EPS0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_in_budget_noise_gives_the_rounding_terms(self, f, amplitude, seed):
        noise = rng_for(seed).uniform(-amplitude, amplitude, f.ambient.size)
        noisy = RealFn(f.ambient, f.values + noise)
        got, rep = decompose(noisy)
        want, _ = decompose(RealFn(f.ambient, np.rint(f.values)))
        assert rep.exact
        assert got.terms == want.terms
