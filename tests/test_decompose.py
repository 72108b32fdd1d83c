import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specnorm.decompose as decompose_module
from specnorm.decompose import (
    MAX_TERMS,
    CosetRingExpr,
    _expand,
    _extract_coset_terms,
    DecomposeParams,
    SubgroupTerm,
    decompose,
    decomposition_json,
    evaluate,
    exact_support_eta,
    inductive_step,
    trivial_expr,
)
from specnorm.fourier import RealFn
from specnorm.generate import flat_indicator, gen_coset_ring, random_flat, rng_for
from specnorm.gf2 import Ambient, _joins, rref_span, trivial
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


def ints(*xs):
    return np.array(xs, dtype=np.int64)


def reference_expand(H, reps, coeffs):
    """The subgroup terms one coset at a time, each join by rref_span."""
    terms = []
    for r, c in zip(reps.tolist(), coeffs.tolist()):
        s = 1 if c > 0 else -1
        if r:
            joined = rref_span(H.ambient, list(H.basis) + [r])
            terms.extend([SubgroupTerm(s, joined), SubgroupTerm(-s, H)] * abs(c))
        else:
            terms.extend([SubgroupTerm(s, H)] * abs(c))
    return tuple(terms)


class TestExpand:
    def test_rep_zero(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011])
        out = _expand(H, ints(0), ints(2)).terms
        assert out == (SubgroupTerm(1, H), SubgroupTerm(1, H))

    def test_rep_outside(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011])
        out = _expand(H, ints(0b0100), ints(-1)).terms
        assert len(out) == 2
        got = np.zeros(a.size, dtype=np.int64)
        for t in out:
            got[t.H.element_array()] += t.sign
        want = -flat_indicator(H, 0b0100).values
        assert np.array_equal(got, np.rint(want).astype(np.int64))

    def test_empty(self):
        H = rref_span(Ambient(3), [0b011])
        expr = _expand(H, ints(), ints())
        assert expr.ambient == H.ambient and expr.terms == ()

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_term_reference(self, n, data):
        # coset minima with repeats, rep 0 among them, and coefficients of
        # either sign and of size above one
        a = Ambient(n)
        H = rref_span(a, data.draw(st.lists(st.integers(0, a.size - 1), max_size=n)))
        minima = H.coset_minima().tolist()
        reps = ints(*data.draw(st.lists(st.sampled_from(minima), max_size=12)))
        coeffs = ints(*data.draw(st.lists(
            st.integers(-3, 3).filter(bool), min_size=reps.size, max_size=reps.size)))
        assert _expand(H, reps, coeffs).terms == reference_expand(H, reps, coeffs)


class TestMaxTerms:
    def test_boolean_tables_fit_at_max_n(self):
        # the all-ones table at n = 24: one point mass at 0, two terms each
        # for the others
        assert 1 + 2 * (2**24 - 1) <= MAX_TERMS

    @pytest.mark.parametrize("extra, ok", [(0, True), (1, False)])
    def test_edge(self, monkeypatch, extra, ok):
        # L = |c_0| + 2 sum_{r != 0} |c_r| = 3 + 2 * (2 + 1) = 9
        vals = np.zeros(8)
        vals[[0, 3, 5]] = [-3.0, 2.0, -1.0]
        f = RealFn(Ambient(3), vals)
        monkeypatch.setattr(decompose_module, "MAX_TERMS", 9 - extra)
        if ok:
            assert trivial_expr(f).L == 9
            assert decompose(f)[1].exact
        else:
            for call in (trivial_expr, lambda g: decompose(g)):
                with pytest.raises(ValueError, match="MAX_TERMS"):
                    call(f)


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
    reps = np.nonzero(vals)[0]
    terms = reference_expand(trivial(f_int.ambient), reps, vals[reps])
    return CosetRingExpr(f_int.ambient, terms)


def reference_extract_coset_terms(f_int, H):
    """The coset terms, with the representatives found by reducing every
    word to its coset's smallest member and taking the distinct ones."""
    vals = np.rint(f_int.values).astype(np.int64)
    reps = np.unique(H.reduce(np.arange(f_int.ambient.size, dtype=np.int64)))
    reps = reps[vals[reps] != 0]
    return reps, vals[reps]


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

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_coset_terms_on_random_subgroups(self, n, data):
        a = Ambient(n)
        H = rref_span(a, data.draw(st.lists(st.integers(0, a.size - 1), max_size=n)))
        rng = rng_for(data.draw(st.integers(0, 2**32 - 1)))
        density = data.draw(st.sampled_from([0.1, 0.5, 1.0]))
        vals = rng.integers(-3, 4, a.size) * (rng.random(a.size) < density)
        f = RealFn(a, vals.astype(float))
        got, want = _extract_coset_terms(f, H), reference_extract_coset_terms(f, H)
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and np.array_equal(g, w)

    @given(signed_flat_sums())
    @settings(max_examples=80, deadline=None)
    def test_split_norms_bitwise(self, f):
        split = decompose(f)[1].splits[0]
        before, parts = reference_split_norms(round_to_int(f))
        got = (split["a_norm_before"], (split["a_norm_f1"], split["a_norm_f2"]))
        assert repr(got) == repr((before, parts))


class TestInductiveStep:
    def test_zero_function(self):
        a = Ambient(4)
        f = round_to_int(RealFn(a, np.zeros(a.size)))
        out = inductive_step(f)
        assert out.reps.size == out.coeffs.size == 0
        assert out.certificate.steps_used == 0

    def test_subgroup_indicator_one_round(self):
        a = Ambient(6)
        H = rref_span(a, [0b000011, 0b001100])
        f = round_to_int(flat_indicator(H, 0))
        out = inductive_step(f)
        assert out.certificate.subgroup == H
        assert (out.reps.tolist(), out.coeffs.tolist()) == ([0], [1])
        assert out.a_norm_before == pytest.approx(1.0)
        # norm additivity of the split
        split = decompose(f.f_int)[1].splits[0]
        assert split["a_norm_f1"] + split["a_norm_f2"] == pytest.approx(
            split["a_norm_before"], abs=1e-9)

    @given(signed_flat_sums())
    @settings(max_examples=60, deadline=None)
    def test_integer_table_reaches_exact_support(self, f):
        n = f.ambient.n
        out = inductive_step(round_to_int(f))
        assert out.certificate.steps_used <= n
        assert out.certificate.worst_mass == 0.0
        assert out.certificate.eta == exact_support_eta(f.ambient)
        assert decompose(f)[1].splits[0]["a_norm_f2"] == 0.0


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


@st.composite
def subgroups_of(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    a = Ambient(n)
    return rref_span(a, draw(st.lists(st.integers(0, a.size - 1), max_size=n)))


def reference_evaluate(expr):
    """The table built one term at a time, in term order."""
    out = np.zeros(expr.ambient.size)
    for t in expr.terms:
        out[t.H.element_array()] += t.sign
    return out


class TestRrefInsertion:
    @given(subgroups_of())
    @settings(max_examples=80, deadline=None)
    def test_every_coset_minimum(self, H):
        minima = H.coset_minima()[1:]
        want = [rref_span(H.ambient, list(H.basis) + [r]) for r in minima.tolist()]
        assert _joins(H, minima) == want

    @given(subgroups_of(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_rep(self, H, data):
        """Any word x, reduced to its coset minimum, expands to the terms
        of x + H: <H, H.reduce(x)> = <H, x>."""
        x = data.draw(st.integers(0, H.ambient.size - 1))
        coeff = data.draw(st.sampled_from([-2, -1, 1, 3]))
        s = 1 if coeff > 0 else -1
        got = list(_expand(H, ints(H.reduce(x)), ints(coeff)).terms)
        if H.contains(x):
            assert got == [SubgroupTerm(s, H)] * abs(coeff)
        else:
            bigger = rref_span(H.ambient, list(H.basis) + [x])
            assert got == [SubgroupTerm(s, bigger), SubgroupTerm(-s, H)] * abs(coeff)


@st.composite
def subgroup_exprs(draw, max_n=8):
    """Signed subgroup terms of mixed dimensions, with repeats and with
    +-H pairs that cancel."""
    n = draw(st.integers(1, max_n))
    a = Ambient(n)
    words = st.lists(st.integers(0, a.size - 1), max_size=n)
    pool = [rref_span(a, draw(words)) for _ in range(draw(st.integers(1, 6)))]
    terms = []
    for _ in range(draw(st.integers(0, 30))):
        H = draw(st.sampled_from(pool))
        s = draw(st.sampled_from([-1, 1]))
        terms.append(SubgroupTerm(s, H))
        if draw(st.booleans()):
            terms.append(SubgroupTerm(-s, H))
    return CosetRingExpr(a, tuple(draw(st.permutations(terms))))


class TestEvaluate:
    @given(subgroup_exprs())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_term_by_term(self, expr):
        got = evaluate(expr).values
        want = reference_evaluate(expr)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 4])
    def test_empty_expression(self, n):
        a = Ambient(n)
        got = evaluate(CosetRingExpr(a, ())).values
        assert got.tobytes() == np.zeros(a.size).tobytes()

    def test_cancelling_to_zero(self):
        a = Ambient(4)
        Hs = [rref_span(a, g) for g in ([1], [2, 4], [8], [1, 2, 4, 8])]
        expr = CosetRingExpr(a, tuple(SubgroupTerm(s, H) for H in Hs for s in (1, -1)))
        got = evaluate(expr).values
        assert got.tobytes() == np.zeros(a.size).tobytes()  # +0.0 everywhere

    @pytest.mark.parametrize("count", [1, 3])
    def test_subgroup_outside_the_ambient(self, count):
        big = Ambient(5)
        Hs = [rref_span(big, [16 + k]) for k in range(count)]
        with pytest.raises(IndexError):
            evaluate(CosetRingExpr(Ambient(4), tuple(SubgroupTerm(1, H) for H in Hs)))

    @given(signed_flat_sums())
    @settings(max_examples=40, deadline=None)
    def test_decompose_output(self, f):
        expr, _ = decompose(f)
        assert evaluate(expr).values.tobytes() == reference_evaluate(expr).tobytes()


class TestLibraryBuiltTables:
    """round_to_int and evaluate skip _as_table's scan; the public
    constructor keeps it (test_fourier.TestTableValidation)."""

    def test_round_to_int_and_evaluate_give_float_tables(self):
        f = outside_coset(6, 17)
        base = round_to_int(f)
        expr, _ = decompose(f)
        for table in (base.f_int.values, evaluate(expr).values):
            assert table.dtype == np.float64 and table.shape == (f.ambient.size,)
        assert np.array_equal(evaluate(expr).values, base.f_int.values)
