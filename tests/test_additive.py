import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnorm import additive
from specnorm.additive import (
    _LEVEL_GUARD,
    SPEC_SET_SLACK,
    PointSet,
    SearchBudgetExceeded,
    ZeroInSet,
    bogolyubov_subgroup,
    find_concentration_subgroup,
    is_arithmetically_connected,
    nu4,
    s_eta,
    set_stats,
    spec_set,
    sumset,
)
from specnorm.fourier import RealFn, Spectrum, convolve, iwht, wht
from specnorm.generate import flat_indicator, rng_for
from specnorm.gf2 import Ambient, full, rref_span
from specnorm.spectral import psi, round_to_int


def subgroup_set(a, gens):
    return PointSet(a, rref_span(a, gens).mask())


class TestSumset:
    def test_subgroup_doubles_to_itself(self):
        a = Ambient(4)
        A = subgroup_set(a, [0b0011, 0b0100])
        assert np.array_equal(sumset(A, A).members, A.members)
        assert set_stats(A).doubling == pytest.approx(1.0)

    def test_small_example(self):
        a = Ambient(3)
        A = PointSet.from_points(a, [0, 0b001, 0b010])
        AA = sumset(A, A)
        assert set(AA.points()) == {0, 0b001, 0b010, 0b011}
        assert set_stats(A).doubling == pytest.approx(4 / 3)

    def test_quadruple_sum_oracle(self):
        a = Ambient(4)
        rng = rng_for(0)
        pts = [int(x) for x in rng.choice(a.size, 5, replace=False)]
        A = PointSet.from_points(a, pts)
        want = {p ^ q for p in pts for q in pts}
        assert set(sumset(A, A).points()) == want


class TestNu4:
    def test_full_group(self):
        a = Ambient(3)
        A = PointSet(a, np.ones(8, dtype=bool))
        assert np.allclose(nu4(A).values, 1.0, atol=1e-12)

    def test_subgroup_identity(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011, 0b0100])
        A = PointSet(a, H.mask())
        alpha = A.density
        want = alpha**3 * H.mask().astype(float)
        assert np.allclose(nu4(A).values, want, atol=1e-12)

    def test_mean_is_alpha_fourth(self):
        a = Ambient(5)
        rng = rng_for(1)
        A = PointSet(a, rng.random(a.size) < 0.4)
        assert float(np.mean(nu4(A).values)) == pytest.approx(
            A.density**4, rel=1e-12
        )

    def test_quadruple_convolution_oracle(self):
        a = Ambient(3)
        rng = rng_for(2)
        pts = [int(x) for x in rng.choice(a.size, 3, replace=False)]
        A = PointSet.from_points(a, pts)
        N = a.size
        ind = A.members.astype(float)
        want = np.zeros(N)
        for x in range(N):
            total = 0.0
            for y in range(N):
                for z in range(N):
                    for w in range(N):
                        total += ind[y] * ind[z] * ind[w] * ind[x ^ y ^ z ^ w]
            want[x] = total / N**3
        assert np.allclose(nu4(A).values, want, atol=1e-12)


class TestSEta:
    def test_subgroup_levels(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011, 0b0100])
        A = PointSet(a, H.mask())
        assert np.array_equal(s_eta(A, 1.0).members, H.mask())
        assert np.array_equal(s_eta(A, 0.5).members, H.mask())
        assert s_eta(A, 1.5).card == 0

    def test_full_group(self):
        a = Ambient(3)
        A = PointSet(a, np.ones(8, dtype=bool))
        assert s_eta(A, 1.0).card == a.size

    def test_monotone(self):
        a = Ambient(6)
        rng = rng_for(3)
        A = PointSet(a, rng.random(a.size) < 0.3)
        small = s_eta(A, 0.8)
        big = s_eta(A, 0.2)
        assert np.all(big.members | ~small.members)


class TestLevelGuard:
    """A nu4 value _LEVEL_GUARD * alpha^3 below the level eta * alpha^3 is
    in the level set, and one ulp lower is out."""

    @staticmethod
    def edge(eta, alpha):
        return eta * alpha**3 - _LEVEL_GUARD * alpha**3

    def test_s_eta(self, monkeypatch):
        a = Ambient(3)
        A = PointSet.from_points(a, [0, 5])  # alpha = 1/4
        eta, alpha = 0.375, A.density
        edge = self.edge(eta, alpha)
        nu = np.zeros(a.size)
        nu[:3] = eta * alpha**3, edge, np.nextafter(edge, -np.inf)
        monkeypatch.setattr(additive, "nu4", lambda S: RealFn(a, nu))
        assert s_eta(A, eta).points() == [0, 1]

    def test_rows(self):
        # the helper behind s_eta and the blocked law checks, one level per row
        etas, alphas = [0.375, 0.5], [0.25, 0.125]
        nu = np.zeros((2, 8))
        for row, eta, alpha in zip(nu, etas, alphas):
            edge = self.edge(eta, alpha)
            row[:3] = eta * alpha**3, edge, np.nextafter(edge, -np.inf)
        got = additive._level_sets(nu, etas, alphas)
        assert got[:, :3].tolist() == [[True, True, False]] * 2
        assert not got[:, 3:].any()


class TestSpecSet:
    def test_subgroup_spectrum(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011, 0b0100])
        A = PointSet(a, H.mask())
        for rho in (0.1, 0.5, 1.0):
            assert set(spec_set(A, rho).points()) == set(
                H.annihilator().elements()
            )

    def test_full_group(self):
        a = Ambient(3)
        A = PointSet(a, np.ones(8, dtype=bool))
        assert spec_set(A, 0.5).points() == [0]

    def test_three_corner(self):
        a = Ambient(2)
        A = PointSet.from_points(a, [0b00, 0b01, 0b10])
        assert spec_set(A, 0.5).points() == [0]
        assert spec_set(A, 0.2).card == 4

    @pytest.mark.parametrize("over, card", [(0.5, 4), (2.0, 1)])
    def test_slack_edge(self, over, card):
        # |1A-hat| = (3/4, 1/4, 1/4, 1/4) and alpha = 3/4: a threshold
        # rho * alpha above 1/4 by less than SPEC_SET_SLACK * alpha keeps the
        # three small coefficients, and by more than it drops them
        A = PointSet.from_points(Ambient(2), [0b00, 0b01, 0b10])
        assert spec_set(A, 1 / 3 + over * SPEC_SET_SLACK).card == card

    def test_contains_zero(self):
        a = Ambient(5)
        rng = rng_for(4)
        for _ in range(10):
            A = PointSet(a, rng.random(a.size) < 0.3)
            if A.card:
                assert 0 in spec_set(A, 1.0).points()


class TestBogolyubov:
    def test_subgroup_returns_itself(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011, 0b0100])
        assert bogolyubov_subgroup(PointSet(a, H.mask()), 0.5) == H

    def test_full_group(self):
        a = Ambient(3)
        A = PointSet(a, np.ones(8, dtype=bool))
        assert bogolyubov_subgroup(A, 0.5) == full(a)

    def test_inclusion_random_sets(self):
        delta, eps = 0.5, 0.25
        rho = math.sqrt(eps / 2)
        a = Ambient(8)
        rng = rng_for(5)
        for _ in range(40):
            A = PointSet(a, rng.random(a.size) < rng.choice([0.25, 0.5]))
            if A.card == 0:
                continue
            H = bogolyubov_subgroup(A, rho)
            Sd = s_eta(A, delta)
            Sde = s_eta(A, delta - eps)
            if Sd.card == 0:
                continue
            shifted = sumset(Sd, PointSet(a, H.mask()))
            assert np.all(Sde.members | ~shifted.members)


@st.composite
def sets_and_subgroups(draw, max_n=7):
    """(S, H) on F_2^n with S any subset, the empty one included."""
    n = draw(st.integers(1, max_n))
    a = Ambient(n)
    members = draw(st.lists(st.booleans(), min_size=a.size, max_size=a.size))
    gens = draw(st.lists(st.integers(0, a.size - 1), max_size=n + 1))
    return PointSet(a, members), rref_span(a, gens)


class TestSumsetWithSubgroup:
    """check_bogolyubov builds S + H as the points whose H-coset meets S,
    psi(1_S, H) > 0; the sumset through transforms is the reference."""

    @given(sets_and_subgroups())
    @settings(max_examples=150, deadline=None)
    def test_psi_fold_is_sumset(self, SH):
        S, H = SH
        want = sumset(S, PointSet(S.ambient, H.mask())).members
        assert np.array_equal(psi(S.indicator(), H).values > 0, want)

    @pytest.mark.parametrize("n,gens", [(1, []), (4, [0b0011, 0b0100]), (6, [63])])
    def test_empty_set(self, n, gens):
        a = Ambient(n)
        S, H = PointSet(a, np.zeros(a.size, dtype=bool)), rref_span(a, gens)
        assert not (psi(S.indicator(), H).values > 0).any()
        assert sumset(S, PointSet(a, H.mask())).card == 0


def reference_sumset(A, B):
    """sumset's members before PointSet cached its spectrum: fourier.convolve
    on the two indicators, three transforms."""
    counts = A.ambient.size * convolve(A.indicator(), B.indicator()).values
    return counts > 0.5


def reference_nu4(A):
    c = wht(A.indicator()).coeffs
    return iwht(Spectrum(A.ambient, c**4)).values


def reference_spec_set(A, rho):
    alpha = A.density
    c = np.abs(wht(A.indicator()).coeffs)
    return c >= rho * alpha - SPEC_SET_SLACK * alpha


@st.composite
def point_sets(draw, max_n=8):
    """Any subset of F_2^n, n <= max_n, the empty one included."""
    a = Ambient(draw(st.integers(1, max_n)))
    return PointSet(a, draw(st.lists(st.booleans(), min_size=a.size, max_size=a.size)))


@st.composite
def set_pairs(draw):
    A = draw(point_sets())
    B = PointSet(A.ambient, draw(st.lists(st.booleans(), min_size=A.ambient.size,
                                          max_size=A.ambient.size)))
    return A, B


class TestCachedSpectraMatchReferences:
    """sumset, nu4 and spec_set read the set's cached spectrum;
    each must equal the transform-per-call reference bit for bit."""

    @given(set_pairs())
    @settings(max_examples=100, deadline=None)
    def test_sumset(self, AB):
        A, B = AB
        assert np.array_equal(sumset(A, B).members, reference_sumset(A, B))

    @given(point_sets(), st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_spectrum_nu4_spec_set(self, A, rho):
        assert np.array_equal(A.spectrum, wht(A.indicator()).coeffs)
        assert np.array_equal(spec_set(A, rho).members, reference_spec_set(A, rho))
        if A.card == 0:
            with pytest.raises(ValueError):
                nu4(A)
        else:
            assert np.array_equal(nu4(A).values, reference_nu4(A))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_empty_set(self, n):
        a = Ambient(n)
        E = PointSet(a, np.zeros(a.size, dtype=bool))
        assert sumset(E, E).card == 0
        assert sumset(E, PointSet(a, np.ones(a.size, dtype=bool))).card == 0
        assert np.array_equal(spec_set(E, 0.5).members, reference_spec_set(E, 0.5))


class TestPointSetIsImmutable:
    def test_caller_mask_stays_writable_and_apart(self):
        mask = np.zeros(8, dtype=bool)
        A = PointSet(Ambient(3), mask)
        mask[5] = True
        assert mask.flags.writeable and A.card == 0

    def test_members_and_caches_are_read_only(self):
        A = PointSet.from_points(Ambient(3), [0, 1, 6])
        for arr in (A.members, A.spectrum, nu4(A).values):
            with pytest.raises(ValueError):
                arr[0] = arr[1]


def reference_connectedness(A, m):
    """is_arithmetically_connected as an inline elimination over each tuple
    (pivot = highest set bit), without the gf2 primitives."""
    pts = A.points()
    if len(pts) < m:
        return True, None
    for tup in combinations(pts, m):
        pivots = {}
        dependent = False
        for a in tup:
            w = a
            while w:
                p = w.bit_length() - 1
                if p in pivots:
                    w ^= pivots[p]
                else:
                    pivots[p] = w
                    break
            else:
                dependent = True
                break
        if dependent:
            continue
        extra = False
        for a in pts:
            if a in tup:
                continue
            w = a
            while w:
                p = w.bit_length() - 1
                if p not in pivots:
                    break
                w ^= pivots[p]
            if w == 0:
                extra = True
                break
        if not extra:
            return False, tup
    return True, None


@st.composite
def zero_free_sets(draw):
    n = draw(st.integers(1, 6))
    a = Ambient(n)
    pts = draw(st.sets(st.integers(1, a.size - 1), max_size=20))
    return PointSet.from_points(a, pts)


class TestArithmeticConnectedness:
    @given(zero_free_sets(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, A, m):
        assert is_arithmetically_connected(A, m) == reference_connectedness(A, m)

    def test_zero_rejected(self):
        a = Ambient(3)
        with pytest.raises(ZeroInSet):
            is_arithmetically_connected(PointSet.from_points(a, [0, 1]), 2)

    def test_independent_basis_not_connected(self):
        a = Ambient(5)
        A = PointSet.from_points(a, [1 << i for i in range(4)])
        ok, witness = is_arithmetically_connected(A, 3)
        assert not ok
        assert len(witness) == 3
        span = rref_span(a, witness)
        assert span.dim == 3
        assert not any(
            span.contains(p) for p in A.points() if p not in witness
        )

    def test_punctured_subgroup_connected(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011, 0b0100])
        A = PointSet.from_points(a, [x for x in H.elements() if x])
        ok, witness = is_arithmetically_connected(A, 2)
        assert ok and witness is None

    def test_vacuous(self):
        a = Ambient(4)
        A = PointSet.from_points(a, [1, 2, 3])
        ok, witness = is_arithmetically_connected(A, 5)
        assert ok and witness is None

    def test_budget(self):
        a = Ambient(24)
        # C(40, 12) blows the tuple budget
        A = PointSet.from_points(a, list(range(1, 41)))
        with pytest.raises(SearchBudgetExceeded):
            is_arithmetically_connected(A, 12)


class TestConcentrationSearch:
    def test_subgroup_indicator(self):
        a = Ambient(5)
        H = rref_span(a, [0b00011, 0b00100])
        f = round_to_int(flat_indicator(H, 0))
        got, score = find_concentration_subgroup(f)
        assert score == pytest.approx(1.0, abs=1e-9)
        assert all(got.contains(b) for b in H.basis)

    def test_coset_indicator(self):
        a = Ambient(5)
        H = rref_span(a, [0b00011, 0b01000])
        f = round_to_int(flat_indicator(H, 0b00100))
        got, score = find_concentration_subgroup(f)
        assert score == pytest.approx(1.0, abs=1e-9)
        # psi over the found subgroup preserves the coset's height
        assert np.max(np.abs(psi(f.f, got).values)) == pytest.approx(1.0)

    def test_zero_rejected(self):
        a = Ambient(3)
        with pytest.raises(ValueError):
            find_concentration_subgroup(round_to_int(RealFn(a, np.zeros(8))))

    def test_heuristic_on_flat_union(self):
        a = Ambient(8)
        rng = rng_for(6)
        H1 = rref_span(a, [int(x) for x in rng.integers(0, a.size, 6)])
        H2 = rref_span(a, [int(x) for x in rng.integers(0, a.size, 6)])
        t1, t2 = int(rng.integers(0, a.size)), int(rng.integers(0, a.size))
        u = flat_indicator(H1, t1).values + flat_indicator(H2, t2).values
        f = round_to_int(RealFn(a, np.minimum(u, 1.0)))
        _, score = find_concentration_subgroup(f)
        assert score >= 0.5
