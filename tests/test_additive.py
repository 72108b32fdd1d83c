import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnorm.additive import (
    SPEC_SET_SLACK,
    PointSet,
    SearchBudgetExceeded,
    ZeroInSet,
    bogolyubov_subgroup,
    find_concentration_subgroup,
    is_arithmetically_connected,
    iterated,
    nu4,
    s_eta,
    set_stats,
    spec_set,
    sumset,
)
from specnorm.fourier import RealFn
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

    def test_iterated(self):
        a = Ambient(4)
        A = PointSet.from_points(a, [0b0001, 0b0010])
        assert np.array_equal(iterated(A, 1).members, A.members)
        assert set(iterated(A, 2).points()) == {0, 0b0011}
        assert set(iterated(A, 3).points()) == {0b0001, 0b0010}
        with pytest.raises(ValueError):
            iterated(A, 0)

    def test_empty(self):
        a = Ambient(3)
        empty = PointSet(a, np.zeros(8, dtype=bool))
        assert iterated(empty, 2).card == 0


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
        assert H.is_subset_of(got)

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
