import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnorm.gf2 import (
    Ambient,
    AmbientMismatch,
    Subgroup,
    full,
    rref_span,
    trivial,
)


def subgroups(n):
    return st.lists(
        st.integers(min_value=0, max_value=(1 << n) - 1), max_size=n + 2
    ).map(lambda gens: rref_span(Ambient(n), gens))


class TestAmbient:
    def test_bounds(self):
        Ambient(1)
        Ambient(24)
        with pytest.raises(ValueError):
            Ambient(0)
        with pytest.raises(ValueError):
            Ambient(25)

    def test_point_check(self):
        with pytest.raises(ValueError):
            Ambient(3).check_point(8)


class TestRrefSpan:
    def test_empty_span(self):
        H = rref_span(Ambient(3), [])
        assert H.dim == 0
        assert H.basis == ()

    def test_duplicate_generator(self):
        H = rref_span(Ambient(3), [0b011, 0b011])
        assert H.dim == 1
        assert H.basis == (0b011,)

    def test_dependent_generators(self):
        # third word is the xor of the first two
        H = rref_span(Ambient(3), [0b011, 0b101, 0b110])
        assert H.dim == 2

    def test_canonical(self):
        a = Ambient(4)
        H1 = rref_span(a, [0b0011, 0b0101])
        H2 = rref_span(a, [0b0110, 0b0101])
        assert set(H1.elements()) == set(H2.elements())
        assert H1 == H2

    @given(st.integers(2, 8).flatmap(lambda n: subgroups(n)))
    @settings(max_examples=100, deadline=None)
    def test_rref_invariants(self, H):
        # pivots at highest set bits, distinct, zero in other rows
        pivots = [b.bit_length() - 1 for b in H.basis]
        assert len(set(pivots)) == len(pivots)
        assert list(H.basis) == sorted(H.basis, reverse=True)
        for i, b in enumerate(H.basis):
            for j, p in enumerate(pivots):
                if i != j:
                    assert not (b >> p) & 1

    @given(st.integers(2, 8).flatmap(lambda n: subgroups(n)))
    @settings(max_examples=50, deadline=None)
    def test_respan_elements_is_identity(self, H):
        assert rref_span(H.ambient, H.elements()) == H


class TestContains:
    def test_trivial_contains_zero(self):
        assert trivial(Ambient(3)).contains(0)

    def test_generator_membership(self):
        H = rref_span(Ambient(3), [0b011])
        assert H.contains(0b011)
        assert not H.contains(0b001)


class TestAnnihilator:
    def test_full_and_trivial(self):
        a = Ambient(3)
        assert full(a).annihilator() == trivial(a)
        assert trivial(a).annihilator() == full(a)

    def test_double_annihilator(self):
        H = rref_span(Ambient(3), [0b011, 0b100])
        assert H.annihilator().annihilator() == H

    def test_annihilator_by_enumeration(self):
        a = Ambient(4)
        H = rref_span(a, [0b1010, 0b0110])
        Hp = H.annihilator()
        brute = [
            r
            for r in range(a.size)
            if all(bin(r & h).count("1") % 2 == 0 for h in H.elements())
        ]
        assert set(Hp.elements()) == set(brute)

    @given(st.integers(2, 8).flatmap(lambda n: subgroups(n)))
    @settings(max_examples=100, deadline=None)
    def test_duality(self, H):
        Hp = H.annihilator()
        assert H.dim + Hp.dim == H.ambient.n
        assert Hp.annihilator() == H
        assert H.size * Hp.size == H.ambient.size


class TestIntersect:
    def test_idempotent_and_identity(self):
        a = Ambient(3)
        H = rref_span(a, [0b011])
        assert H.intersect(H) == H
        assert H.intersect(full(a)) == H

    def test_against_enumeration(self):
        a = Ambient(3)
        H1 = rref_span(a, [0b011, 0b100])
        H2 = rref_span(a, [0b011, 0b101])
        got = H1.intersect(H2)
        want = set(H1.elements()) & set(H2.elements())
        assert set(got.elements()) == want
        assert got.contains(0b011)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            trivial(Ambient(3)).intersect(trivial(Ambient(4)))

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(subgroups(n), subgroups(n), subgroups(n))
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_lattice_laws(self, Hs):
        H1, H2, H3 = Hs
        assert H1.intersect(H2) == H2.intersect(H1)
        assert H1.intersect(H2).intersect(H3) == H1.intersect(H2.intersect(H3))
        if H1.is_subset_of(H2):
            assert H2.annihilator().is_subset_of(H1.annihilator())


class TestEnumerate:
    def test_trivial(self):
        assert trivial(Ambient(3)).elements() == [0]

    def test_single_generator(self):
        assert rref_span(Ambient(3), [0b011]).elements() == [0b000, 0b011]

    def test_closure(self):
        H = rref_span(Ambient(3), [0b011, 0b100])
        els = H.elements()
        assert len(els) == 4
        assert len(set(els)) == 4
        s = set(els)
        assert all(x ^ y in s for x in s for y in s)

    @staticmethod
    def gray_loop(H):
        """Reference order: toggle the basis word indexed by the lowest
        set bit of i."""
        out = np.zeros(H.size, dtype=np.int64)
        for i in range(1, H.size):
            out[i] = out[i - 1] ^ H.basis[(i & -i).bit_length() - 1]
        return out

    @pytest.mark.parametrize("dim", range(13))
    def test_reflected_order_matches_gray_loop(self, dim):
        rng = np.random.default_rng(dim)
        a = Ambient(14)
        H = trivial(a)
        while H.dim < dim:
            H = rref_span(a, list(H.basis) + [int(rng.integers(1, a.size))])
        got = H.element_array()
        assert got.dtype == np.int64
        assert np.array_equal(got, self.gray_loop(H))
        assert H.elements() == [int(v) for v in got]

    @given(st.integers(1, 8).flatmap(lambda n: subgroups(n)))
    @settings(max_examples=50, deadline=None)
    def test_mask_is_membership(self, H):
        assert np.array_equal(
            np.flatnonzero(H.mask()), sorted(H.elements())
        )


class TestSerialization:
    def test_hex_roundtrip(self):
        a = Ambient(5)
        H = rref_span(a, [0b10110, 0b00011])
        assert Subgroup.from_json(a, H.to_json()) == H
        assert all(s.startswith("0x") and s == s.lower() for s in H.to_json())
