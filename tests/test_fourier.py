import math

import numpy as np
import pytest

from specnorm.fourier import (
    RealFn,
    Spectrum,
    constant,
    convolve,
    indicator,
    inner,
    iwht,
    lp_norm,
    spec_lp_norm,
    spectrum_to_json,
    wht,
    zeros,
)
from specnorm.gf2 import Ambient, AmbientMismatch, rref_span
from specnorm.generate import flat_indicator


def naive_wht(f):
    """O(4^n) transform straight from the definition."""
    N = f.ambient.size
    out = np.empty(N)
    for r in range(N):
        out[r] = sum(
            f.values[x] * (-1) ** bin(r & x).count("1") for x in range(N)
        ) / N
    return out


THREE_CORNER = [1.0, 1.0, 1.0, 0.0]


class TestWht:
    def test_zero(self):
        assert np.all(wht(zeros(Ambient(3))).coeffs == 0)

    def test_constant_one(self):
        s = wht(constant(Ambient(3), 1.0))
        assert s.coeffs[0] == 1.0
        assert np.all(s.coeffs[1:] == 0)

    def test_three_corner(self):
        s = wht(RealFn(Ambient(2), THREE_CORNER))
        assert np.allclose(s.coeffs, [0.75, 0.25, 0.25, -0.25], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_matches_naive_oracle(self, n):
        rng = np.random.default_rng(n)
        f = RealFn(Ambient(n), rng.uniform(-1, 1, 1 << n))
        assert np.allclose(wht(f).coeffs, naive_wht(f), atol=1e-12)


class TestIwht:
    def test_zero_spectrum(self):
        assert np.all(iwht(Spectrum(Ambient(3), np.zeros(8))).values == 0)

    def test_delta_at_zero(self):
        s = np.zeros(8)
        s[0] = 1.0
        assert np.allclose(iwht(Spectrum(Ambient(3), s)).values, 1.0)

    def test_three_corner_inverse(self):
        f = iwht(Spectrum(Ambient(2), [0.75, 0.25, 0.25, -0.25]))
        assert np.allclose(f.values, THREE_CORNER, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n)
        f = RealFn(Ambient(n), rng.uniform(-5, 5, 1 << n))
        back = iwht(wht(f))
        tol = 1e-12 * (1 + np.max(np.abs(f.values)))
        assert np.max(np.abs(back.values - f.values)) <= tol


class TestConvolve:
    def test_constants(self):
        one = constant(Ambient(3), 1.0)
        assert np.allclose(convolve(one, one).values, 1.0)

    def test_subgroup_averaging_fixes_indicator(self):
        a = Ambient(3)
        H = rref_span(a, [0b011])
        ind = flat_indicator(H, 0)
        mu = RealFn(a, ind.values / np.mean(ind.values))
        assert np.allclose(convolve(ind, mu).values, ind.values, atol=1e-12)

    def test_double_sum_oracle(self):
        a = Ambient(2)
        A = indicator(a, [0b00, 0b01])
        got = convolve(A, A)
        N = a.size
        want = [
            sum(A.values[y] * A.values[x ^ y] for y in range(N)) / N
            for x in range(N)
        ]
        assert np.allclose(got.values, want, atol=1e-14)
        assert got.values[0] == pytest.approx(0.5)

    def test_convolution_theorem(self):
        rng = np.random.default_rng(3)
        a = Ambient(6)
        f = RealFn(a, rng.uniform(-1, 1, a.size))
        g = RealFn(a, rng.uniform(-1, 1, a.size))
        lhs = wht(convolve(f, g)).coeffs
        rhs = wht(f).coeffs * wht(g).coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            convolve(zeros(Ambient(2)), zeros(Ambient(3)))


class TestNorms:
    def test_lp_of_constant(self):
        one = constant(Ambient(3), 1.0)
        for p in (1, 2, 3.5, math.inf):
            assert lp_norm(one, p) == pytest.approx(1.0)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(constant(Ambient(2), 1.0), 0.5)
        with pytest.raises(ValueError):
            spec_lp_norm(wht(constant(Ambient(2), 1.0)), 0.5)

    def test_coset_indicator_has_unit_spectral_l1(self):
        a = Ambient(4)
        H = rref_span(a, [0b0011, 0b0100])
        for t in (0, 0b1000):
            f = flat_indicator(H, t)
            assert spec_lp_norm(wht(f), 1) == pytest.approx(1.0, abs=1e-12)

    def test_three_corner_spectral_l1(self):
        f = RealFn(Ambient(2), THREE_CORNER)
        assert spec_lp_norm(wht(f), 1) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_parseval(self, n):
        rng = np.random.default_rng(n)
        f = RealFn(Ambient(n), rng.uniform(-1, 1, 1 << n))
        assert np.mean(f.values**2) == pytest.approx(
            np.sum(wht(f).coeffs ** 2), rel=1e-12
        )

    def test_hausdorff_young_instance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = RealFn(Ambient(5), rng.uniform(-1, 1, 32))
            assert lp_norm(f, math.inf) <= spec_lp_norm(wht(f), 1) + 1e-12


class TestInner:
    def test_with_zero(self):
        a = Ambient(3)
        f = constant(a, 2.0)
        assert inner(f, zeros(a)) == 0.0

    def test_subgroup_indicator(self):
        a = Ambient(3)
        H = rref_span(a, [0b011])
        ind = flat_indicator(H, 0)
        assert inner(ind, ind) == pytest.approx(np.mean(ind.values))

    def test_plancherel(self):
        rng = np.random.default_rng(5)
        a = Ambient(6)
        f = RealFn(a, rng.uniform(-1, 1, a.size))
        g = RealFn(a, rng.uniform(-1, 1, a.size))
        assert inner(f, g) == pytest.approx(
            float(np.sum(wht(f).coeffs * wht(g).coeffs)), abs=1e-12
        )

    def test_parallelogram_certificate_pairing(self):
        # phi on the three-corner parallelogram: <f, phi> = 3
        a = Ambient(2)
        f = RealFn(a, THREE_CORNER)
        phi = RealFn(a, [4.0, 4.0, 4.0, -4.0])
        assert inner(f, phi) == pytest.approx(3.0)
        assert np.max(np.abs(wht(phi).coeffs)) == pytest.approx(2.0)


class TestSpectrumJson:
    def test_sorted_and_thresholded(self):
        s = wht(RealFn(Ambient(2), THREE_CORNER))
        entries = spectrum_to_json(s)
        assert [e["r"] for e in entries] == ["0x0", "0x1", "0x2", "0x3"]
        assert entries[0]["coeff"] == pytest.approx(0.75)

    def test_zero_function_empty(self):
        assert spectrum_to_json(wht(zeros(Ambient(3)))) == []
