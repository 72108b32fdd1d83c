import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnorm import fourier
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


def reference_butterfly(values):
    """Unnormalized radix-2 butterfly on a copy: n stages, each output a
    single add or subtract of two stage inputs."""
    a = np.array(values, dtype=np.float64)
    h = 1
    while h < a.size:
        b = a.reshape(-1, 2 * h)
        lo = b[:, :h].copy()
        hi = b[:, h:].copy()
        b[:, :h] = lo + hi
        b[:, h:] = lo - hi
        h *= 2
    return a


THREE_CORNER = [1.0, 1.0, 1.0, 0.0]

# n = 1..14 covers every n mod 4, so every length of the short last stage
SIZES = st.integers(1, 14)
SEEDS = st.integers(0, 2**32 - 1)


class TestKernel:
    @pytest.mark.parametrize("k", range(fourier.RADIX_BITS + 1))
    def test_matrices_are_sylvester(self, k):
        N = 1 << k
        want = [[1 - 2 * (bin(r & x).count("1") & 1) for x in range(N)] for r in range(N)]
        assert np.array_equal(fourier._SYLVESTER[k], np.array(want, dtype=np.float64))

    @settings(max_examples=60, deadline=None)
    @given(SIZES, SEEDS)
    def test_integer_tables_bit_equal_to_reference(self, n, seed):
        a = Ambient(n)
        x = np.random.default_rng(seed).integers(-(2**20), 2**20, a.size, endpoint=True)
        x = x.astype(np.float64)
        want = reference_butterfly(x)
        assert np.array_equal(fourier._wht(x), want)
        assert np.array_equal(iwht(Spectrum(a, x)).values, want)
        assert np.array_equal(wht(RealFn(a, x)).coeffs, want / a.size)

    @settings(max_examples=60, deadline=None)
    @given(SIZES, SEEDS, st.sampled_from([1e-3, 1.0, 1e6]))
    def test_reals_within_rounding_of_reference(self, n, seed, scale):
        a = Ambient(n)
        x = np.random.default_rng(seed).uniform(-scale, scale, a.size)
        err = np.max(np.abs(wht(RealFn(a, x)).coeffs - reference_butterfly(x) / a.size))
        assert err <= 1e-15 * (1 + np.max(np.abs(x)))

    @settings(max_examples=30, deadline=None)
    @given(SIZES, SEEDS)
    def test_input_unchanged(self, n, seed):
        a = Ambient(n)
        x = np.random.default_rng(seed).uniform(-1, 1, a.size)
        keep = x.copy()
        out = [wht(RealFn(a, x)).coeffs, iwht(Spectrum(a, x)).values]
        assert np.array_equal(x, keep)
        assert not any(np.shares_memory(o, x) for o in out)


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


class TestTableValidation:
    @pytest.mark.parametrize("cls", [RealFn, Spectrum])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, cls, bad):
        vals = np.zeros(8)
        vals[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cls(Ambient(3), vals)

    @pytest.mark.parametrize("cls", [RealFn, Spectrum])
    @pytest.mark.parametrize("shape", [(7,), (9,), (2, 4), ()])
    def test_wrong_shape_rejected(self, cls, shape):
        with pytest.raises(ValueError, match="expected 8 values"):
            cls(Ambient(3), np.zeros(shape))


class TestSpectrumJson:
    def test_sorted_and_thresholded(self):
        s = wht(RealFn(Ambient(2), THREE_CORNER))
        entries = spectrum_to_json(s)
        assert [e["r"] for e in entries] == ["0x0", "0x1", "0x2", "0x3"]
        assert entries[0]["coeff"] == pytest.approx(0.75)

    def test_zero_function_empty(self):
        assert spectrum_to_json(wht(zeros(Ambient(3)))) == []
