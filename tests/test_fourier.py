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


def reference_radix16(a):
    """The radix-16 kernel on whole tables: every stage one product, into
    a fresh array of the whole stack."""
    n = a.shape[-1].bit_length() - 1
    k = min(fourier.RADIX_BITS, n)
    out = a.reshape(-1, 1 << k)
    if a.ndim > 1 and out.shape[0] == 1:
        return reference_radix16(np.concatenate((a, a)))[:1]
    out = out @ fourier._SYLVESTER[k]
    lo = k
    while lo < n:
        k = min(fourier.RADIX_BITS, n - lo)
        out = fourier._SYLVESTER[k] @ out.reshape(-1, 1 << k, 1 << lo)
        lo += k
    return out.reshape(a.shape)


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

    @pytest.mark.parametrize("n", range(0, 23))
    def test_bit_equal_to_whole_table_kernel(self, n):
        # on 1-D tables and stacks of 0, 1, 2, 3 and 8 rows up to 2^23
        # entries (64 MiB), of reals, of integers and of 0/1 entries; pieces
        # hold whole radix stages, so n = BLOCK_BITS + 1 is still one short
        # stage, the last
        assert fourier.BLOCK_BITS % (2 * fourier.RADIX_BITS) == 0
        rng = np.random.default_rng(n)
        draws = (lambda s: rng.uniform(-1, 1, s),
                 lambda s: rng.integers(-(2**20), 2**20, s, endpoint=True).astype(np.float64),
                 lambda s: rng.integers(0, 2, s).astype(np.float64))
        shapes = [(1 << n,)] + [(m, 1 << n) for m in (0, 1, 2, 3, 8) if m << n <= 1 << 23]
        for shape in shapes:
            for draw in draws:
                x = draw(shape)
                got, want = fourier._wht(x), reference_radix16(x)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(fourier.BLOCK_BITS + 1, 21))
    @pytest.mark.parametrize("m", [2, 3])
    def test_blocked_stacks_bit_equal_to_whole_table_kernel(self, n, m):
        rows = np.random.default_rng(n * m).uniform(-1, 1, (m, 1 << n))
        got = fourier._wht(rows)
        assert got.tobytes() == reference_radix16(rows).tobytes()
        assert got[1:2].tobytes() == fourier._wht(rows[1]).tobytes()

    def test_n24_bit_equal_to_whole_table_kernel(self):
        x = np.random.default_rng(24).uniform(-1, 1, 1 << 24)
        assert fourier._wht(x).tobytes() == reference_radix16(x).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, fourier.BLOCK_BITS + 1])
    def test_lone_row_is_its_padded_pair(self, n):
        # a (1, 2^n) stack of size 2^k takes the matrix path, as in a pair
        row = np.random.default_rng(n).uniform(-1, 1, (1, 1 << n))
        got = fourier._wht(row)
        assert got.shape == row.shape
        assert got.tobytes() == fourier._wht(np.concatenate((row, row)))[:1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 40), SEEDS)
    def test_rows_are_one_d_transforms(self, n, m, seed):
        # bit for bit from n = 5, where every stage is a matrix product;
        # below it a 1-D table takes numpy's vector path
        rows = np.random.default_rng(seed).uniform(-1, 1, (m, 1 << n))
        keep = rows.copy()
        got = fourier._wht(rows)
        want = np.array([fourier._wht(r) for r in rows])
        assert got.shape == rows.shape and np.array_equal(rows, keep)
        if n >= 5:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.integers(2, 40), SEEDS)
    def test_row_does_not_depend_on_its_stack(self, n, m, seed):
        rows = np.random.default_rng(seed).uniform(-1, 1, (m, 1 << n))
        got = fourier._wht(rows)
        for lo, hi in ((0, 1), (m - 1, m), (1, m)):
            assert fourier._wht(rows[lo:hi]).tobytes() == got[lo:hi].tobytes()

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
    def test_plancherel(self):
        rng = np.random.default_rng(5)
        a = Ambient(6)
        f = RealFn(a, rng.uniform(-1, 1, a.size))
        g = RealFn(a, rng.uniform(-1, 1, a.size))
        assert float(np.mean(f.values * g.values)) == pytest.approx(
            float(np.sum(wht(f).coeffs * wht(g).coeffs)), abs=1e-12
        )

    def test_parallelogram_certificate_pairing(self):
        # phi on the three-corner parallelogram: <f, phi> = 3
        a = Ambient(2)
        f = RealFn(a, THREE_CORNER)
        phi = RealFn(a, [4.0, 4.0, 4.0, -4.0])
        assert float(np.mean(f.values * phi.values)) == pytest.approx(3.0)
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

    def test_floor_edge(self):
        # a coefficient of exactly the floor, of either sign, is left out;
        # one ulp above it is kept
        floor = fourier.SPECTRUM_JSON_FLOOR
        above = float(np.nextafter(floor, 1.0))
        s = Spectrum(Ambient(2), [floor, -floor, above, -above])
        assert spectrum_to_json(s) == [
            {"r": "0x2", "coeff": above}, {"r": "0x3", "coeff": -above}]
