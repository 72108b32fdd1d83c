"""Dense Walsh-Hadamard transform engine and basic functional calculus.

The transform uses the probability-measure normalization
fhat(r) = 2^-n * sum_x f(x) (-1)^popcount(r & x), so spectral-side
norms use counting measure and function-side norms use the average.

The kernel, _wht, is radix 16: each stage transforms RADIX_BITS index
bits at once by one np.matmul with the 16 x 16 Sylvester-Hadamard
matrix, so a 2^n table takes ceil(n / 4) stages where a radix-2
butterfly takes n.  The last stage is shorter when 4 does not divide n.
The matrices are built once, at import.  Their entries are +-1, so an
integer table whose partial sums stay below 2^53 transforms exactly,
whatever order the matmul sums in; real tables agree with the radix-2
butterfly to within rounding.  BACKEND names the kernel for reports
that record which kernel ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import Ambient, AmbientMismatch, point_to_hex

BACKEND = "numpy-radix16"
RADIX_BITS = 4


def sylvester(N: int) -> np.ndarray:
    """The N x N Sylvester-Hadamard matrix (-1)^popcount(r & x), N = 2^k."""
    idx = np.arange(N)
    return 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1)


_SYLVESTER = tuple(sylvester(1 << k) for k in range(RADIX_BITS + 1))


def _wht(a: np.ndarray) -> np.ndarray:
    """Unnormalized transform of a 2^n table, as a new array.

    A stage transforms index bits lo .. lo+k-1: it views the table as
    (outer, 2^k, 2^lo) and multiplies the middle axis by the 2^k x 2^k
    Sylvester matrix.  At lo = 0 that is one matmul of the (outer, 2^k)
    view.  a itself is never written.
    """
    n = a.size.bit_length() - 1
    k = min(RADIX_BITS, n)
    a = a.reshape(-1, 1 << k) @ _SYLVESTER[k]
    lo = k
    while lo < n:
        k = min(RADIX_BITS, n - lo)
        a = _SYLVESTER[k] @ a.reshape(-1, 1 << k, 1 << lo)
        lo += k
    return a.reshape(-1)


def _as_table(ambient: Ambient, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (ambient.size,):
        raise ValueError(f"expected {ambient.size} values, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries")
    return arr


@dataclass(frozen=True)
class RealFn:
    """Dense real-valued function on F_2^n, index = point word."""

    ambient: Ambient
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_table(self.ambient, self.values))

    def _check(self, other: "RealFn") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("functions on different ambients")

    def __add__(self, other):
        self._check(other)
        return RealFn(self.ambient, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return RealFn(self.ambient, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, RealFn):
            self._check(other)
            return RealFn(self.ambient, self.values * other.values)
        return RealFn(self.ambient, self.values * float(other))

    __rmul__ = __mul__


@dataclass(frozen=True)
class Spectrum:
    """Dense table of Fourier coefficients, index = frequency word."""

    ambient: Ambient
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_table(self.ambient, self.coeffs))


def zeros(ambient: Ambient) -> RealFn:
    return RealFn(ambient, np.zeros(ambient.size))


def constant(ambient: Ambient, c: float) -> RealFn:
    return RealFn(ambient, np.full(ambient.size, float(c)))


def indicator(ambient: Ambient, points) -> RealFn:
    v = np.zeros(ambient.size)
    v[np.asarray(list(points), dtype=np.int64)] = 1.0
    return RealFn(ambient, v)


def wht(f: RealFn) -> Spectrum:
    a = _wht(f.values)
    a /= f.ambient.size
    return Spectrum(f.ambient, a)


def iwht(s: Spectrum) -> RealFn:
    return RealFn(s.ambient, _wht(s.coeffs))


def convolve(f: RealFn, g: RealFn) -> RealFn:
    """E-normalized convolution: (f*g)(x) = E_y f(y) g(x xor y)."""
    f._check(g)
    return iwht(Spectrum(f.ambient, wht(f).coeffs * wht(g).coeffs))


def lp_norm(f: RealFn, p) -> float:
    """L^p norm under the probability measure; p may be math.inf."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


def spec_lp_norm(s: Spectrum, p) -> float:
    """ell^p norm of a spectrum under counting measure."""
    if p == math.inf:
        return float(np.max(np.abs(s.coeffs)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.sum(np.abs(s.coeffs) ** p) ** (1.0 / p))


def inner(f: RealFn, g: RealFn) -> float:
    f._check(g)
    return float(np.mean(f.values * g.values))


SPECTRUM_JSON_FLOOR = 1e-12


def spectrum_to_json(s: Spectrum) -> list[dict]:
    """Coefficients above SPECTRUM_JSON_FLOOR in size, sorted by |coeff|
    descending then by r."""
    idx = np.nonzero(np.abs(s.coeffs) > SPECTRUM_JSON_FLOOR)[0]
    entries = sorted(
        ((int(r), float(s.coeffs[r])) for r in idx),
        key=lambda e: (-abs(e[1]), e[0]),
    )
    return [{"r": point_to_hex(r), "coeff": c} for r, c in entries]
