"""Dense Walsh-Hadamard transform engine and basic functional calculus.

The transform uses the probability-measure normalization
fhat(r) = 2^-n * sum_x f(x) (-1)^popcount(r & x), so spectral-side
norms use counting measure and function-side norms use the average.

The butterfly is one numpy kernel, _wht_inplace.  BACKEND names it for
reports that record which kernel ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import Ambient, AmbientMismatch, point_to_hex

BACKEND = "python"


def _wht_inplace(a: np.ndarray) -> None:
    """Unnormalized butterfly.  Stage order ascending, index order
    ascending within each stage: each output element is a single
    add/subtract of two stage inputs."""
    n = a.size
    h = 1
    while h < n:
        b = a.reshape(-1, 2 * h)
        lo = b[:, :h].copy()
        hi = b[:, h:].copy()
        b[:, :h] = lo + hi
        b[:, h:] = lo - hi
        h *= 2


def _as_table(ambient: Ambient, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (ambient.size,):
        raise ValueError(f"expected {ambient.size} values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
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
    a = f.values.copy()
    _wht_inplace(a)
    a /= f.ambient.size
    return Spectrum(f.ambient, a)


def iwht(s: Spectrum) -> RealFn:
    a = s.coeffs.copy()
    _wht_inplace(a)
    return RealFn(s.ambient, a)


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


def spectrum_to_json(s: Spectrum, threshold: float = 1e-12) -> list[dict]:
    """Nonzero coefficients, sorted by |coeff| descending then by r."""
    idx = np.nonzero(np.abs(s.coeffs) > threshold)[0]
    entries = sorted(
        ((int(r), float(s.coeffs[r])) for r in idx),
        key=lambda e: (-abs(e[1]), e[0]),
    )
    return [{"r": point_to_hex(r), "coeff": c} for r, c in entries]
