"""Dense Walsh-Hadamard transform engine and basic functional calculus.

The forward transform, _fhat, uses the probability-measure normalization
fhat(r) = 2^-n * sum_x f(x) (-1)^popcount(r & x), so spectral-side
norms use counting measure and function-side norms use the average.
The inverse is the kernel, _wht, alone.

The kernel, _wht, is radix 16: each stage transforms RADIX_BITS index
bits at once by np.matmul with the 16 x 16 Sylvester-Hadamard matrix,
so a 2^n table takes ceil(n / 4) stages where a radix-2 butterfly takes
n.  The last stage is shorter when 4 does not divide n.
The matrices are built once, at import.  Their entries are +-1, so an
integer table whose partial sums stay below 2^53 transforms exactly,
whatever order the matmul sums in; real tables agree with the radix-2
butterfly to within rounding.  BACKEND names the kernel for reports
that record which kernel ran.

The kernel transforms the last axis, so one call transforms a whole
(m, 2^n) stack of rows, and a 1-D table is the m = 1 case.  At n >= 5
each row comes out bit for bit as its own 1-D transform.  At n <= 4 a
1-D table takes numpy's vector path and a stack the matrix path, which
agree to within rounding; a stack of one row is padded onto the matrix
path, so a row's transform never depends on how many rows share it.

Rows longer than 2^BLOCK_BITS entries take the same stages in
cache-sized pieces, so with the same bits: the stages below bit
BLOCK_BITS run on one piece at a time and the later ones across pieces.
Shorter rows take whole-stack stages.

Stage shapes.  numpy hands each 2-D product to OpenBLAS, which runs one
of at most 10^6 multiply-adds on its small-matrix kernel and a larger
one through its packed general path.  With one BLAS thread a piece's
(4096 x 16)(16 x 16) first stage took 64-68 us on the packed path and
30-32 us as sixteen (256 x 16) batches, and its 16 x 4096 stage of bits
12-15 took 59-62 us against 52-55 us as two 2,048-column slices (55-58
as four of 1,024), medians in seven processes (BENCH_42.json).  So from
n = 13 the first stage runs as (..., 256, 16) batches, which never span
two rows, and a stage whose products would pass 2^19 multiply-adds runs
in column slices within it: 2,048 columns for a full stage (bits 12-15,
and the cross-piece slabs).  Each output entry is still the same 16-term
product summed in the same order, so the bits do not move.  Stacks of
shorter rows, as the laws and decompose make, keep one first-stage
product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import Ambient, AmbientMismatch, point_to_hex

BACKEND = "numpy-radix16"
RADIX_BITS = 4
# A piece of 2^BLOCK_BITS float64 entries is 512 KiB, within a 2 MiB L2
# cache.  BLOCK_BITS is a multiple of RADIX_BITS, so a piece's stages are
# all full: the short stage comes last, as on a whole table, and the bits
# do not move.  Pieces of 2^8 took 86 ms at n = 20 against 10 ms, and 2^15
# would regroup the stages and change the bits.
BLOCK_BITS = 16


def sylvester(N: int) -> np.ndarray:
    """The N x N Sylvester-Hadamard matrix (-1)^popcount(r & x), N = 2^k."""
    idx = np.arange(N)
    return 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1)


_SYLVESTER = tuple(sylvester(1 << k) for k in range(RADIX_BITS + 1))


def _wht(a: np.ndarray) -> np.ndarray:
    """Unnormalized transform of the last axis of a (2^n,) table or an
    (m, 2^n) stack of rows, as a new array.

    A stage transforms index bits lo .. lo+k-1: it views the rows as
    (outer, 2^k, 2^lo) and multiplies the middle axis by the 2^k x 2^k
    Sylvester matrix.  The stages below bit BLOCK_BITS run on one piece at
    a time: the whole stack when n <= BLOCK_BITS, else 2^BLOCK_BITS
    entries.  The first is one matmul of the piece's (outer, 2^k) view, in
    256-row batches from n = 13; the later ones alternate between a
    piece-sized temporary and the piece's place in the output, starting
    so that the last lands in the output.  The stages from bit BLOCK_BITS
    up run in place, one column slab of each (2^k, 2^lo) block at a time,
    through the same temporary.  Each later stage runs in column slices
    (see "Stage shapes" above).  Only n comes from the row length; rows
    never mix, since every view splits each row into whole blocks.  a
    itself is never written.
    """
    n = a.shape[-1].bit_length() - 1
    k = min(RADIX_BITS, n)
    if a.ndim > 1 and a.size == 1 << k:
        # numpy multiplies a lone row (n <= 4) on its vector path, whose sums
        # differ from the matrix path's by ulps: so that a row's transform
        # does not depend on how many rows share its call, pad it to two
        return _wht(np.concatenate((a, a)))[:1]
    cut = min(n, BLOCK_BITS)
    within, across = [], []  # (lo, bits, columns a slice) of the later stages
    for lo in range(k, n, RADIX_BITS):
        j = min(RADIX_BITS, n - lo)
        # a slice is at most 2^19 multiply-adds and at most one piece
        (within if lo < cut else across).append((lo, j, 1 << min(19 - 2 * j, cut - j)))
    out = np.empty(a.shape)
    if n > BLOCK_BITS:
        pieces = zip(a.reshape(-1, 1 << BLOCK_BITS), out.reshape(-1, 1 << BLOCK_BITS))
        tmp = np.empty(1 << BLOCK_BITS)
    else:  # one piece, the whole stack
        pieces, tmp = ((a, out),), np.empty(a.shape)
    first = (-1, 256, 1 << k) if a.shape[-1] > 256 << k else (-1, 1 << k)
    for src, dst in pieces:
        # the stages alternate between tmp and dst: start so the last is in dst
        x, y = (tmp, dst) if len(within) % 2 else (dst, tmp)
        np.matmul(src.reshape(first), _SYLVESTER[k], out=x.reshape(first))
        for lo, j, cols in within:
            xv, yv = x.reshape(-1, 1 << j, 1 << lo), y.reshape(-1, 1 << j, 1 << lo)
            for c in range(0, 1 << lo, cols):
                np.matmul(_SYLVESTER[j], xv[..., c:c + cols], out=yv[..., c:c + cols])
            x, y = y, x
    for lo, j, cols in across:
        t = tmp[:cols << j].reshape(1 << j, cols)
        for rows in out.reshape(-1, 1 << j, 1 << lo):
            for c in range(0, 1 << lo, cols):
                slab = rows[:, c:c + cols]
                np.matmul(_SYLVESTER[j], slab, out=t)
                slab[...] = t
    return out


def _fhat(a: np.ndarray) -> np.ndarray:
    """fhat = 2^-n _wht(a) of a (2^n,) table or of each row of an (m, 2^n)
    stack, as a new array scaled in place.  The one forward transform:
    wht, spectral._abs_spectrum and additive._spectra call it.  2^-n is
    exact, so the product rounds as the division by 2^n does, at half its
    cost."""
    out = _wht(a)
    out *= 1.0 / a.shape[-1]
    return out


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

    @classmethod
    def _unchecked(cls, ambient: Ambient, values: np.ndarray) -> "RealFn":
        """A RealFn on a float64 (2^n,) table that the library built from
        finite input, without _as_table's checks."""
        fn = object.__new__(cls)
        object.__setattr__(fn, "ambient", ambient)
        object.__setattr__(fn, "values", values)
        return fn

    def _check(self, other: "RealFn") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("functions on different ambients")


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
    return Spectrum(f.ambient, _fhat(f.values))


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
    a = np.abs(s.coeffs)
    if p == 1:
        return float(np.sum(a))
    return float(np.sum(a**p) ** (1.0 / p))


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
