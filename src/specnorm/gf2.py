"""Linear algebra over F_2 on n-bit words.

Points of F_2^n are plain ints (bit i = coordinate i); subgroups carry
a canonical reduced row-echelon basis so that set equality is list
equality.  The dual group is represented with the same types, the
pairing being the parity of the bitwise AND.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_N = 24  # dense 2^n tables must stay desk-sized


class AmbientMismatch(ValueError):
    """Operands live in different ambient groups."""


@dataclass(frozen=True)
class Ambient:
    """The group F_2^n."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be in [1, {MAX_N}], got {self.n}")

    @property
    def size(self) -> int:
        return 1 << self.n

    def check_point(self, x: int) -> int:
        if not 0 <= x < self.size:
            raise ValueError(f"point {x:#x} outside F_2^{self.n}")
        return x


def _rref_words(generators) -> list[int]:
    # pivot = highest set bit; forward elimination then back-substitution
    pivots: dict[int, int] = {}
    for g in generators:
        w = int(g)
        while w:
            p = w.bit_length() - 1
            if p in pivots:
                w ^= pivots[p]
            else:
                pivots[p] = w
                break
    for p in sorted(pivots):
        for q in list(pivots):
            if q != p and (pivots[q] >> p) & 1:
                pivots[q] ^= pivots[p]
    return sorted(pivots.values(), reverse=True)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of F_2^n with canonical RREF basis (descending words)."""

    ambient: Ambient
    basis: tuple[int, ...] = field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return 1 << self.dim

    @property
    def density(self) -> float:
        return self.size / self.ambient.size

    def reduce(self, x):
        """Smallest element of x + H, for an int or an int64 array.

        Clearing each RREF pivot bit leaves the other pivot bits alone, and
        x + H has one element with every pivot bit clear: its minimum.
        """
        for b in self.basis:
            x = x ^ (((x >> (b.bit_length() - 1)) & 1) * b)
        return x

    def contains(self, x: int) -> bool:
        return self.reduce(self.ambient.check_point(x)) == 0

    def elements(self) -> list[int]:
        """All 2^dim elements in Gray-code order over basis combinations."""
        return [int(v) for v in self.element_array()]

    def element_array(self) -> np.ndarray:
        return _gray_elements(np.array(self.basis, dtype=np.int64))

    def free_bits(self) -> list[int]:
        """The bit positions that are not RREF pivots, in increasing order."""
        pivots = {b.bit_length() - 1 for b in self.basis}
        return [j for j in range(self.ambient.n) if j not in pivots]

    def coset_minima(self) -> np.ndarray:
        """The smallest member of each coset, in increasing order: every
        word with all the RREF pivot bits clear (reduce).

        Built by doubling over the free bits from the lowest up, so entry i
        sets free bit free_bits()[k] exactly when i sets bit k.
        """
        out = np.zeros(1, dtype=np.int64)
        for j in self.free_bits():
            out = np.concatenate((out, out | (1 << j)))
        return out

    def mask(self) -> np.ndarray:
        """Dense boolean membership table over the ambient group."""
        m = np.zeros(self.ambient.size, dtype=bool)
        m[self.element_array()] = True
        return m

    def annihilator(self) -> "Subgroup":
        """H^perp: all r with parity(r AND h) = 0 for every h in H."""
        pivot_bits = {b.bit_length() - 1: b for b in self.basis}
        gens = []
        for j in self.free_bits():
            r = 1 << j
            for p, w in pivot_bits.items():
                if (w >> j) & 1:
                    r |= 1 << p
            gens.append(r)
        return Subgroup(self.ambient, tuple(_rref_words(gens)))

    def to_json(self) -> list[str]:
        return [point_to_hex(b) for b in self.basis]

    @staticmethod
    def from_json(ambient: Ambient, data) -> "Subgroup":
        """Inverse of to_json: data must be a list of hex strings."""
        if not isinstance(data, list) or not all(isinstance(s, str) for s in data):
            raise ValueError("a subgroup must be a JSON array of hex strings")
        return rref_span(ambient, [point_from_hex(s) for s in data])


def _gray_elements(bases: np.ndarray) -> np.ndarray:
    """The 2^d elements of the span of a (d,) int64 basis, or of each row
    of an (m, d) stack of bases, in reflected Gray-code order over the
    basis combinations: entry i + 2^k is entry 2^k - 1 - i XOR word k, so
    consecutive entries differ in one basis word.  One preallocated array,
    one XOR pass per basis word."""
    d = bases.shape[-1]
    out = np.zeros(bases.shape[:-1] + (1 << d,), dtype=np.int64)
    for k in range(d):
        h = 1 << k
        np.bitwise_xor(out[..., h - 1::-1], bases[..., k, None], out=out[..., h:2 * h])
    return out


def _joins(H: Subgroup, reps: np.ndarray) -> list[Subgroup]:
    """<H, r> in canonical RREF for each nonzero coset minimum r of H
    (Subgroup.reduce), given as an int64 array.

    r has every pivot bit of H clear, so its top bit p is a new pivot.
    A word w of H with bit p set has w ^ r < w, and w ^ r keeps w's pivot
    and clears bit p; so min(w, w ^ r) for each word of H, and r, sorted
    in descending order, are the RREF of <H, r>.  All the minima make one
    (m, dim H + 1) basis matrix.
    """
    basis = np.array(H.basis, dtype=np.int64)
    rows = np.empty((reps.size, basis.size + 1), dtype=np.int64)
    np.minimum(basis, basis ^ reps[:, None], out=rows[:, 1:])
    rows[:, 0] = reps
    rows.sort(axis=1)
    return [Subgroup(H.ambient, tuple(row)) for row in rows[:, ::-1].tolist()]


def rref_span(ambient: Ambient, generators) -> Subgroup:
    """Canonical subgroup spanned by the given points."""
    gens = [ambient.check_point(int(g)) for g in generators]
    return Subgroup(ambient, tuple(_rref_words(gens)))


def trivial(ambient: Ambient) -> Subgroup:
    return Subgroup(ambient, ())


def full(ambient: Ambient) -> Subgroup:
    # the unit words, in descending order, are already the canonical RREF
    return Subgroup(ambient, tuple(1 << i for i in reversed(range(ambient.n))))


def point_to_hex(x: int) -> str:
    return format(x, "#x")


def point_from_hex(s: str) -> int:
    return int(s, 16)
