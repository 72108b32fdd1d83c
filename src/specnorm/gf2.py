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


def parity(w: int) -> int:
    return bin(w).count("1") & 1


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

    def contains(self, x: int) -> bool:
        self.ambient.check_point(x)
        w = x
        for b in self.basis:
            if w.bit_length() == b.bit_length():
                w ^= b
        return w == 0

    def elements(self) -> list[int]:
        """All 2^dim elements in Gray-code order over basis combinations."""
        return [int(v) for v in self.element_array()]

    def element_array(self) -> np.ndarray:
        out = np.zeros(1, dtype=np.int64)
        for b in self.basis:
            # reflected Gray code: consecutive entries differ in one basis word
            out = np.concatenate((out, out[::-1] ^ b))
        return out

    def mask(self) -> np.ndarray:
        """Dense boolean membership table over the ambient group."""
        m = np.zeros(self.ambient.size, dtype=bool)
        m[self.element_array()] = True
        return m

    def annihilator(self) -> "Subgroup":
        """H^perp: all r with parity(r AND h) = 0 for every h in H."""
        n = self.ambient.n
        pivot_bits = {b.bit_length() - 1: b for b in self.basis}
        gens = []
        for j in range(n):
            if j in pivot_bits:
                continue
            r = 1 << j
            for p, w in pivot_bits.items():
                if (w >> j) & 1:
                    r |= 1 << p
            gens.append(r)
        return Subgroup(self.ambient, tuple(_rref_words(gens)))

    def intersect(self, other: "Subgroup") -> "Subgroup":
        if self.ambient != other.ambient:
            raise AmbientMismatch("subgroups in different ambients")
        joined = rref_span(
            self.ambient,
            list(self.annihilator().basis) + list(other.annihilator().basis),
        )
        return joined.annihilator()

    def is_subset_of(self, other: "Subgroup") -> bool:
        return all(other.contains(b) for b in self.basis)

    def to_json(self) -> list[str]:
        return [point_to_hex(b) for b in self.basis]

    @staticmethod
    def from_json(ambient: Ambient, data) -> "Subgroup":
        return rref_span(ambient, [point_from_hex(s) for s in data])


def rref_span(ambient: Ambient, generators) -> Subgroup:
    """Canonical subgroup spanned by the given points."""
    gens = [ambient.check_point(int(g)) for g in generators]
    return Subgroup(ambient, tuple(_rref_words(gens)))


def trivial(ambient: Ambient) -> Subgroup:
    return Subgroup(ambient, ())


def full(ambient: Ambient) -> Subgroup:
    return rref_span(ambient, [1 << i for i in range(ambient.n)])


def point_to_hex(x: int) -> str:
    return format(x, "#x")


def point_from_hex(s: str) -> int:
    return int(s, 16)
