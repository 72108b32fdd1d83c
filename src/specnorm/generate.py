"""Seeded generators for test instances: random flats, coset-ring
boolean functions with a recorded construction, random boolean
functions, and random subgroups.

All sampling goes through numpy's default_rng; streams are derived
from (seed, index) tuples so concurrent trials stay reproducible.
"""

from __future__ import annotations

import numpy as np

from .fourier import RealFn
from .gf2 import Ambient, Subgroup, point_to_hex, rref_span


def rng_for(seed: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def random_subgroup(ambient: Ambient, rng, max_dim: int | None = None) -> Subgroup:
    n = ambient.n
    d = int(rng.integers(0, (max_dim if max_dim is not None else n) + 1))
    gens = rng.integers(0, ambient.size, size=d)
    return rref_span(ambient, gens)


def random_flat(ambient: Ambient, rng, min_dim=0) -> tuple[Subgroup, int]:
    """A random coset t + H; returns (H, t)."""
    while True:
        H = random_subgroup(ambient, rng)
        if H.dim >= min_dim:
            break
    t = int(rng.integers(0, ambient.size))
    return H, t


def flat_indicator(H: Subgroup, t: int) -> RealFn:
    v = np.zeros(H.ambient.size)
    v[H.element_array() ^ int(t)] = 1.0
    return RealFn(H.ambient, v)


def gen_coset_ring(
    ambient: Ambient, flats: int, depth: int, rng
) -> tuple[RealFn, dict]:
    """Boolean coset-ring function built from random flats and random
    connectives (and/or/not), with a construction record as ground truth.
    """
    if flats < 1:
        raise ValueError("need at least one flat")
    parts = []
    record_flats = []
    for _ in range(flats):
        H, t = random_flat(ambient, rng, min_dim=max(0, ambient.n - 3))
        parts.append(flat_indicator(H, t).values)
        record_flats.append(
            {"basis": [point_to_hex(b) for b in H.basis], "translate": point_to_hex(t)}
        )
    ops = []
    for _ in range(depth):
        if len(parts) >= 2 and rng.random() < 0.8:
            i, j = rng.choice(len(parts), size=2, replace=False)
            op = "and" if rng.random() < 0.5 else "or"
            a, b = parts[int(i)], parts[int(j)]
            merged = a * b if op == "and" else a + b - a * b
            keep = [p for k, p in enumerate(parts) if k not in (int(i), int(j))]
            parts = keep + [merged]
            ops.append({"op": op, "args": [int(i), int(j)]})
        else:
            i = int(rng.integers(0, len(parts)))
            parts[i] = 1.0 - parts[i]
            ops.append({"op": "not", "args": [i]})
    out = parts[0]
    while len(parts) > 1:
        b = parts.pop()
        a = parts.pop()
        out = a + b - a * b
        parts.append(out)
        ops.append({"op": "or", "args": "final-fold"})
    f = RealFn(ambient, np.rint(parts[0]))
    record = {"n": ambient.n, "flats": record_flats, "ops": ops}
    return f, record


def gen_random_boolean(ambient: Ambient, rng) -> RealFn:
    """Each point in the support independently with probability 1/2."""
    return RealFn(ambient, (rng.random(ambient.size) < 0.5).astype(np.float64))


def random_structured_set_mask(ambient: Ambient, rng) -> np.ndarray:
    """Subgroup plus/minus a few noise points: the small-doubling regime."""
    H = random_subgroup(ambient, rng)
    while H.dim < max(1, ambient.n - 4):
        H = random_subgroup(ambient, rng)
    mask = H.mask().copy()
    noise = int(rng.integers(0, max(1, H.size // 8) + 1))
    if noise:
        adds = rng.integers(0, ambient.size, size=noise)
        mask[adds] = True
    drops = int(rng.integers(0, max(1, H.size // 8) + 1))
    if drops:
        elems = H.element_array()
        victims = rng.choice(elems, size=min(drops, len(elems) - 1), replace=False)
        mask[victims[victims != 0]] = False
        mask[0] = True  # keep it nonempty and anchored
    return mask
