"""The seeded generators draw the same streams as their first versions.

The references below are those versions, which ran a rank reduction on
every draw and enumerated a structured set's subgroup twice; the library
now rejects a draw of too few generators before its rank reduction.
subgroup_of_dim, which has no earlier version, is checked on its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnorm.generate import (
    random_flat,
    random_structured_set_mask,
    random_subgroup,
    rng_for,
    subgroup_of_dim,
)
from specnorm.gf2 import Ambient, rref_span


def _reference_random_subgroup(ambient, rng):
    d = int(rng.integers(0, ambient.n + 1))
    gens = rng.integers(0, ambient.size, size=d)
    return rref_span(ambient, gens)


def _reference_random_flat(ambient, rng, min_dim=0):
    while True:
        H = _reference_random_subgroup(ambient, rng)
        if H.dim >= min_dim:
            break
    t = int(rng.integers(0, ambient.size))
    return H, t


def _reference_random_structured_set_mask(ambient, rng):
    H = _reference_random_subgroup(ambient, rng)
    while H.dim < max(1, ambient.n - 4):
        H = _reference_random_subgroup(ambient, rng)
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
        mask[0] = True
    return mask


def _draw_both(draw, reference, seed, index):
    """(draw's output, reference's output, the two end states of the
    stream) on two copies of the stream rng_for(seed, index)."""
    rng, ref_rng = rng_for(seed, index), rng_for(seed, index)
    return draw(rng), reference(ref_rng), rng.bit_generator.state, ref_rng.bit_generator.state


seeds = st.integers(0, 2**32 - 1)


class TestStreamsMatchReference:
    @given(n=st.integers(1, 12), seed=seeds, index=st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    def test_structured_set_mask(self, n, seed, index):
        ambient = Ambient(n)
        mask, ref, state, ref_state = _draw_both(
            lambda rng: random_structured_set_mask(ambient, rng),
            lambda rng: _reference_random_structured_set_mask(ambient, rng), seed, index)
        assert mask.dtype == ref.dtype and np.array_equal(mask, ref)
        assert state == ref_state

    @given(n=st.integers(1, 12), seed=seeds, index=st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    def test_subgroup(self, n, seed, index):
        ambient = Ambient(n)
        H, ref, state, ref_state = _draw_both(
            lambda rng: random_subgroup(ambient, rng),
            lambda rng: _reference_random_subgroup(ambient, rng), seed, index)
        assert H == ref
        assert state == ref_state

    @given(n=st.integers(1, 12), seed=seeds, index=st.integers(0, 1000), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_flat(self, n, seed, index, data):
        ambient = Ambient(n)
        min_dim = data.draw(st.integers(0, n), label="min_dim")
        flat, ref, state, ref_state = _draw_both(
            lambda rng: random_flat(ambient, rng, min_dim),
            lambda rng: _reference_random_flat(ambient, rng, min_dim), seed, index)
        assert flat == ref
        assert state == ref_state


class TestSubgroupOfDim:
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_exact_dimension(self, n, seed, data):
        dim = data.draw(st.integers(0, n), label="dim")
        H = subgroup_of_dim(Ambient(n), dim, rng_for(seed))
        assert H.dim == dim and H.ambient == Ambient(n)

    @pytest.mark.parametrize("dim", [-1, 5])
    def test_dimension_outside_ambient(self, dim):
        # no draw of words in F_2^4 spans dimension 5: refuse, never loop
        with pytest.raises(ValueError):
            subgroup_of_dim(Ambient(4), dim, rng_for(0))
