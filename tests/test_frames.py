"""Frame independence: a change of basis f -> f o A, A in GL(n, 2), maps
every subgroup expression of f to one of f o A with the same L, since A^-1
carries each subgroup to a subgroup.  decompose is frame-free by
construction (A^-1 carries H', the period subgroup of f, to that of
f o A, and permutes the coset values), so these tests ask for equality.
On integer tables a_norm and psi are exact, so they must agree to the bit:
(f o A)-hat is f-hat permuted, and psi(f o A, A^-1 H) = psi(f, H) o A.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specnorm.decompose import decompose
from specnorm.fourier import RealFn
from specnorm.generate import flat_indicator, gen_coset_ring, random_subgroup, rng_for
from specnorm.gf2 import Ambient, rref_span
from specnorm.spectral import FRAME_MIN_N, a_norm, psi

SEED = 2026


def random_frame(n, rng):
    """The table x -> Ax of a random A in GL(n, 2): n columns, drawn again
    until they have rank n; Ax is the XOR of the columns at x's set bits."""
    a = Ambient(n)
    while True:
        cols = rng.integers(0, a.size, n).tolist()
        if rref_span(a, cols).dim == n:
            break
    x = np.arange(a.size)
    image = np.zeros(a.size, dtype=np.int64)
    for i, c in enumerate(cols):
        image ^= np.where((x >> i) & 1, c, 0)
    return image


def compose(f, image):
    """f o A, (f o A)(x) = f(Ax), for A's table image."""
    return RealFn(f.ambient, f.values[image])


def pull_back(H, image):
    """A^-1 H, from the inverse permutation of A's table image."""
    inverse = np.empty_like(image)
    inverse[image] = np.arange(image.size)
    return rref_span(H.ambient, inverse[list(H.basis)].tolist())


@st.composite
def framed_flat_sums(draw, max_n=8):
    """(f, A's table): f a sum of c_i 1_{t_i + H_i} with nonzero integer
    c_i in [-3, 3], and A a random frame of the same n."""
    n = draw(st.integers(1, max_n))
    a = Ambient(n)
    words = st.integers(0, a.size - 1)
    vals = np.zeros(a.size)
    for _ in range(draw(st.integers(1, 4))):
        H = rref_span(a, draw(st.lists(words, max_size=n)))
        c = draw(st.integers(1, 3)) * draw(st.sampled_from([-1, 1]))
        vals += c * flat_indicator(H, draw(words)).values
    return RealFn(a, vals), random_frame(n, rng_for(draw(st.integers(0, 2**32 - 1))))


class TestFrameHelpers:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_frame_is_a_linear_bijection(self, n):
        image = random_frame(n, rng_for(SEED, n))
        assert np.array_equal(np.sort(image), np.arange(1 << n))
        x, y = rng_for(SEED, 100 + n).integers(0, 1 << n, (2, 64))
        assert np.array_equal(image[x ^ y], image[x] ^ image[y])

    def test_pull_back_is_the_preimage(self):
        a = Ambient(7)
        rng = rng_for(SEED, 7)
        image = random_frame(7, rng)
        H = random_subgroup(a, rng)
        # x is in A^-1 H exactly when Ax is in H
        assert np.array_equal(pull_back(H, image).mask(), H.mask()[image])


class TestDecomposeInFrames:
    @given(framed_flat_sums())
    @settings(max_examples=80, deadline=None)
    def test_same_L_in_every_frame(self, fA):
        f, image = fA
        expr, rep = decompose(f)
        framed, framed_rep = decompose(compose(f, image))
        assert rep.exact and framed_rep.exact
        assert framed.L == expr.L

    def test_acceptance_corpus_in_four_frames(self):
        """Criterion 10's 200 instances, each in 4 fixed seeded frames of
        its n: every one is exact with the identity frame's L."""
        frames = [{n: random_frame(n, rng_for(SEED, 99_000 + 16 * k + n)) for n in range(5, 11)}
                  for k in range(4)]
        moved = []
        for t in range(200):
            rng = rng_for(SEED, 90_000 + t)
            n = int(rng.integers(5, 11))
            f, _ = gen_coset_ring(Ambient(n), 1 + t % 4, t % 4, rng)
            L = decompose(f)[0].L
            for k, frame in enumerate(frames):
                expr, rep = decompose(compose(f, frame[n]))
                if not rep.exact or expr.L != L:
                    moved.append((t, k))
        assert moved == []


# both sides of FRAME_MIN_N, where psi moves from the fold to the quotient
FRAME_NS = sorted({1, 2, 3, 5, 8, 11, 14, FRAME_MIN_N, 16})


class TestExactNormsInFrames:
    @pytest.mark.parametrize("n", FRAME_NS)
    @pytest.mark.parametrize("case", range(3))
    def test_a_norm(self, n, case):
        rng = rng_for(SEED, 1000 * n + case)
        a = Ambient(n)
        f = RealFn(a, rng.integers(-3, 4, a.size).astype(float))
        assert a_norm(compose(f, random_frame(n, rng))) == a_norm(f)

    @pytest.mark.parametrize("n", FRAME_NS)
    @pytest.mark.parametrize("case", range(3))
    def test_psi(self, n, case):
        rng = rng_for(SEED, 2000 * n + case)
        a = Ambient(n)
        f = RealFn(a, rng.integers(-3, 4, a.size).astype(float))
        image = random_frame(n, rng)
        H = random_subgroup(a, rng)
        got = psi(compose(f, image), pull_back(H, image)).values
        assert np.array_equal(got, psi(f, H).values[image])
