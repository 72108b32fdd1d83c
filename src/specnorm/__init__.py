"""Walsh-Hadamard analysis and coset-ring decomposition on F_2^n."""

from . import fourier, gf2, spectral, additive, decompose

__version__ = "0.1.0"
