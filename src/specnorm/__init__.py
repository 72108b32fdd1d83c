"""Walsh-Hadamard analysis and coset-ring decomposition on F_2^n."""

from .fourier import (
    BACKEND,
    RealFn,
    Spectrum,
    convolve,
    iwht,
    wht,
)
from .gf2 import Ambient, AmbientMismatch, Subgroup, full, rref_span, trivial
from .spectral import (
    AlmostIntFn,
    NotAlmostInteger,
    SupportCertificate,
    a_norm,
    find_spectral_support,
    is_spectrally_supported,
    pd_eval,
    psi,
    round_to_int,
)
from .additive import (
    PointSet,
    SearchBudgetExceeded,
    SetStats,
    ZeroInSet,
    bogolyubov_subgroup,
    is_arithmetically_connected,
    nu4,
    s_eta,
    set_stats,
    spec_set,
    sumset,
)
from .decompose import (
    CosetRingExpr,
    DecomposeParams,
    DecomposeReport,
    SubgroupTerm,
    decompose,
    evaluate,
)

__version__ = "0.1.0"
