"""Exact p-adic Fourier analysis: Mahler expansions and the measure algebra
on Z_p, uniform measures on Q_p as S-series, Witt/Teichmüller arithmetic,
Artin-Hasse series, and the generalized binomial Fourier pair."""

from .errors import (
    BoxExhausted,
    InternalConsistencyError,
    PadicFourierError,
    ParseError,
    PrecisionExhausted,
    PreconditionError,
    PrimeMismatch,
    UncertifiedTailError,
)
from .padic import (
    LowerBound,
    PadicScalar,
    SExponent,
    binomial,
    comb_int,
    gen_binomial,
    gen_binomial_approximants,
    gen_binomial_profile,
    gen_binomial_valuation_bound,
    gen_binomial_valuation_floor,
)
from .iwasawa import (
    BivariateSeries,
    IwasawaElt,
    MahlerFn,
    dirac,
    integrate,
    mahler_coeffs_from_samples,
)
from .ainf import (
    AinfElt,
    dirac_q,
    rescale_pushforward,
    t_tilde_approx,
)
from .witt import PerfSeries, WittElt, teichmuller, witt_decompose, witt_recompose
from .artin_hasse import canonical_measure, pi_element
from .fourier import (
    UnifFn,
    eval_unif,
    forward_transform,
    forward_transform_diracs,
    integrate_unif,
    pullback_rescale,
)

__version__ = "0.1.0"
