"""Budaghyan-Carlet APN hexanomials over F_{2^(2m)}.

Construction of the six-term family, exact existence analysis for the
compatibility coefficient c, and exhaustive differential verification of
the 2^gcd(m,n)-to-one derivative structure -- all at desk scale, all
deterministic.  The names imported below are the public ones.
"""

from .compatibility import (
    CompatReport,
    compat_report,
    compatibility_predicate,
    divisibility_criterion,
    eval_compat_poly,
    find_compatible_c,
    is_compatible_c,
    sweep_reports,
    vanishing_coeff_set,
    witnesses,
)
from .differential import (
    CrossCheckError,
    DerivativeSpectrum,
    derivative_spectrum,
    is_apn,
    is_t_to_one,
)
from .field import (
    Field,
    FieldMismatchError,
    SizeLimitError,
    is_irreducible,
    least_irreducible,
    make_field,
    roots_of_unity,
)
from .hexanomial import (
    BCParams,
    default_d,
    eval_hexanomial,
)

__version__ = "0.1.0"
