"""Budaghyan-Carlet APN hexanomials over F_{2^(2m)}.

Construction of the six-term family, exact existence analysis for the
compatibility coefficient c, and exhaustive differential verification of
the 2^gcd(m,n)-to-one derivative structure -- all at desk scale, all
deterministic.  The names in ``__all__`` are the public ones.  Each loads
its submodule on first use (PEP 562), so ``import apnforge`` alone loads
no numpy, and ``apnforge.cli`` can set up the process before numpy does.
"""

import importlib

_PUBLIC = {
    "compatibility": (
        "CompatReport", "compat_report", "compatibility_predicate", "divisibility_criterion",
        "eval_compat_poly", "find_compatible_c", "is_compatible_c", "sweep_reports",
        "vanishing_coeff_set", "witnesses",
    ),
    "differential": (
        "CrossCheckError", "DerivativeSpectrum", "derivative_spectrum", "is_apn", "is_t_to_one",
    ),
    "field": (
        "Field", "FieldMismatchError", "SizeLimitError", "is_irreducible", "least_irreducible",
        "make_field", "roots_of_unity",
    ),
    "hexanomial": ("BCParams", "default_d", "eval_hexanomial"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
