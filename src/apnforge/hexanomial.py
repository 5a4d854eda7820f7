"""The Budaghyan-Carlet hexanomial family and its derivative structure.

Over F_{2^(2m)} with r = 2^m and s = 2^n, the map under study is

    F(x) = x * (x^s + x^r + c x^(rs)) + x^s * (c^r x^r + d x^(rs)) + x^((s+1) r)

with a free coefficient c and a coefficient d outside the subfield
F_{2^m}.  Every power that appears is x^(2^t) for some t, so evaluation
composes Frobenius maps and never exponentiates big integers.

F is quadratic (every exponent has binary weight <= 2), so
B(a, y) = F(a + y) + F(a) + F(y) = b0 y + br y^r + bs y^s + brs y^(rs)
is F_2-bilinear, b0..brs linear in a (:func:`bilinear_coeffs`).  For a
nonzero shift a the rescaled derivative D_a(x) = F(a x) + F(a x + a) +
F(a) is B(a, a x), a linearized polynomial in x.  Each x^(2^t), t in
{m, n, m+n}, is linear over F_{2^k}, k = gcd(m, n); so D_a is
F_{2^k}-linear and its nonzero fibers are cosets of its kernel -- the
fact that makes exhaustive derivative verification cheap.

F (:func:`hexanomial_form`), D_a from the definition
(:func:`derivative_form`), the coefficients of B and the sum they weight
(:func:`collapsed_form`) are each written once, generic over field ops:
the scalar :class:`Field` on ints or int64 arrays (:func:`eval_hexanomial`,
which the value table's check calls once on every point of weight <= 2,
:func:`eval_derivative`, :func:`eval_derivative_linear`, whose
coefficients are cached) or its array view ``field.array_ops`` (the
value table, the kernel route's w^2 values of B and the spot check in
:mod:`apnforge.differential`).  Field ops are ``mul``, ``frobenius`` and
``times(k)``, multiplication by a fixed k, which the forms use for c, c^r
and d; the array view compiles each such k into its own tables.

F is represented operationally, as evaluation procedures, not as a
coefficient list.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

from .field import Field, make_field


def instance_field(m: int, n: int, field: Field | None = None, modulus: int | None = None) -> Field:
    """F_{2^(2m)} for the instance (m, n), m, n >= 1: the given field, if its degree
    is 2m, or else the cached one with the given (default: least) modulus.  Every
    entry point that takes (m, n) states its contract by this call."""
    if m < 1 or n < 1:
        raise ValueError(f"m, n must be positive, got ({m}, {n})")
    if field is None:
        return make_field(2 * m, modulus)
    if field.w != 2 * m:
        raise ValueError(f"field degree {field.w} does not match 2m = {2 * m}")
    return field


@dataclass(frozen=True)
class BCParams:
    """One hexanomial instance: exponent pair (m, n), field F_{2^(2m)}, coefficients c, d.

    d must lie outside F_{2^m}; c is unrestricted (compatibility of c is a
    separate question, decided in :mod:`apnforge.compatibility`).
    """

    m: int
    n: int
    field: Field
    c: int
    d: int

    def __post_init__(self):
        instance_field(self.m, self.n, self.field)
        self.field.check(self.c)
        self.field.check(self.d)
        if self.field.in_subfield(self.d, self.m):
            raise ValueError(
                f"d={self.d:#x} lies in the subfield F_2^{self.m}; the"
                " derivative conjugate-difference argument needs d + d^r != 0"
            )

    @property
    def k(self) -> int:
        return gcd(self.m, self.n)

    @property
    def u(self) -> int:
        """2^gcd(m, n): the expected fiber size of every nonzero derivative."""
        return 1 << self.k

    @property
    def r(self) -> int:
        return 1 << self.m

    @property
    def s(self) -> int:
        return 1 << self.n

    def to_dict(self) -> dict:
        f = self.field
        return {
            "m": self.m,
            "n": self.n,
            "c_hex": f.element_hex(self.c),
            "d_hex": f.element_hex(self.d),
            "modulus_hex": f.modulus_hex,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "BCParams":
        if not isinstance(obj, dict):
            raise ValueError(f"params must be a JSON object, got {type(obj).__name__}")
        if missing := sorted({"m", "n", "c_hex", "d_hex", "modulus_hex"} - obj.keys()):
            raise ValueError(f"params missing keys {missing}")

        def read(key, convert):
            try:
                return convert(obj[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"params key {key!r}: {exc}") from None

        def integer(v):
            if type(v) is not int:  # not a float, a string or a bool
                raise TypeError(f"expected a JSON integer, got {v!r}")
            return v

        m, n = read("m", integer), read("n", integer)
        field = instance_field(m, n, modulus=read("modulus_hex", lambda v: int(v, 16)))
        return cls(
            m=m,
            n=n,
            field=field,
            c=read("c_hex", field.element_from_hex),
            d=read("d_hex", field.element_from_hex),
        )


def _conjugates(f, p: BCParams, x):
    """(x^r, x^s, x^(rs)) under field ops f."""
    return f.frobenius(x, p.m), f.frobenius(x, p.n), f.frobenius(x, p.m + p.n)


def _constants(f, p: BCParams):
    """Multiplication by c, c^r and d under field ops f, each compiled once by f.times."""
    return f.times(p.c), f.times(f.frobenius(p.c, p.m)), f.times(p.d)


def hexanomial_form(f, p: BCParams, x):
    """F(x) under field ops f: six terms, three Frobenius iterates of x."""
    xr, xs, xrs = _conjugates(f, p, x)
    c, cr, d = _constants(f, p)
    return f.mul(x, xs ^ xr ^ c(xrs)) ^ f.mul(xs, cr(xr) ^ d(xrs)) ^ f.mul(xrs, xr)


def eval_hexanomial(p: BCParams, x):
    """F(x) in the scalar field, x an int or elementwise an int64 array."""
    return hexanomial_form(p.field, p, x)


def derivative_form(f, p: BCParams, a, x):
    """D_a(x) = F(ax) + F(ax + a) + F(a) straight from the definition, under field ops f."""
    ax = f.mul(a, x)
    return hexanomial_form(f, p, ax) ^ hexanomial_form(f, p, ax ^ a) ^ hexanomial_form(f, p, a)


def eval_derivative(p: BCParams, a: int, x: int) -> int:
    """D_a(x) from the definition in the scalar field."""
    if a == 0:
        raise ValueError("derivative shift a must be nonzero")
    return derivative_form(p.field, p, a, x)


def bilinear_coeffs(f, p: BCParams, a):
    """(b0, br, bs, brs): B(a, y) = b0 y + br y^r + bs y^s + brs y^(rs), under field ops f:
    the scalar :class:`Field` (a is one element) or its array view (a is an array)."""
    ar, an, ars = _conjugates(f, p, a)
    c, cr, d = _constants(f, p)
    return an ^ ar ^ c(ars), a ^ cr(an) ^ ars, a ^ cr(ar) ^ d(ars), c(a) ^ d(an) ^ ar


def collapsed_form(f, p: BCParams, coeffs, y):
    """B(a, y) = b0 y + br y^r + bs y^s + brs y^(rs) under field ops f, from the
    coefficients of :func:`bilinear_coeffs` at a."""
    b0, br, bs, brs = coeffs
    yr, ys, yrs = _conjugates(f, p, y)
    return f.mul(b0, y) ^ f.mul(br, yr) ^ f.mul(bs, ys) ^ f.mul(brs, yrs)


@functools.lru_cache(maxsize=1 << 18)
def derivative_coeffs(p: BCParams, a: int) -> tuple[int, int, int, int]:
    """The four coefficients of B(a, .), the linear part of D_a, in the scalar field."""
    if a == 0:
        raise ValueError("derivative shift a must be nonzero")
    return bilinear_coeffs(p.field, p, a)


def eval_derivative_linear(p: BCParams, a: int, x: int) -> int:
    """D_a(x) = B(a, a x) through the four-term linearized form: independent of
    :func:`eval_derivative` past the shared field ops, and held to it by the test suite."""
    return collapsed_form(p.field, p, derivative_coeffs(p, a), p.field.mul(a, x))


def default_d(field: Field, m: int) -> int:
    """Least element outside F_{2^m}: the canonical d for reproducible runs."""
    instance_field(m, 1, field)  # d does not depend on n
    # 0 and 1 lie in every subfield; X = 2 in none, as its minimal polynomial is the modulus
    return 2
