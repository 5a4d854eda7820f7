"""The Budaghyan-Carlet hexanomial family and its derivative structure.

Over F_{2^(2m)} with r = 2^m and s = 2^n, the map under study is

    F(x) = x * (x^s + x^r + c x^(rs)) + x^s * (c^r x^r + d x^(rs)) + x^((s+1) r)

with a free coefficient c and a coefficient d outside the subfield
F_{2^m}.  Every power that appears is x^(2^t) for some t, so evaluation
composes Frobenius maps and never exponentiates big integers.

For a nonzero shift a, the rescaled derivative

    D_a(x) = F(a x) + F(a x + a) + F(a)

collapses (the degree-(s+1)r terms cancel) to the linearized polynomial
l0 x + lr x^r + ls x^s + lrs x^(rs), each coefficient one conjugate of
a times F's partial derivative in that conjugate.  Each x^(2^t), t in
{m, n, m+n}, is linear over F_{2^k}, k = gcd(m, n), because k divides
m and n; so D_a is a F_{2^k}-linear map whose nonzero fibers are cosets
of its kernel -- the fact that makes exhaustive derivative verification
cheap.  The coefficients depend only on (params, a); the scalar ones
are cached.

F itself (:func:`hexanomial_form`), D_a from the definition
(:func:`derivative_form`), the coefficients of D_a
(:func:`collapsed_coeffs`) and the four-term sum they weight
(:func:`collapsed_form`) are each written once, generic over field ops:
the scalar :class:`Field` (:func:`eval_hexanomial`,
:func:`eval_derivative`, :func:`eval_derivative_linear`) or its array
view ``field.array_ops`` over many elements or shifts at once (the
value table, the kernel route and the spot check in
:mod:`apnforge.differential`).

F is represented operationally, as evaluation procedures, not as a
coefficient list.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

from .field import Field, make_field


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
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m, n must be positive, got ({self.m}, {self.n})")
        if self.field.w != 2 * self.m:
            raise ValueError(
                f"field degree {self.field.w} does not match 2m = {2 * self.m}"
            )
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

        m = read("m", integer)
        field = make_field(2 * m, read("modulus_hex", lambda v: int(v, 16)))
        return cls(
            m=m,
            n=read("n", integer),
            field=field,
            c=read("c_hex", field.element_from_hex),
            d=read("d_hex", field.element_from_hex),
        )


def _conjugates(f, p: BCParams, x):
    """(x^r, x^s, x^(rs)) under field ops f."""
    return f.frobenius(x, p.m), f.frobenius(x, p.n), f.frobenius(x, p.m + p.n)


def hexanomial_form(f, p: BCParams, x):
    """F(x) under field ops f: six terms, three Frobenius iterates of x."""
    xr, xs, xrs = _conjugates(f, p, x)
    cr = f.frobenius(p.c, p.m)
    return (
        f.mul(x, xs ^ xr ^ f.mul(p.c, xrs))
        ^ f.mul(xs, f.mul(cr, xr) ^ f.mul(p.d, xrs))
        ^ f.mul(xrs, xr)
    )


def eval_hexanomial(p: BCParams, x: int) -> int:
    """F(x) in the scalar field."""
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


def collapsed_coeffs(f, p: BCParams, a):
    """(l0, lr, ls, lrs): D_a(x) = l0 x + lr x^r + ls x^s + lrs x^(rs), under field ops f.

    f is the scalar :class:`Field` (a is one shift) or elementwise array
    ops (a is an array of shifts); both provide ``mul`` and ``frobenius``.
    """
    ar, an, ars = _conjugates(f, p, a)
    cr = f.frobenius(p.c, p.m)
    return (
        f.mul(a, an ^ ar ^ f.mul(p.c, ars)),
        f.mul(ar, a ^ f.mul(cr, an) ^ ars),
        f.mul(an, a ^ f.mul(cr, ar) ^ f.mul(p.d, ars)),
        f.mul(ars, f.mul(p.c, a) ^ f.mul(p.d, an) ^ ar),
    )


def collapsed_form(f, p: BCParams, coeffs, x):
    """D_a(x) from the four coefficients of :func:`collapsed_coeffs`, under field ops f."""
    l0, lr, ls, lrs = coeffs
    xr, xs, xrs = _conjugates(f, p, x)
    return f.mul(l0, x) ^ f.mul(lr, xr) ^ f.mul(ls, xs) ^ f.mul(lrs, xrs)


@functools.lru_cache(maxsize=1 << 18)
def derivative_coeffs(p: BCParams, a: int) -> tuple[int, int, int, int]:
    """The four coefficients of the linearized form of D_a in the scalar field."""
    if a == 0:
        raise ValueError("derivative shift a must be nonzero")
    return collapsed_coeffs(p.field, p, a)


def eval_derivative_linear(p: BCParams, a: int, x: int) -> int:
    """D_a(x) through the four-term linearized form.

    Independent of :func:`eval_derivative` past the shared field ops; the
    two must agree everywhere, and the test suite holds them to that.
    """
    return collapsed_form(p.field, p, derivative_coeffs(p, a), x)


def default_d(field: Field, m: int) -> int:
    """Least element outside F_{2^m}: the canonical d for reproducible runs."""
    if field.w != 2 * m:
        raise ValueError(f"field degree {field.w} does not match 2m = {2 * m}")
    for x in field.elements():
        if not field.in_subfield(x, m):
            return x
    raise AssertionError("F_2^(2m) strictly contains F_2^m")
