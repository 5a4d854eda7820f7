"""Arithmetic for binary fields F_{2^w} in polynomial basis.

Elements are plain ints: bit i of an element is the coefficient of X^i,
so canonical element order is just integer order, 0 and 1 are the two
identities, and addition is ``^``.  A :class:`Field` owns the modulus and
provides all arithmetic; passing an element of one field to another
raises :class:`FieldMismatchError` (detected by range, since the int
itself carries no field tag).

Moduli default to the least irreducible polynomial of each degree, with
coefficient vectors compared as integers and the constant term required
to be nonzero (X itself is never a usable modulus).  That makes every
derived constant in reports reproducible; any other irreducible of the
right degree can be supplied explicitly and is carried in serialized
output.

For w <= 16 the field builds discrete log/antilog tables once, making
mul/inv/pow/frobenius O(1); larger fields (up to the configurable degree
cap, default 24) fall back to shift-and-reduce multiplication.  The
tables stay private to this module.  Field objects are immutable after
construction and safe to share.
"""

from __future__ import annotations

import functools

DEGREE_CAP = 24
_TABLE_DEGREE_MAX = 16


class FieldMismatchError(ValueError):
    """Operand is not an element of this field."""


class SizeLimitError(ValueError):
    """A requested object exceeds a configured size cap."""


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_rem(p: int, m: int) -> int:
    """Remainder of the GF(2) polynomial p modulo m."""
    dm = _poly_degree(m)
    dp = _poly_degree(p)
    while p and dp >= dm:
        p ^= m << (dp - dm)
        dp = _poly_degree(p)
    return p


def is_irreducible(f: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(f)//2."""
    n = _poly_degree(f)
    if n <= 0:
        return False
    for g in range(2, 1 << (n // 2 + 1)):
        if _poly_rem(f, g) == 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def least_irreducible(w: int) -> int:
    """Least irreducible polynomial of degree w (as an integer).

    Only odd candidates are scanned: every even polynomial of degree >= 1
    is divisible by X, and X itself cannot serve as a field modulus.
    """
    if w < 1:
        raise ValueError(f"degree must be positive, got {w}")
    for f in range((1 << w) | 1, 1 << (w + 1), 2):
        if is_irreducible(f):
            return f
    raise AssertionError("irreducible polynomials exist in every degree")


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


class Field:
    """F_{2^w} = F_2[X] / (modulus), elements as width-w bit vectors."""

    def __init__(self, w: int, modulus: int | None = None):
        if w < 1:
            raise ValueError(f"field degree must be positive, got {w}")
        if modulus is None:
            modulus = least_irreducible(w)
        if _poly_degree(modulus) != w:
            raise ValueError(
                f"modulus {modulus:#x} has degree {_poly_degree(modulus)}, expected {w}"
            )
        if not modulus & 1:
            raise ValueError(f"modulus {modulus:#x} has zero constant term")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible")
        self.w = w
        self.modulus = modulus
        self.size = 1 << w
        self.order = self.size - 1
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self.generator = self._find_generator()
        if w <= _TABLE_DEGREE_MAX:
            self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Shift-and-reduce product; used to bootstrap the tables."""
        top = self.size
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self.modulus
        return acc

    def _pow_raw(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, x)
            x = self._mul_raw(x, x)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        primes = _prime_factors(self.order) if self.order > 1 else []
        for g in range(1, self.size):
            if all(self._pow_raw(g, self.order // p) != 1 for p in primes):
                return g
        raise AssertionError("multiplicative group of a finite field is cyclic")

    def _build_tables(self) -> None:
        # exp is doubled so that mul/inv index without a modular reduction.
        exp = [0] * (2 * self.order)
        log = [0] * self.size
        v = 1
        for i in range(self.order):
            exp[i] = v
            exp[i + self.order] = v
            log[v] = i
            v = self._mul_raw(v, self.generator)
        self._exp, self._log = exp, log

    # -- arithmetic ----------------------------------------------------------

    def check(self, x: int) -> int:
        """Validate x as an element of this field; returns x."""
        if not 0 <= x < self.size:
            raise FieldMismatchError(f"{x} is not an element of F_2^{self.w}")
        return x

    def add(self, x: int, y: int) -> int:
        self.check(x)
        self.check(y)
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        self.check(x)
        self.check(y)
        if x == 0 or y == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[x] + self._log[y]]
        return self._mul_raw(x, y)

    def inv(self, x: int) -> int:
        self.check(x)
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[self.order - self._log[x]]
        return self._pow_raw(x, self.order - 1)

    def pow(self, x: int, e: int) -> int:
        """x**e with 0**0 = 1; e reduces mod 2^w - 1 for nonzero x."""
        self.check(x)
        if e < 0:
            raise ValueError(f"exponent must be nonnegative, got {e}")
        if x == 0:
            return 1 if e == 0 else 0
        e %= self.order
        if self._exp is not None:
            return self._exp[self._log[x] * e % self.order]
        return self._pow_raw(x, e)

    def frobenius(self, x: int, t: int = 1) -> int:
        """t-fold Frobenius x -> x^(2^t); t may be any nonnegative int."""
        self.check(x)
        t %= self.w
        if t == 0 or x <= 1:
            return x
        if self._exp is not None:
            return self._exp[(self._log[x] << t) % self.order]
        r = x
        for _ in range(t):
            r = self._mul_raw(r, r)
        return r

    def in_subfield(self, x: int, d: int) -> bool:
        """Membership in the subfield F_{2^d}; d must divide w."""
        if d < 1 or self.w % d:
            raise ValueError(f"{d} does not divide field degree {self.w}")
        return self.frobenius(x, d) == x

    def elements(self) -> range:
        """All elements in canonical (integer) order."""
        return range(self.size)

    # -- serialization -------------------------------------------------------

    def element_hex(self, x: int) -> str:
        """Lowercase hex, zero-padded to ceil(w/4) digits, MSB first."""
        self.check(x)
        return format(x, f"0{(self.w + 3) // 4}x")

    def element_from_hex(self, s: str) -> int:
        return self.check(int(s, 16))

    @property
    def modulus_hex(self) -> str:
        return format(self.modulus, f"0{(self.w + 4) // 4}x")

    def spec_dict(self) -> dict:
        return {
            "w": self.w,
            "modulus_hex": self.modulus_hex,
            "generator_hex": self.element_hex(self.generator),
        }

    def __repr__(self) -> str:
        return f"Field(w={self.w}, modulus={self.modulus:#x})"


@functools.lru_cache(maxsize=None)
def _field_cache(w: int, modulus: int) -> Field:
    return Field(w, modulus)


def make_field(w: int, modulus: int | None = None, degree_cap: int = DEGREE_CAP) -> Field:
    """Construct (or fetch the cached) F_{2^w}.

    Fields are cached by (w, modulus) so repeated calls share tables and
    identity; the default cap keeps accidental huge requests from
    latching up a session.
    """
    if w < 1:
        raise ValueError(f"field degree must be positive, got {w}")
    if w > degree_cap:
        raise SizeLimitError(f"field degree {w} exceeds cap {degree_cap}")
    if modulus is None:
        modulus = least_irreducible(w)
    return _field_cache(w, modulus)


def roots_of_unity(field: Field, n: int) -> list[int]:
    """All n-th roots of unity in the field, ascending; n | 2^w - 1 required."""
    if n < 1 or field.order % n:
        raise ValueError(f"{n} does not divide multiplicative order {field.order}")
    h = field.pow(field.generator, field.order // n)
    out = set()
    z = 1
    for _ in range(n):
        out.add(z)
        z = field.mul(z, h)
    roots = sorted(out)
    assert len(roots) == n, "generator must have full multiplicative order"
    return roots
