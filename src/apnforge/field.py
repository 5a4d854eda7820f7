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

This module is the one home of F_{2^w} arithmetic.  Each field builds
the basis images (X^j)^(2^t) once, so every Frobenius map is one
F_2-linear map; for w <= 16 private log/antilog tables make scalar
mul/frobenius O(1), and larger fields (up to the configurable degree
cap, default 24) multiply by shift-and-reduce.  ``Field.array_ops`` is
the same arithmetic, unchecked and elementwise, on int64 arrays, in
operators only: this module imports no numpy.  Field objects are
immutable after construction and safe to share.
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


def _linear(images, x):
    """The F_2-linear map with images[j] the image of X^j, at x (an int or an int array)."""
    out = x & 0
    for j, image in enumerate(images):
        out ^= image & -((x >> j) & 1)
    return out


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
        # _frob[t][j] = (X^j)^(2^t), each row the square of the one before.
        self._frob = [[1 << j for j in range(w)]]
        for _ in range(w - 1):
            self._frob.append([self.mul(v, v) for v in self._frob[-1]])
        self.array_ops = _ArrayOps(self)

    # -- construction helpers ------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Shift-and-reduce product: bootstraps the tables, and multiplies above their range."""
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

    def _find_generator(self) -> int:
        primes = _prime_factors(self.order) if self.order > 1 else []
        for g in range(1, self.size):
            if all(self.pow(g, self.order // p) != 1 for p in primes):
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
            raise FieldMismatchError(f"{x:#x} is not an element of F_2^{self.w}")
        return x

    def mul(self, x: int, y: int) -> int:
        self.check(x)
        self.check(y)
        if x == 0 or y == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[x] + self._log[y]]
        return self._mul_raw(x, y)

    def inv(self, x: int) -> int:
        if self.check(x) == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(x, self.order - 1)

    def pow(self, x: int, e: int) -> int:
        """x**e by square-and-multiply, 0**0 = 1; e reduces mod 2^w - 1 for nonzero x."""
        self.check(x)
        if e < 0:
            raise ValueError(f"exponent must be nonnegative, got {e}")
        if x == 0:
            return 1 if e == 0 else 0
        e %= self.order
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    def frobenius(self, x: int, t: int = 1) -> int:
        """t-fold Frobenius x -> x^(2^t); t may be any nonnegative int."""
        self.check(x)
        t %= self.w
        if t == 0 or x <= 1:
            return x
        if self._exp is not None:
            return self._exp[(self._log[x] << t) % self.order]
        return _linear(self._frob[t], x)

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

    def __repr__(self) -> str:
        return f"Field(w={self.w}, modulus={self.modulus:#x})"


class _ArrayOps:
    """A field's arithmetic, unchecked and elementwise, on int64 arrays or ints."""

    def __init__(self, field: Field):
        self._w, self._modulus, self._frob = field.w, field.modulus, field._frob

    def mul(self, x, y):
        """Branchless shift-and-reduce: w steps, whatever the operands' shapes."""
        acc = (x ^ y) & 0
        for i in range(self._w):
            acc ^= x & -((y >> i) & 1)
            x = x << 1
            x ^= self._modulus & -(x >> self._w)
        return acc

    def frobenius(self, x, t: int = 1):
        """x^(2^t): the XOR of the images (X^j)^(2^t) over the set bits j of x."""
        return _linear(self._frob[t % self._w], x)


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
