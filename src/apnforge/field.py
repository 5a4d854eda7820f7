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

This module is the one home of F_{2^w} arithmetic, and it has one
arithmetic for every degree (up to the cap of :func:`make_field`, 24):
a branchless shift-and-reduce multiply, and every Frobenius map as one
F_2-linear map on basis images (X^j)^(2^t), one (w, w) table built once
per field and gathered at t mod w, so one call can apply a different t
to each element of an array.
``Field.array_ops`` runs that code unchecked and elementwise on int64
arrays; scalar ``Field.mul``/``frobenius`` are range checks around the
same code, which is written in operators only, so it serves ints and
arrays alike; :func:`roots_of_unity` builds its powers on the array
view.  :func:`gf2_reduce` is the one F_2 elimination, shared by the c
search and both rank routes.  Field objects are immutable after
construction and safe to share.
"""

from __future__ import annotations

import functools

import numpy as np

DEGREE_CAP = 24


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


def _square_mod(x: int, m: int) -> int:
    """x^2 mod m over GF(2): squaring moves bit j to bit 2j, as base-4 digits do."""
    return _poly_rem(int(format(x, "b"), 4), m)


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_rem(a, b)
    return a


@functools.lru_cache(maxsize=None)
def is_irreducible(f: int) -> bool:
    """Ben-Or's test: f of degree n is irreducible iff gcd(X^(2^i) + X, f) = 1 for
    i = 1..n//2, since X^(2^i) + X is the product of the irreducibles of degree dividing i."""
    if f < 0:
        raise ValueError(f"polynomial {f:#x} is negative")
    n = _poly_degree(f)
    if n <= 0:
        return False
    x = 2  # X^(2^i) mod f
    for _ in range(n // 2):
        x = _square_mod(x, f)
        if _poly_gcd(f, x ^ 2) != 1:
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
        self.array_ops = _ArrayOps(w, modulus)
        self.generator = self._find_generator()

    # -- construction helpers ------------------------------------------------

    def _find_generator(self) -> int:
        primes = _prime_factors(self.order) if self.order > 1 else []
        for g in range(1, self.size):
            if all(self.pow(g, self.order // p) != 1 for p in primes):
                return g
        raise AssertionError("multiplicative group of a finite field is cyclic")

    # -- arithmetic ----------------------------------------------------------

    def check(self, x: int) -> int:
        """Validate x as an element of this field; returns x."""
        if not 0 <= x < self.size:
            raise FieldMismatchError(f"{x:#x} is not an element of F_2^{self.w}")
        return x

    def mul(self, x: int, y: int) -> int:
        return self.array_ops.mul(self.check(x), self.check(y))

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
            x = _square_mod(x, self.modulus)
            e >>= 1
        return r

    def frobenius(self, x: int, t: int = 1) -> int:
        """t-fold Frobenius x -> x^(2^t); t may be any nonnegative int."""
        return int(self.array_ops.frobenius(self.check(x), t))

    def in_subfield(self, x: int, d: int) -> bool:
        """Membership in the subfield F_{2^d}; d must divide w."""
        if d < 1 or self.w % d:
            raise ValueError(f"{d} does not divide field degree {self.w}")
        return self.frobenius(x, d) == x

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
    """A field's arithmetic, unchecked and elementwise, on int64 arrays or ints.

    The same operator sequence serves both, so a scalar result is one
    element of the array result; no step branches on an operand.
    """

    def __init__(self, w: int, modulus: int):
        self._w, self._modulus = w, modulus
        # _frob[j, t] = _frob_lists[t][j] = (X^j)^(2^t), each column the square of the one
        # before; the Python ints serve int operands, where numpy scalars cost ~3x the time.
        self._frob_lists = [[1 << j for j in range(w)]]
        for _ in range(w - 1):
            self._frob_lists.append([_square_mod(v, modulus) for v in self._frob_lists[-1]])
        self._frob = np.array(self._frob_lists, dtype=np.int64).T

    def mul(self, x, y):
        """Branchless shift-and-reduce: w steps, whatever the operands' shapes."""
        w, modulus = self._w, self._modulus
        acc = (x ^ y) & 0
        for i in range(w):
            acc ^= x & -((y >> i) & 1)
            x = x << 1
            x ^= modulus & -(x >> w)
        return acc

    def frobenius(self, x, t=1):
        """x^(2^t): the XOR of the images (X^j)^(2^t) over the set bits j of x.

        t is an int or an int64 array that broadcasts against x, one
        exponent per element: the images are gathered at t mod w.
        """
        ints = isinstance(x, int) and isinstance(t, int)
        images = self._frob_lists[t % self._w] if ints else self._frob[:, t % self._w]
        out = (x ^ images[0]) & 0
        for j, image in enumerate(images):
            out ^= image & -((x >> j) & 1)
        return out


def gf2_reduce(vectors, basis: np.ndarray):
    """Reduce each vector against `basis` in turn and yield its residue (Gaussian
    elimination over F_2), vectorized over the columns.

    basis[b] holds, column by column, a vector whose leading bit is b, or 0.
    Only bits below len(basis) pivot; higher bits ride along as tags, so a
    dependent vector's residue (low part 0) tags the combination of earlier
    vectors that cancels it.  A residue with a nonzero low part joins the basis
    at its leading bit; it is 0 at every earlier leading bit.
    """
    w = len(basis)
    low = (1 << w) - 1
    for v in vectors:
        for b in reversed(range(w)):
            v = v ^ (basis[b] & -((v >> b) & 1))
        new = np.flatnonzero(v & low)
        lead = np.frexp(v[new] & low)[1] - 1  # x = mantissa * 2^exponent, mantissa in [0.5, 1)
        basis[lead, new] = v[new]
        yield v


@functools.lru_cache(maxsize=None)
def _field_cache(w: int, modulus: int) -> Field:
    return Field(w, modulus)


def make_field(w: int, modulus: int | None = None) -> Field:
    """Construct (or fetch the cached) F_{2^w}.

    Fields are cached by (w, modulus) so repeated calls share tables and
    identity; :data:`DEGREE_CAP` keeps accidental huge requests from
    latching up a session.
    """
    if w > DEGREE_CAP:
        raise SizeLimitError(f"field degree {w} exceeds cap {DEGREE_CAP}")
    if modulus is None:
        modulus = least_irreducible(w)
    return _field_cache(w, modulus)


def roots_of_unity(field: Field, n: int) -> list[int]:
    """All n-th roots of unity in the field, ascending; n | 2^w - 1 required."""
    if n < 1 or field.order % n:
        raise ValueError(f"{n} does not divide multiplicative order {field.order}")
    h = field.pow(field.generator, field.order // n)
    powers, step = np.ones(1, dtype=np.int64), h  # h^0..h^(j-1) and h^j, doubling j
    while len(powers) < n:
        powers = np.concatenate((powers, field.array_ops.mul(powers, step)))
        step = field.mul(step, step)
    roots = sorted(set(powers[:n].tolist()))
    assert len(roots) == n, "generator must have full multiplicative order"
    return roots
