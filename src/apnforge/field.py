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

This module is the one home of F_{2^w} arithmetic (up to the cap of
:func:`make_field`, 24), and it has two arithmetics that are held to
each other.  The scalar :class:`Field` works by shift-and-reduce, on
Python ints or elementwise on int64 arrays (each step a multiply by one
bit, never a branch), and applies a Frobenius power x -> x^(2^t) as the
XOR of the images (X^j)^(2^t) over the bits of x.  Its array view
``Field.array_ops`` works unchecked and elementwise on int arrays, with
int32 results, by gathers from tables of 256 entries per operand byte:
every Frobenius power and every multiplication by a fixed element is an
F_2-linear map compiled into such tables once, and a general product
XORs byte-pair carryless products from one table shared by all fields,
then reduces its high bits by one more linear map.
:func:`roots_of_unity` takes its powers in one array multiply from a
root of order n, without a generator of the whole group (the test
oracle finds one with its own arithmetic).  Field objects are immutable
after construction, apart from what they build on first use, and safe
to share.
"""

from __future__ import annotations

import functools
import itertools
import math

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
    dm = m.bit_length()
    while (dp := p.bit_length()) >= dm:
        p ^= m << (dp - dm)
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
    """F_{2^w} = F_2[X] / (modulus), elements as width-w bit vectors: shift-and-reduce on
    Python ints, or elementwise on int64 arrays (:meth:`check`, :meth:`mul`,
    :meth:`times` and :meth:`frobenius`; :meth:`pow` and :meth:`inv` take ints)."""

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
        # _frob[t][j] = (X^j)^(2^t), each list the squares of the one before
        self._frob = [[1 << j for j in range(w)]]
        for _ in range(w - 1):
            self._frob.append([_square_mod(v, modulus) for v in self._frob[-1]])

    @functools.cached_property
    def array_ops(self) -> _ArrayOps:
        """The unchecked array view, built on first use; its int32 results hold w <= 31."""
        if self.w > 31:
            raise SizeLimitError(f"array arithmetic for w={self.w} exceeds 31")
        return _ArrayOps(self.w, self.modulus, self._frob)

    # -- arithmetic ----------------------------------------------------------

    def check(self, x):
        """Validate x, an int or an int64 array, as element(s) of this field; returns x."""
        if type(x) is not int and isinstance(x, np.ndarray):  # ints first: isinstance is slower
            bad = x[(x < 0) | (x >= self.size)]
            if bad.size:
                raise FieldMismatchError(f"{int(bad[0]):#x} is not an element of F_2^{self.w}")
        elif not 0 <= x < self.size:
            raise FieldMismatchError(f"{x:#x} is not an element of F_2^{self.w}")
        return x

    def mul(self, x, y):
        """x y by shift-and-reduce, elementwise on operands that broadcast against each
        other: one step per bit of an int y (at least one, so an array x times 0 is an
        array), w steps for an array y."""
        top, modulus = self.w - 1, self.modulus
        self.check(x)
        acc = 0
        for _ in range((y.bit_length() or 1) if type(self.check(y)) is int else self.w):
            acc ^= x * (y & 1)
            y = y >> 1  # not >>=, which would write into an array operand
            x = x << 1 ^ modulus * (x >> top)  # x X, reduced when bit w - 1 moves up to w
        return acc

    def times(self, k: int):
        """x -> k x, the form generic field code uses for a fixed factor."""
        return functools.partial(self.mul, k)

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

    def frobenius(self, x, t: int = 1):
        """t-fold Frobenius x -> x^(2^t), for any int t and elementwise on an array x: the
        XOR of the images (X^j)^(2^t) over the set bits j of x."""
        self.check(x)
        out = 0
        for j, image in enumerate(self._frob[t % self.w]):
            out ^= image * (x >> j & 1)
        return out

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
    """A field's arithmetic, unchecked and elementwise, on int32 or int64 arrays (a Python
    int is a 0-d operand), with int32 results, read from tables of 256 entries, one per
    byte of an operand.

    Each F_2-linear map -- every Frobenius power, multiplication by a fixed k
    (:meth:`times`), the reduction of a product's high bits -- is compiled from its
    basis images into byte tables (:func:`_byte_tables`) and applied as one gather per
    byte (:func:`_linear`).  :meth:`mul` XORs byte-pair carryless products from one
    table shared by every field.  The scalar :class:`Field` keeps shift-and-reduce, so
    the two are different arithmetics, and each is held to the other.
    """

    def __init__(self, w: int, modulus: int, frob_images: list[list[int]]):
        self._w, self._modulus = w, modulus
        self._frob = _byte_tables(frob_images)  # (w, bytes, 256)
        # a product's bits w..2w-2 stand for X^(w+j) mod the modulus (at w = 1 there are
        # none, and the one image is never gathered at a nonzero byte)
        self._reduce = _byte_tables([[_poly_rem(1 << w + j, modulus) for j in range(max(1, w - 1))]])
        self.times = functools.lru_cache(maxsize=16)(self._times)

    def _times(self, k):
        """x -> k x for a fixed k (cached by :meth:`times`): the byte tables of the k X^j."""
        tables = _byte_tables([[_poly_rem(int(k) << j, self._modulus) for j in range(self._w)]])
        return functools.partial(_linear, tables)

    def mul(self, x, y):
        """x y, for operands that broadcast against each other: the XOR of the carryless
        products of every byte pair, each gathered at a uint16 index from
        :func:`_clmul_table` and shifted into place, then the product's bits w..2w-2
        reduced by one more linear map."""
        xb, yb, table, nb = _bytes(x), _bytes(y), _clmul_table(), self._frob.shape[1]
        product = 0
        for i in range(nb):
            high = np.left_shift(xb[..., i], 8, dtype=np.uint16)
            for j in range(nb):
                product ^= np.left_shift(table.take(high | yb[..., j]), 8 * (i + j), dtype=np.int64)
        out = _linear(self._reduce, product >> self._w)
        out ^= product & ((1 << self._w) - 1)  # below 2^w: exact in int32
        return out

    def frobenius(self, x, t=1):
        """x^(2^t), from the byte tables of t mod w; t is an int or an int64 array that
        broadcasts against x, one exponent per element."""
        return _linear(self._frob, x, t % self._w)


def _byte_tables(maps: list[list[int]]) -> np.ndarray:
    """(maps, ceil(n/8), 256) int32 byte tables of F_2-linear maps, each given by its n
    basis images: tables[i, b, v] is the XOR of maps[i][8b + k] over the set bits k of v,
    built in place by one doubling per bit."""
    images = np.array([m + [0] * (-len(m) % 8) for m in maps], dtype=np.int32).reshape(len(maps), -1, 8)
    tables = np.zeros((*images.shape[:2], 256), dtype=np.int32)
    for k in range(8):
        np.bitwise_xor(tables[..., : 1 << k], images[..., k, None], out=tables[..., 1 << k : 2 << k])
    return tables


@functools.cache
def _clmul_table() -> np.ndarray:
    """table[u << 8 | v] = the carryless product of bytes u and v (15 bits), uint16, 128 KiB,
    one for every field, built on first use: u X^k XORed in wherever bit k of v is set."""
    u, v = np.arange(256, dtype=np.uint16)[:, None], np.arange(256, dtype=np.uint16)
    table = np.zeros((256, 256), dtype=np.uint16)
    for k in range(8):
        table ^= (u << k) * (v >> k & 1)
    table = table.ravel()
    table.setflags(write=False)
    return table


def _bytes(x) -> np.ndarray:
    """x viewed as (..., 4 or 8) little-endian uint8 bytes: copied, as int64, only when x
    is not already a C-contiguous little-endian int32 or int64 array."""
    x = np.asarray(x)
    if x.dtype.str not in ("<i4", "<i8") or not x.flags.c_contiguous:
        x = np.array(x, dtype="<i8")
    return x[..., None].view(np.uint8)


def _linear(tables: np.ndarray, x, row=0):
    """x under the linear map whose byte tables are tables[row], of (rows, bytes, 256)
    tables, row an int or an int64 array broadcasting against x: the XOR of one gather
    per byte of x, at intp indices (numpy's take is several times slower at narrow ones)."""
    xb, nb = _bytes(x), tables.shape[-2]
    flat = tables.reshape(-1)
    out = flat.take(np.add(xb[..., 0], row * nb << 8, dtype=np.intp))
    for b in range(1, nb):
        out ^= flat.take(np.add(xb[..., b], (row * nb + b) << 8, dtype=np.intp))
    return out


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
    return roots_of_unity_array(field, n).tolist()


def roots_of_unity_array(field: Field, n: int) -> np.ndarray:
    """:func:`roots_of_unity` as an ascending int64 array."""
    if n < 1 or field.order % n:
        raise ValueError(f"{n} does not divide multiplicative order {field.order}")
    h = _least_of_order(field, n)
    # h^(side j + i) = (h^side)^j h^i: side^2 >= n powers from 2 side scalar steps and
    # one array multiply, whose (side, 1) x (side,) product is in exponent order
    side = math.isqrt(n - 1) + 1
    baby = list(itertools.accumulate([h] * side, field.mul, initial=1))  # h^0..h^side
    giant = list(itertools.accumulate([baby[side]] * (side - 1), field.mul, initial=1))
    powers = field.array_ops.mul(np.array(giant)[:, None], np.array(baby[:side]))
    roots = np.sort(powers.ravel()[:n]).astype(np.int64)
    if not (roots[1:] > roots[:-1]).all():
        raise AssertionError("h must have multiplicative order n")
    return roots


def _least_of_order(field: Field, n: int) -> int:
    """The element z^((2^w - 1)/n) of the least z for which it has order exactly n
    (n | 2^w - 1): for a generator z it has, so some z < 2^w does.  Its order divides n,
    and is n unless its (n/q)-th power is 1 for some prime q | n."""
    primes = _prime_factors(n)
    for z in range(1, field.size):
        h = field.pow(z, field.order // n)
        if all(field.pow(h, n // q) != 1 for q in primes):
            return h
    raise AssertionError("multiplicative group of a finite field is cyclic")
