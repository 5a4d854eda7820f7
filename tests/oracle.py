"""Naive reference implementations the library is tested against.

Everything here is written the slow, obvious way on purpose: carryless
multiply then reduce, exponentiation by squaring on big-int exponents
(never Frobenius composition), fiber counting with dict loops.  If the
library and this module agree, a shared bug would have to be duplicated
across two very different code paths.

:class:`TableOps` is the exception: field ops by exp/log lookup, for
ints and arrays, with the arrays rebuilt here from the field's ``mul``
and this module's :func:`generator`, the least element of full order by
big-int powers.  The library multiplies scalars by
shift-and-reduce and arrays by byte-table gathers, so these tables are a
third arithmetic to hold both to, fast enough for exhaustive loops; :func:`derivative_table` also
reads the library's value table.  :func:`search_c` and
:func:`array_search_c` scan every candidate ``c`` against every unity
root, one pair at a time or a chunk of candidates at a time on the
tables, and :func:`vanishing_coeff_set` evaluates every candidate at
one root: the brute force the library's coset search replaced.

:func:`kernel_sizes` is the library's kernel route ranked on its own,
with no value table: the per-shift kernel sizes the library's one check
no longer computes apart.  :func:`per_shift_kernel_sizes` is the kernel
route the library's bilinear one replaced: it evaluates the collapsed
form of every D_a at X^0..X^(w-1), all shifts at once on the field's
array view, and ranks those images in int64 rows.  :func:`span_kernel_sizes` is the span
route the rank route replaced before that: it spans every D_a from its
basis images, computed for all shifts at once by the collapsed form on
the tables, and counts zeros, O(4^w).  :func:`histogram_spectrum` is
the histogram route the library's definition route replaced: it
bincounts F(x) + F(x + a) over every x for every shift, O(4^w), and
assumes nothing about the degree of F.  :func:`anf_degree` is the
degree certificate the library's image-by-image route comparison
replaced: a binary Moebius transform of a value table.
:func:`gf2_reduce` is the elimination by leading bit, w steps per
vector, that the library's c search replaced with its insertion-order
one; :func:`eliminate` is the elimination the library's bit-plane one
replaced: :func:`gf2_reduce` over int rows, one column per shift, fed
the images B(a, X^i) that :func:`bilinear_images` reads off F on the
tables.
:func:`ddt_by_definition` is the DDT count the library's coset rows
replaced: it gathers F(x + a) + F(x) for every cell of a block of rows
and bincounts them, again assuming nothing about the degree of F.
"""

import functools
from collections import Counter

import numpy as np

from apnforge import bitplanes
from apnforge.compatibility import eval_compat_poly
from apnforge.differential import bilinear_planes, value_table
from apnforge.field import roots_of_unity
from apnforge.hexanomial import (
    bilinear_coeffs,
    collapsed_form,
    eval_derivative_linear,
    hexanomial_form,
)


def deg(p):
    return p.bit_length() - 1


def clmul(a, b):
    acc = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            acc ^= a << i
        i += 1
    return acc


def polyrem(p, m):
    while deg(p) >= deg(m):
        p ^= m << (deg(p) - deg(m))
    return p


def gfmul(a, b, mod):
    return polyrem(clmul(a, b), mod)


def gfpow(x, e, mod):
    """x**e by square-and-multiply; e may be a huge int, no order tricks."""
    acc = 1
    while e:
        if e & 1:
            acc = gfmul(acc, x, mod)
        x = gfmul(x, x, mod)
        e >>= 1
    return acc


def gfinv(x, mod):
    return gfpow(x, (1 << deg(mod)) - 2, mod)


def irreducible_by_trial_division(f):
    n = deg(f)
    if n <= 0:
        return False
    return all(polyrem(f, g) != 0 for g in range(2, 1 << (n // 2 + 1)))


def irreducible_by_products(f):
    """f is reducible iff it is a product of two smaller polynomials."""
    n = deg(f)
    if n <= 0:
        return False
    for dg in range(1, n // 2 + 1):
        for g in range(1 << dg, 1 << (dg + 1)):
            for h in range(1 << (n - dg), 1 << (n - dg + 1)):
                if clmul(g, h) == f:
                    return False
    return True


def prime_factors(n):
    """The distinct primes dividing n, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] * (n > 1)


@functools.lru_cache(maxsize=None)
def generator(mod):
    """The least z of multiplicative order 2^w - 1: z^(order/q) != 1 for each prime q."""
    order = (1 << deg(mod)) - 1
    primes = prime_factors(order)
    return next(
        z for z in range(1, order + 1) if all(gfpow(z, order // q, mod) != 1 for q in primes)
    )


def unity_roots(mod, n):
    """Scan route: every nonzero z with z^n = 1."""
    size = 1 << deg(mod)
    return sorted(z for z in range(1, size) if gfpow(z, n, mod) == 1)


def subfield(mod, d):
    """Every x with x^(2^d) = x."""
    size = 1 << deg(mod)
    return sorted(x for x in range(size) if gfpow(x, 1 << d, mod) == x)


def hexanomial(m, n, c, d, x, mod):
    """F(x) with every exponent fed to big-int exponentiation."""
    r, s = 1 << m, 1 << n
    mul = lambda a, b: gfmul(a, b, mod)
    po = lambda b, e: gfpow(b, e, mod)
    return (
        mul(x, po(x, s) ^ po(x, r) ^ mul(c, po(x, r * s)))
        ^ mul(po(x, s), mul(po(c, r), po(x, r)) ^ mul(d, po(x, r * s)))
        ^ po(x, (s + 1) * r)
    )


def derivative(m, n, c, d, a, x, mod):
    ax = gfmul(a, x, mod)
    return (
        hexanomial(m, n, c, d, ax, mod)
        ^ hexanomial(m, n, c, d, ax ^ a, mod)
        ^ hexanomial(m, n, c, d, a, mod)
    )


def compat_poly(m, n, c, y, mod):
    r, s = 1 << m, 1 << n
    return (
        gfpow(y, s + 1, mod)
        ^ gfmul(c, gfpow(y, s, mod), mod)
        ^ gfmul(gfpow(c, r, mod), y, mod)
        ^ 1
    )


def fiber_histogram(m, n, c, d, a, mod):
    """{fiber size: #b} for x -> F(x) + F(x+a), the dict-loop way."""
    size = 1 << deg(mod)
    fibers = Counter(
        hexanomial(m, n, c, d, x, mod) ^ hexanomial(m, n, c, d, x ^ a, mod)
        for x in range(size)
    )
    hist = Counter(fibers.values())
    hist[0] = size - len(fibers)
    return {t: cnt for t, cnt in hist.items() if cnt}


@functools.lru_cache(maxsize=None)
def exp_log_tables(field):
    """(exp, log) int64 arrays from powers of :func:`generator`; exp is doubled."""
    exp = np.zeros(2 * field.order, dtype=np.int64)
    log = np.zeros(field.size, dtype=np.int64)
    v, g = 1, generator(field.modulus)
    for i in range(field.order):
        exp[i] = exp[i + field.order] = v
        log[v] = i
        v = field.mul(v, g)
    exp.setflags(write=False)
    log.setflags(write=False)
    return exp, log


class TableOps:
    """Field ops by exp/log lookup, for ints and int arrays alike: the reference the
    library's scalar and array arithmetic are held to.  exp is doubled, so mul needs
    no reduction of the summed logs; times(k) is mul with k fixed."""

    def __init__(self, field):
        self.w, self.order = field.w, field.order
        self.exp, self.log = exp_log_tables(field)

    def mul(self, x, y):
        return self.exp[self.log[x] + self.log[y]] * ((x != 0) & (y != 0))

    def frobenius(self, x, t=1):
        return self.exp[(self.log[x] << (t % self.w)) % self.order] * (x != 0)

    def times(self, k):
        return functools.partial(self.mul, k)


def search_c(field, m, n):
    """The scalar scan, one c and one unity root at a time on the tables: (first
    compatible c or None, number of candidates examined)."""
    ops = TableOps(field)
    roots = roots_of_unity(field, (1 << m) + 1)
    for c in range(field.size):
        if all(eval_compat_poly(ops, m, n, c, y) != 0 for y in roots):
            return c, c + 1
    return None, field.size


def array_search_c(field, m, n):
    """The same scan on arrays, a chunk of candidates against every unity root at once
    (about 2^16 pairs), fast enough for the exhausted rows up to m = 8."""
    ops = TableOps(field)
    roots = np.array(roots_of_unity(field, (1 << m) + 1))
    step = max(1, (1 << 16) // len(roots))
    for lo in range(0, field.size, step):
        cs = np.arange(lo, min(lo + step, field.size))
        ok = (eval_compat_poly(ops, m, n, cs[:, None], roots) != 0).all(axis=1)
        if ok.any():
            c = lo + int(ok.argmax())
            return c, c + 1
    return None, field.size


def vanishing_coeff_set(field, m, n, y):
    """Every c with P(c, y) = 0, by evaluating all 2^w candidates on the tables."""
    values = eval_compat_poly(TableOps(field), m, n, np.arange(field.size), y)
    return set(np.flatnonzero(values == 0).tolist())


@functools.lru_cache(maxsize=8)
def _ftab(p):
    """value_table as a read-only array, cached for the per-shift loops below."""
    tab = value_table(p)
    tab.setflags(write=False)
    return tab


def histogram_spectrum(p):
    """{a: {fiber size: #b}} for x -> F(x) + F(x + a), every a != 0, by bincount."""
    size = p.field.size
    ftab = _ftab(p)
    xs = np.arange(size)
    hists = {}
    for a in range(1, size):
        shape = np.bincount(np.bincount(ftab ^ ftab[xs ^ a], minlength=size))
        hists[a] = {int(t): int(cnt) for t, cnt in enumerate(shape) if cnt}
    return hists


def derivative_kernel(p, a):
    """Exhaustive kernel of D_a; always contains F_{2^k} as a subset."""
    return {x for x in range(p.field.size) if eval_derivative_linear(p, a, x) == 0}


def derivative_table(p, a):
    """D_a at every x through the defining form F(ax) + F(ax+a) + F(a)."""
    if a == 0:
        raise ValueError("derivative shift a must be nonzero")
    ftab = _ftab(p)
    ax = TableOps(p.field).mul(a, np.arange(p.field.size))
    return ftab[ax] ^ ftab[ax ^ a] ^ ftab[a]


def _span(images):
    """The F_2-linear map with the given basis images, at every x in canonical order."""
    table = np.zeros(1, dtype=np.int64)
    for image in images:
        table = np.concatenate((table, table ^ image))
    return table


@functools.lru_cache(maxsize=8)
def derivative_images(p):
    """D_a(X^i) = B(a, a X^i), i < w, for every shift at once, from B's coefficients on
    the table ops; row a - 1 holds the w images of shift a."""
    ops = TableOps(p.field)
    shifts = np.arange(1, p.field.size)[:, None]
    basis = 1 << np.arange(p.field.w)
    images = collapsed_form(ops, p, bilinear_coeffs(ops, p, shifts), ops.mul(shifts, basis))
    images.setflags(write=False)
    return images


def derivative_table_linear(p, a):
    """D_a at every x, spanned over F_2 from its images of the basis X^0..X^(w-1)."""
    if a == 0:
        raise ValueError("derivative shift a must be nonzero")
    return _span(derivative_images(p)[a - 1])


def span_kernel_sizes(p):
    """|ker D_a| for every a (index 0 unused), by counting zeros of the spanned table."""
    out = np.zeros(p.field.size, dtype=np.int64)
    for a in range(1, p.field.size):
        out[a] = int(np.count_nonzero(derivative_table_linear(p, a) == 0))
    return out


def kernel_sizes(p):
    """|ker B(a, .)| = 2^(w - rank) for every a (index 0 unused): the library's kernel
    route on its own, its planes ranked with no value table in sight."""
    ranks = bitplanes.ranks(bitplanes.echelon(bilinear_planes(p))).astype(np.int64)
    out = np.left_shift(1, p.field.w - ranks)
    out[0] = 0
    return out


def per_shift_kernel_sizes(p):
    """|ker D_a| = 2^(w - rank) for every a (index 0 unused), from the images
    D_a(X^i) = B(a, a X^i) for every shift, eliminated in int64 rows."""
    w, ops = p.field.w, p.field.array_ops
    shifts = np.arange(1, p.field.size, dtype=np.int64)
    coeffs = bilinear_coeffs(ops, p, shifts)
    images = (collapsed_form(ops, p, coeffs, ops.mul(shifts, 1 << i)) for i in range(w))
    basis = np.zeros((w, p.field.size - 1), dtype=np.int64)
    for _ in gf2_reduce(images, basis):
        pass
    out = np.zeros(p.field.size, dtype=np.int64)
    out[1:] = np.left_shift(1, w - np.count_nonzero(basis, axis=0))
    return out


def bilinear_images(p):
    """images[i, a] = B(a, X^i) = F(a + X^i) + F(a) + F(X^i) + F(0) at every a, int64
    (w, 2^w), with F on the table ops."""
    ops = TableOps(p.field)
    shifts, basis = np.arange(p.field.size), 1 << np.arange(p.field.w)[:, None]

    def F(x):
        return hexanomial_form(ops, p, x)

    return F(shifts ^ basis) ^ F(shifts) ^ F(basis) ^ F(0)


def gf2_reduce(vectors, basis):
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


def eliminate(images):
    """(2^(w - rank) at every shift, index 0 unused; the echelon basis of each shift's
    span, row b leading at bit b or 0) from the (w, 2^w) images of every shift, by
    gf2_reduce in int rows, one shift per column."""
    basis = np.zeros_like(images)
    for _ in gf2_reduce(images, basis):
        pass
    kernels = np.left_shift(1, len(basis) - np.count_nonzero(basis, axis=0))
    kernels[0] = 0
    return kernels, basis


def anf_degree(table):
    """Algebraic degree of the map with this value table over 2^w points: the largest
    weight of a monomial in its algebraic normal form, by the binary Moebius transform
    (-1 for the zero map)."""
    anf = np.array(table, dtype=np.int64)
    for i in range(len(anf).bit_length() - 1):
        halves = anf.reshape(-1, 2, 1 << i)
        halves[:, 1] ^= halves[:, 0]
    return max((u.bit_count() for u in np.flatnonzero(anf).tolist()), default=-1)


def ddt_by_definition(p, lo, hi):
    """DDT rows lo..hi-1, delta(a, b) = #{x : F(x + a) + F(x) = b}, int32: one gather of
    F(x + a) per cell and one bincount over the block, offset by row."""
    size, ftab = p.field.size, _ftab(p)
    a = np.arange(lo, hi)[:, None]
    cells = ftab[np.arange(size) ^ a] ^ ftab
    cells += (a - lo) * size
    return np.bincount(cells.ravel(), minlength=cells.size).astype(np.int32).reshape(-1, size)
