"""Naive reference implementations the library is tested against.

Everything here is written the slow, obvious way on purpose: carryless
multiply then reduce, exponentiation by squaring on big-int exponents
(never Frobenius composition), fiber counting with dict loops.  If the
library and this module agree, a shared bug would have to be duplicated
across two very different code paths.

:func:`derivative_table` and the array helpers beneath it are the
exception: they reuse the library's value table, and their exp/log arrays
are rebuilt here from the field's public ``generator`` and ``mul`` (the
library keeps its own table layout private), so they stay fast enough
for exhaustive loops.  They are independent of the collapsed linear form
only, not of the arithmetic.

:func:`span_kernel_sizes` is the span route the library's rank route
replaced: it spans every D_a from its basis images under the scalar
``eval_derivative_linear`` and counts zeros, O(4^w).
:func:`histogram_spectrum` is the histogram route the library's
definition route replaced: it bincounts F(x) + F(x + a) over every x for
every shift, O(4^w), and assumes nothing about the degree of F.
"""

import functools
from collections import Counter

import numpy as np

from apnforge.differential import value_table
from apnforge.hexanomial import eval_derivative_linear


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
    """(exp, log) int64 arrays from powers of the generator; exp is doubled."""
    exp = np.zeros(2 * field.order, dtype=np.int64)
    log = np.zeros(field.size, dtype=np.int64)
    v = 1
    for i in range(field.order):
        exp[i] = exp[i + field.order] = v
        log[v] = i
        v = field.mul(v, field.generator)
    exp.setflags(write=False)
    log.setflags(write=False)
    return exp, log


def frob_array(field, t):
    """x^(2^t) for every x, as an array."""
    exp, log = exp_log_tables(field)
    out = exp[(log[np.arange(field.size)] << (t % field.w)) % field.order]
    out[0] = 0
    return out


def mul_const(field, c, arr):
    """c * arr elementwise; exp is doubled so no reduction is needed."""
    if c == 0:
        return np.zeros_like(arr)
    exp, log = exp_log_tables(field)
    return np.where(arr == 0, 0, exp[log[c] + log[arr]])


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
    return {x for x in p.field.elements() if eval_derivative_linear(p, a, x) == 0}


def derivative_table(p, a):
    """D_a at every x through the defining form F(ax) + F(ax+a) + F(a)."""
    if a == 0:
        raise ValueError("derivative shift a must be nonzero")
    ftab = _ftab(p)
    ax = mul_const(p.field, a, np.arange(p.field.size))
    return ftab[ax] ^ ftab[ax ^ a] ^ ftab[a]


def derivative_table_linear(p, a):
    """D_a at every x, spanned over F_2 from its images of the basis X^0..X^(w-1)."""
    table = np.zeros(1, dtype=np.int64)
    for i in range(p.field.w):
        table = np.concatenate((table, table ^ eval_derivative_linear(p, a, 1 << i)))
    return table


def span_kernel_sizes(p):
    """|ker D_a| for every a (index 0 unused), by counting zeros of the spanned table."""
    size = p.field.size
    out = np.zeros(size, dtype=np.int64)
    for a in range(1, size):
        out[a] = int(np.count_nonzero(derivative_table_linear(p, a) == 0))
    return out
