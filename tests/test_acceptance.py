"""Acceptance gate: one test per criterion, one printed verdict line each.

The verdict lines bypass pytest capture so a plain ``pytest -v`` run
shows them live.  Each test also asserts, so a FAIL line always comes
with a failing test.
"""

import random
import time

import numpy as np
import pytest

from apnforge.compatibility import (
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
from apnforge.differential import (
    _coset_histogram,
    cross_check_spectrum,
    derivative_spectrum,
    is_apn,
    is_t_to_one,
    value_table,
)
from apnforge.field import make_field, roots_of_unity
from apnforge.hexanomial import (
    BCParams,
    bilinear_coeffs,
    collapsed_form,
    default_d,
    derivative_form,
)
from oracle import TableOps, derivative_table, derivative_table_linear

SEED = 0x5EED


@pytest.fixture
def announce(capsys):
    def _line(num, ok, detail):
        with capsys.disabled():
            print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, f"criterion {num}: {detail}"

    return _line


def resolved_params(m, n, c=None):
    f = make_field(2 * m)
    if c is None:
        c = find_compatible_c(m, n, f)
        if c is None:
            c = 0
    return BCParams(m=m, n=n, field=f, c=c, d=default_d(f, m))


def test_criterion_1_sweep_matches_predicate(announce):
    """Existence of compatible c equals the closed-form criterion, 72 pairs."""
    t0 = time.perf_counter()
    rows = sweep_reports(range(1, 7), range(1, 13))
    elapsed = time.perf_counter() - t0
    mismatches = [(r.m, r.n) for r in rows if not r.consistent]
    ok = len(rows) == 72 and not mismatches and elapsed < 10.0
    announce(
        1,
        ok,
        f"sweep m=1..6, n=1..12: {len(rows)} pairs, "
        f"{len(mismatches)} mismatches, {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_divisibility_equivalence(announce):
    bad = [
        (m, n)
        for m in range(1, 65)
        for n in range(1, 65)
        if divisibility_criterion(m, n)[0] != divisibility_criterion(m, n)[1]
    ]
    announce(2, not bad, f"(2^m+1) | (2^n+1) iff n/m odd integer, all m,n <= 64: "
                         f"{4096 - len(bad)}/4096 agree")


def test_criterion_3_apn_and_four_to_one_end_to_end(announce):
    apn_pairs = [(2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (2, 3), (3, 4)]
    four_pairs = [(4, 2), (6, 4)]
    t0 = time.perf_counter()
    failures = []
    for m, n in apn_pairs:
        if not is_apn(resolved_params(m, n)):
            failures.append((m, n))
    for m, n in four_pairs:
        if not is_t_to_one(resolved_params(m, n), 4):
            failures.append((m, n))
    elapsed = time.perf_counter() - t0
    announce(
        3,
        not failures,
        f"searched c + canonical d: {len(apn_pairs)} APN pairs with fibers {{0,2}}, "
        f"{len(four_pairs)} pairs with fibers {{0,4}}, failures {failures}, {elapsed:.1f}s",
    )


def test_criterion_4_uniform_fibers_when_ratio_is_integer(announce):
    pairs = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 4), (3, 3)]
    failures = []
    for m, n in pairs:
        f = make_field(2 * m)
        d = default_d(f, m)
        for c in range(min(5, f.size)):  # first canonical coefficients
            p = BCParams(m=m, n=n, field=f, c=c, d=d)
            if not is_t_to_one(p, 1 << m):
                failures.append((m, n, c))
    announce(
        4,
        not failures,
        f"m | n pairs {pairs}: every tested c gives 2^m-to-one fibers, failures {failures}",
    )


def test_criterion_5_r_equal_two_always_fails(announce):
    f4 = make_field(2)
    mu3 = roots_of_unity(f4, 3)
    detail = []
    ok = True
    for n in (1, 2, 3):
        failing = [
            c
            for c in range(f4.size)
            if any(eval_compat_poly(f4, 1, n, c, y) == 0 for y in mu3)
        ]
        ok &= failing == [0, 1, 2, 3] and not any(
            is_compatible_c(c, 1, n) for c in range(f4.size)
        )
        detail.append(f"n={n}: {len(failing)}/4")
    announce(5, ok, "r=2: every c in F_4 has a root among the cube roots of unity "
                     f"({', '.join(detail)})")


def _multiplicative_order(f, y, bound):
    v, t = y, 1
    while v != 1:
        v = f.mul(v, y)
        t += 1
        if t > bound:
            raise AssertionError("order above subgroup bound")
    return t


def test_criterion_6_witness_structure(announce):
    t0 = time.perf_counter()
    checked = 0
    failures = []
    for m in range(2, 6):
        r = 1 << m
        f = make_field(2 * m)
        subfield_r = {x for x in range(f.size) if f.in_subfield(x, m)}
        mu = roots_of_unity(f, r + 1)
        structured = subfield_r | set(mu)
        for n in range(1, 13):
            s = 1 << n
            if (s - 1) % (r + 1) == 0 or (s + 1) % (r + 1) == 0:
                continue
            union = set()
            for y in mu:
                X = vanishing_coeff_set(y, m, n, f)
                union |= X
                if y == 1:
                    continue
                ws = witnesses(y, m, n, f)
                hits = X & structured
                needed = 3 if _multiplicative_order(f, y, r + 1) == r + 1 else 2
                if (
                    not set(ws) <= hits
                    or len(hits) < needed
                    or any(eval_compat_poly(f, m, n, wv, y) for wv in ws)
                ):
                    failures.append((m, n, y))
            if len(union) >= r * r:
                failures.append((m, n, "union"))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    announce(
        6,
        ok,
        f"witnesses on {checked} non-degenerate (m,n) pairs, m=2..5: >=2 structured "
        f"roots per y (>=3 for primitive y), union < r^2; failures {failures}; "
        f"{elapsed:.2f}s (budget 30s)",
    )


def _identity_failures_exhaustive(p):
    f = p.field
    size = f.size
    xs = np.arange(size)
    scalars = [x for x in range(f.size) if f.in_subfield(x, p.k)]
    spec = derivative_spectrum(p)
    cross_check_spectrum(p, spec)
    ops = TableOps(f)
    frob_r = ops.frobenius(xs, p.m)
    conj_base = ops.frobenius(xs ^ frob_r, p.n)  # (x + x^r)^s
    dd = p.d ^ f.frobenius(p.d, p.m)
    failures = []
    for a in range(1, size):
        dv = derivative_table_linear(p, a)
        if not (dv == derivative_table(p, a)).all():
            failures.append((a, "forms"))
        if not (dv[xs[:, None] ^ xs[None, :]] == (dv[:, None] ^ dv[None, :])).all():
            failures.append((a, "additivity"))
        for lam in scalars:
            if lam < 2:
                continue
            if not (dv[ops.mul(lam, xs)] == ops.mul(lam, dv)).all():
                failures.append((a, "scaling", lam))
        a_srs = f.mul(f.frobenius(a, p.n), f.frobenius(a, p.m + p.n))
        if not ((dv ^ frob_r[dv]) == ops.mul(f.mul(dd, a_srs), conj_base)).all():
            failures.append((a, "conjugate"))
    return failures


def _identity_failures_sampled(p, rng, samples):
    """The exhaustive identities on seeded (a, x, z, lambda) samples, all evaluated at once
    through the library's generic forms on the field's array view."""
    f, ops = p.field, p.field.array_ops
    size = f.size
    scalars = [x for x in range(f.size) if f.in_subfield(x, p.k)]
    dd = p.d ^ f.frobenius(p.d, p.m)
    draws = [
        (rng.randrange(1, size), rng.randrange(size), rng.randrange(size), rng.choice(scalars))
        for _ in range(samples)
    ]
    a, x, z, lam = np.array(draws, dtype=np.int64).T
    coeffs = bilinear_coeffs(ops, p, a)

    def linear(x):  # D_a(x) = B(a, a x)
        return collapsed_form(ops, p, coeffs, ops.mul(a, x))

    dx = linear(x)
    a_srs = ops.mul(ops.frobenius(a, p.n), ops.frobenius(a, p.m + p.n))
    conj = ops.mul(ops.mul(dd, a_srs), ops.frobenius(x ^ ops.frobenius(x, p.m), p.n))
    bad = {
        "forms": dx != derivative_form(ops, p, a, x),
        "additivity": linear(x ^ z) != dx ^ linear(z),
        "scaling": linear(ops.mul(lam, x)) != ops.mul(lam, dx),
        "conjugate": dx ^ ops.frobenius(dx, p.m) != conj,
    }
    failures = [draws[i] + (tag,) for tag, hits in bad.items() for i in np.flatnonzero(hits)]
    # kernel-vs-histogram agreement on sampled shifts
    ftab = value_table(p)
    xs = np.arange(size)
    for a in rng.sample(range(1, size), 50):
        fibers = np.bincount(ftab ^ ftab[xs ^ a], minlength=size)
        hist = {int(t): int(c) for t, c in enumerate(np.bincount(fibers)) if c}
        kernel = int(np.count_nonzero(derivative_table_linear(p, a) == 0))
        if hist != _coset_histogram(size, kernel):
            failures.append((a, "kernel-histogram"))
    return failures


def test_criterion_7_identity_suite(announce):
    rng = random.Random(SEED)
    failures = []
    exhaustive_pairs = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    for m, n in exhaustive_pairs:
        resolved = resolved_params(m, n)
        second_c = 1 if resolved.c != 1 else 2
        for p in (resolved, resolved_params(m, n, c=second_c)):
            failures += _identity_failures_exhaustive(p)
    sampled_pairs = [(5, 2), (5, 4), (6, 1), (6, 4)]
    for m, n in sampled_pairs:
        failures += _identity_failures_sampled(resolved_params(m, n), rng, 10_000)
    announce(
        7,
        not failures,
        f"forms/linearity/conjugate/cross-check: exhaustive on {len(exhaustive_pairs)} "
        f"pairs (2m <= 8), 10^4 seeded samples on {sampled_pairs}; {len(failures)} failures",
    )


def test_criterion_8_bc_family_always_compatible(announce):
    t0 = time.perf_counter()
    rows = [compat_report(m, 1) for m in range(3, 13)]
    elapsed = time.perf_counter() - t0
    bad = [r.m for r in rows if not (r.exists_c and r.predicate and r.consistent)]
    announce(
        8,
        not bad,
        f"(r, s) = (2^m, 2) family: compatible c found for every m = 3..12 "
        f"(fields up to degree 24), failures {bad}, {elapsed:.2f}s",
    )
