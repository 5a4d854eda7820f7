"""Hexanomial evaluation and derivative structure vs the big-exponent oracle."""

import contextlib
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from apnforge import cli
from apnforge.compatibility import (
    compat_report,
    find_compatible_c,
    is_compatible_c,
    vanishing_coeff_set,
    witnesses,
)
from apnforge.field import FieldMismatchError, make_field
from apnforge.hexanomial import (
    BCParams,
    bilinear_coeffs,
    collapsed_form,
    default_d,
    derivative_coeffs,
    derivative_form,
    eval_derivative,
    eval_derivative_linear,
    eval_hexanomial,
)


def params(m, n, c, d=None):
    f = make_field(2 * m)
    return BCParams(m=m, n=n, field=f, c=c, d=d if d is not None else default_d(f, m))


SMALL = [params(2, 1, 9), params(2, 1, 2), params(2, 2, 1), params(1, 2, 3), params(3, 2, 3)]


def test_value_at_zero_and_one():
    for p in SMALL:
        f = p.field
        assert eval_hexanomial(p, 0) == 0
        cr = f.frobenius(p.c, p.m)
        assert eval_hexanomial(p, 1) == p.c ^ cr ^ p.d ^ 1


def test_frozen_value():
    assert eval_hexanomial(params(2, 1, 9, 2), 1) == 4


def test_matches_bigint_exponent_oracle():
    for p in SMALL:
        for x in range(p.field.size):
            assert eval_hexanomial(p, x) == oracle.hexanomial(
                p.m, p.n, p.c, p.d, x, p.field.modulus
            )


def test_derivative_forms_agree_everywhere():
    for p in SMALL:
        for a in range(1, p.field.size):
            for x in range(p.field.size):
                direct = eval_derivative(p, a, x)
                assert direct == eval_derivative_linear(p, a, x)
                assert direct == oracle.derivative(p.m, p.n, p.c, p.d, a, x, p.field.modulus)


def test_derivative_invariant_under_shift_by_one():
    """D_a(x + 1) = D_a(x): substituting x -> x+1 swaps the two F terms."""
    for p in SMALL:
        for a in range(1, p.field.size):
            for x in range(p.field.size):
                assert eval_derivative(p, a, x ^ 1) == eval_derivative(p, a, x)


def conjugate_difference_sides(p, a, x):
    """Both sides of D_a(x) + D_a(x)^r = (d + d^r) a^(s+rs) (x + x^r)^s."""
    f = p.field
    v = eval_derivative_linear(p, a, x)
    lhs = v ^ f.frobenius(v, p.m)
    dd = p.d ^ f.frobenius(p.d, p.m)
    a_srs = f.mul(f.frobenius(a, p.n), f.frobenius(a, p.m + p.n))
    rhs = f.mul(f.mul(dd, a_srs), f.frobenius(x ^ f.frobenius(x, p.m), p.n))
    return lhs, rhs


def test_conjugate_difference_identity():
    """The identity that forces kernels into F_r; checked as equality of both sides."""
    for p in SMALL:
        for a in range(1, p.field.size):
            for x in range(p.field.size):
                lhs, rhs = conjugate_difference_sides(p, a, x)
                assert lhs == rhs


def test_derivative_rejects_zero_shift():
    p = SMALL[0]
    with pytest.raises(ValueError):
        eval_derivative(p, 0, 3)
    with pytest.raises(ValueError):
        derivative_coeffs(p, 0)


def test_derivative_vanishes_on_subfield_of_linearity():
    """F_{2^k}, k = gcd(m, n), always sits inside the kernel."""
    for p in SMALL:
        fu = [x for x in range(p.field.size) if p.field.in_subfield(x, p.k)]
        assert len(fu) == p.u
        for a in range(1, p.field.size):
            ker = oracle.derivative_kernel(p, a)
            assert set(fu) <= ker


def test_derivative_is_additive():
    p = params(2, 1, 9)
    for a in range(1, p.field.size):
        vals = [eval_derivative_linear(p, a, x) for x in range(p.field.size)]
        for x in range(p.field.size):
            for z in range(p.field.size):
                assert vals[x ^ z] == vals[x] ^ vals[z]


def test_derivative_scales_over_gcd_subfield():
    p = params(2, 2, 7)  # k = 2, so scalars run over F_4
    f = p.field
    scalars = [x for x in range(f.size) if f.in_subfield(x, p.k)]
    for a in (1, 5, 9, 14):
        for lam in scalars:
            for x in range(f.size):
                assert eval_derivative_linear(p, a, f.mul(lam, x)) == f.mul(
                    lam, eval_derivative_linear(p, a, x)
                )


def test_kernel_is_a_subspace_over_gcd_subfield():
    """Kernels are closed under addition and under F_{2^k} scaling."""
    for p in [params(2, 1, 9), params(2, 2, 7), params(3, 3, 4)]:
        f = p.field
        scalars = [x for x in range(f.size) if f.in_subfield(x, p.k)]
        for a in (1, 3, f.size - 1):
            ker = oracle.derivative_kernel(p, a)
            assert {x ^ z for x in ker for z in ker} <= ker
            assert {f.mul(lam, x) for lam in scalars for x in ker} <= ker


def test_kernel_lands_in_subfield_r():
    """Conjugate-difference consequence: kernels live inside F_{2^m}, any c."""
    for p in SMALL:
        f = p.field
        for a in range(1, f.size):
            for x in oracle.derivative_kernel(p, a):
                assert f.in_subfield(x, p.m)


def test_frozen_kernels_for_apn_instance():
    p = params(2, 1, 9, 2)
    for a in range(1, 16):
        assert oracle.derivative_kernel(p, a) == {0, 1}


def test_gcd_derived_properties():
    assert params(2, 1, 9).u == 2
    assert params(2, 2, 1).u == 4
    assert params(3, 2, 3).k == 1
    p = params(2, 2, 1)
    assert (p.r, p.s) == (4, 4)


def test_default_d_is_polynomial_x():
    """X generates the whole field, so it is never in a proper subfield."""
    for m in (1, 2, 3, 4, 5, 6):
        f = make_field(2 * m)
        assert default_d(f, m) == 2
        assert not f.in_subfield(2, m)
    with pytest.raises(ValueError):
        default_d(make_field(4), 1)


def test_params_validation():
    f16 = make_field(4)
    with pytest.raises(ValueError):
        BCParams(m=2, n=1, field=f16, c=1, d=6)  # d inside F_4
    with pytest.raises(ValueError):
        BCParams(m=3, n=1, field=f16, c=1, d=2)  # field degree mismatch
    with pytest.raises(ValueError):
        BCParams(m=2, n=0, field=f16, c=1, d=2)
    with pytest.raises(FieldMismatchError):
        BCParams(m=2, n=1, field=f16, c=99, d=2)


def _raised(call):
    """An entry point's refusal: the words of the ValueError it raises."""

    def refusal(m, n):
        with pytest.raises(ValueError) as info:
            call(m, n)
        return str(info.value)

    return refusal


def _cli(*argv):
    """The CLI's refusal: exit 2, nothing on stdout, one line 'error: <words>' on stderr."""

    def refusal(m, n):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.format(m=m, n=n) for arg in argv])
        assert (code, out.getvalue()) == (cli.EXIT_USAGE, "")
        line = err.getvalue()
        assert line.startswith("error: ") and line.endswith("\n") and line.count("\n") == 1
        return line[len("error: ") : -1]

    return refusal


F16 = make_field(4)  # of degree 2m for m = 2 only

# Every entry point that takes an instance (m, n), handed F16 where it takes a field.
INSTANCE_ENTRY_POINTS = {
    "BCParams": _raised(lambda m, n: BCParams(m=m, n=n, field=F16, c=0, d=2)),
    "BCParams.from_dict": _raised(
        lambda m, n: BCParams.from_dict(
            {"m": m, "n": n, "c_hex": "0", "d_hex": "2", "modulus_hex": "13"}
        )
    ),
    "default_d": _raised(lambda m, n: default_d(F16, m)),
    "find_compatible_c": _raised(lambda m, n: find_compatible_c(m, n, F16)),
    "is_compatible_c": _raised(lambda m, n: is_compatible_c(0, m, n, F16)),
    "compat_report": _raised(lambda m, n: compat_report(m, n, F16)),
    "vanishing_coeff_set": _raised(lambda m, n: vanishing_coeff_set(8, m, n, F16)),
    "witnesses": _raised(lambda m, n: witnesses(8, m, n, F16)),
    "cli verify": _cli("verify", "--m", "{m}", "--n", "{n}"),
    "cli witness": _cli("witness", "--m", "{m}", "--n", "{n}", "--y", "1"),
}

BAD_INSTANCES = {
    (0, 1): "m, n must be positive, got (0, 1)",
    (2, 0): "m, n must be positive, got (2, 0)",
    (3, 1): "field degree 4 does not match 2m = 6",
}

# default_d takes no n.  The CLI builds the field of degree 2m itself, and from_dict
# builds it from the params' modulus, so a modulus of the wrong degree is the field's
# own refusal.
NOT_TAKEN = {("default_d", 2, 0), ("cli verify", 3, 1), ("cli witness", 3, 1)}
OWN_WORDS = {("BCParams.from_dict", 3, 1): "modulus 0x13 has degree 4, expected 6"}


@pytest.mark.parametrize(
    "entry, m, n",
    [
        (entry, m, n)
        for entry in INSTANCE_ENTRY_POINTS
        for m, n in BAD_INSTANCES
        if (entry, m, n) not in NOT_TAKEN
    ],
)
def test_every_instance_entry_point_refuses_with_the_same_words(entry, m, n):
    words = OWN_WORDS.get((entry, m, n), BAD_INSTANCES[m, n])
    assert INSTANCE_ENTRY_POINTS[entry](m, n) == words


def test_params_dict_roundtrip():
    p = params(3, 2, 5)
    d = p.to_dict()
    assert d == {"m": 3, "n": 2, "c_hex": "05", "d_hex": "02", "modulus_hex": "43"}
    q = BCParams.from_dict(d)
    assert q == p and q.field is p.field


@given(st.sampled_from(SMALL), st.data())
@settings(max_examples=200, deadline=None)
def test_forms_agree_sampled(p, data):
    a = data.draw(st.integers(1, p.field.size - 1))
    x = data.draw(st.integers(0, p.field.size - 1))
    assert eval_derivative(p, a, x) == eval_derivative_linear(p, a, x)


def test_forms_agree_sampled_at_cap_degree():
    """10^4 fixed-seed samples at the w = 24 construction cap (no log tables there), both
    forms in the scalar Field, each in one call on the samples' int64 arrays."""
    p = params(12, 1, 3)
    rng = random.Random(0x5EED)
    size = p.field.size
    a, x = np.array([(rng.randrange(1, size), rng.randrange(size)) for _ in range(10_000)]).T
    f = p.field
    linear = collapsed_form(f, p, bilinear_coeffs(f, p, a), f.mul(a, x))  # B(a, a x)
    assert (derivative_form(f, p, a, x) == linear).all()
