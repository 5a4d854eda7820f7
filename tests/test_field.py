"""Field core against the naive polynomial oracle and frozen constants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from apnforge.field import (
    Field,
    FieldMismatchError,
    SizeLimitError,
    is_irreducible,
    least_irreducible,
    make_field,
    roots_of_unity,
)

# Least irreducible polynomial per degree, frozen from the oracle scan.
LEAST_MODULI = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    6: 0x43,
    8: 0x11B,
    10: 0x409,
    12: 0x1009,
}


def test_least_irreducible_frozen_table():
    for w, mod in LEAST_MODULI.items():
        assert least_irreducible(w) == mod


def test_least_irreducible_is_actually_least():
    """Every smaller same-degree candidate factors, per the product oracle."""
    for w in range(1, 9):
        mod = least_irreducible(w)
        assert oracle.irreducible_by_products(mod)
        for f in range((1 << w) + 1, mod, 2):
            assert not oracle.irreducible_by_products(f)


def test_is_irreducible_agrees_with_product_oracle():
    for f in range(2, 1 << 9):
        assert is_irreducible(f) == oracle.irreducible_by_products(f)


def test_f16_single_reduction_example():
    f = make_field(4)
    assert f.mul(2, 8) == 3  # X * X^3 = X^4 = X + 1 mod X^4+X+1


def test_mul_matches_oracle_exhaustively():
    for w in (1, 2, 3, 4, 5, 6, 8):
        f = make_field(w)
        for x in f.elements():
            for y in f.elements():
                assert f.mul(x, y) == oracle.gfmul(x, y, f.modulus)


def test_mul_matches_oracle_above_table_range():
    """w = 17 has no log/exp tables, exercising the shift-and-reduce path."""
    f = make_field(17)
    xs = [1, 2, 0x1F2A3, 0x0BEEF, f.generator, f.size - 1]
    for x in xs:
        for y in xs:
            assert f.mul(x, y) == oracle.gfmul(x, y, f.modulus)
    assert f.mul(f.inv(0x1F2A3), 0x1F2A3) == 1
    # Above the tables every Frobenius is the linear map on the precomputed basis images.
    rng = random.Random(17)
    for w in (17, 24):
        f = make_field(w)
        for x in [f.size - 1] + [rng.randrange(f.size) for _ in range(8)]:
            for t in range(w):
                assert f.frobenius(x, t) == oracle.gfpow(x, 1 << t, f.modulus), (w, x, t)


def test_field_axioms_exhaustive_small():
    """Associativity/commutativity/distributivity, every triple, w <= 6."""
    for w in (1, 2, 3, 4, 6):
        f = make_field(w)
        size = f.size
        M = np.zeros((size, size), dtype=np.int64)
        for x in f.elements():
            for y in f.elements():
                M[x, y] = f.mul(x, y)
        assert (M == M.T).all()
        assert (M[0] == 0).all()
        assert (M[1] == np.arange(size)).all()
        # (x*y)*z == x*(y*z) via index gymnastics: both are size^3 tensors
        assert (M[M, :] == M[:, M].transpose(1, 0, 2)).all()
        xs = np.arange(size)
        xor = xs[:, None] ^ xs[None, :]
        for z in f.elements():
            assert (M[xor, z] == (M[:, z][:, None] ^ M[:, z][None, :])).all()


def test_inverses():
    for w in (1, 2, 3, 4, 6, 8):
        f = make_field(w)
        for x in range(1, f.size):
            assert f.mul(x, f.inv(x)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_pow_edge_cases():
    f = make_field(4)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 7) == 0
    assert f.pow(5, 0) == 1
    assert f.pow(5, f.order + 3) == f.pow(5, 3)
    with pytest.raises(ValueError):
        f.pow(3, -1)


@given(st.integers(1, 10), st.data())
@settings(max_examples=150, deadline=None)
def test_pow_matches_bigint_oracle(w, data):
    f = make_field(w)
    x = data.draw(st.integers(0, f.size - 1))
    e = data.draw(st.integers(0, 1 << 40))
    if x == 0 and e == 0:
        return
    assert f.pow(x, e) == oracle.gfpow(x, e, f.modulus)


def test_frobenius_is_iterated_squaring():
    for w in (2, 3, 4, 6):
        f = make_field(w)
        for x in f.elements():
            assert f.frobenius(x, 0) == x
            assert f.frobenius(x, 1) == f.mul(x, x)
            assert f.frobenius(x, w) == x  # order-w automorphism
            assert f.frobenius(f.frobenius(x, 1), -1) == x  # negative t inverts
            assert f.frobenius(x, -1) == f.frobenius(x, w - 1)
            for t in range(2 * w):
                assert f.frobenius(x, t) == oracle.gfpow(x, 1 << t, f.modulus)


def test_frobenius_is_additive_and_multiplicative():
    f = make_field(6)
    for x in range(0, f.size, 5):
        for y in range(0, f.size, 7):
            for t in (1, 2, 3):
                assert f.frobenius(x ^ y, t) == f.frobenius(x, t) ^ f.frobenius(y, t)
                assert f.frobenius(f.mul(x, y), t) == f.mul(
                    f.frobenius(x, t), f.frobenius(y, t)
                )


def test_in_subfield_frozen_f4_inside_f16():
    f = make_field(4)
    assert sorted(x for x in f.elements() if f.in_subfield(x, 2)) == [0, 1, 6, 7]


def test_in_subfield_counts_and_lattice():
    f = make_field(12)
    for d in (1, 2, 3, 4, 6, 12):
        members = [x for x in f.elements() if f.in_subfield(x, d)]
        assert len(members) == 1 << d
        assert members == oracle.subfield(f.modulus, d)
    with pytest.raises(ValueError):
        f.in_subfield(3, 5)
    with pytest.raises(ValueError):
        f.in_subfield(3, 0)


def test_roots_of_unity_frozen():
    f = make_field(4)
    assert roots_of_unity(f, 1) == [1]
    assert roots_of_unity(f, 3) == [1, 6, 7]
    assert roots_of_unity(f, 5) == [1, 8, 10, 12, 15]
    assert roots_of_unity(f, 15) == list(range(1, 16))


def test_roots_of_unity_matches_scan_and_is_a_group():
    for w, n in [(4, 5), (6, 9), (8, 17), (10, 33)]:
        f = make_field(w)
        mu = roots_of_unity(f, n)
        assert mu == oracle.unity_roots(f.modulus, n)
        members = set(mu)
        for z in mu:
            assert f.inv(z) in members
            assert f.mul(z, mu[1 % len(mu)]) in members


def test_roots_of_unity_rejects_non_divisors():
    f = make_field(4)
    with pytest.raises(ValueError):
        roots_of_unity(f, 4)
    with pytest.raises(ValueError):
        roots_of_unity(f, 0)


def test_generator_spans_nonzero_elements():
    for w in (1, 2, 4, 6):
        f = make_field(w)
        seen = set()
        v = 1
        for _ in range(f.order):
            seen.add(v)
            v = f.mul(v, f.generator)
        assert len(seen) == f.order


def test_generator_is_least():
    # Least generator of F_16 mod X^4+X+1, frozen from the oracle.
    assert make_field(4).generator == 2
    f = make_field(6)
    for g in range(1, f.generator):
        assert len({oracle.gfpow(g, e, f.modulus) for e in range(f.order)}) < f.order


def test_element_hex_padding_and_roundtrip():
    f = make_field(6)
    assert f.element_hex(5) == "05"
    assert f.element_hex(63) == "3f"
    assert f.element_from_hex("3f") == 63
    f24 = make_field(24)
    assert f24.element_hex(1) == "000001"
    assert make_field(10).modulus_hex == "409"
    with pytest.raises(FieldMismatchError, match="0x40 is not an element"):
        f.element_from_hex("40")


@given(st.integers(1, 12), st.data())
@settings(max_examples=100, deadline=None)
def test_hex_roundtrip(w, data):
    f = make_field(w)
    x = data.draw(st.integers(0, f.size - 1))
    s = f.element_hex(x)
    assert len(s) == (w + 3) // 4
    assert f.element_from_hex(s) == x


def test_field_mismatch_is_detected():
    f4 = make_field(2)
    for bad in (4, -1, 1 << 20):
        with pytest.raises(FieldMismatchError):
            f4.mul(bad, 1)
        with pytest.raises(FieldMismatchError):
            f4.frobenius(bad, 1)


def test_make_field_returns_cached_instance():
    assert make_field(4) is make_field(4)
    assert make_field(4) is make_field(4, 0x13)


def test_make_field_degree_cap():
    with pytest.raises(SizeLimitError):
        make_field(25)
    with pytest.raises(SizeLimitError):
        make_field(8, degree_cap=6)
    with pytest.raises(ValueError):
        make_field(0)


def test_modulus_validation():
    with pytest.raises(ValueError):
        make_field(4, 0x15)  # (X^2+X+1)^2
    with pytest.raises(ValueError):
        make_field(4, 0x12)  # zero constant term
    with pytest.raises(ValueError):
        make_field(4, 0x7)  # wrong degree


def test_alternative_modulus_changes_arithmetic():
    f = make_field(4, 0x19)  # X^4 + X^3 + 1
    assert f.modulus_hex == "19"
    assert f.mul(2, 8) == oracle.gfmul(2, 8, 0x19) == 9
    for x in f.elements():
        for y in f.elements():
            assert f.mul(x, y) == oracle.gfmul(x, y, 0x19)


def test_oracle_exp_log_tables_consistent():
    f = make_field(8)
    exp, log = oracle.exp_log_tables(f)
    assert exp.shape == (2 * f.order,)
    for x in range(1, f.size):
        assert exp[log[x]] == x
    for i in (0, 1, 7, f.order - 1):
        assert exp[i] == exp[i + f.order] == oracle.gfpow(f.generator, i, f.modulus)
