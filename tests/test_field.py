"""Field core against the naive polynomial oracle and frozen constants."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from apnforge import field as field_module
from apnforge.field import (
    Field,
    FieldMismatchError,
    SizeLimitError,
    is_irreducible,
    least_irreducible,
    make_field,
    roots_of_unity,
)

# Least irreducible polynomial of every degree up to the cap, frozen from the
# trial-division scan.
LEAST_MODULI = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
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


def test_is_irreducible_agrees_with_trial_division():
    for f in range(1 << 13):
        assert is_irreducible(f) == oracle.irreducible_by_trial_division(f), hex(f)


def test_field_build_does_not_divide_its_modulus_again(monkeypatch):
    """least_irreducible(24) has tested the modulus; building the field on it tests
    nothing more, since is_irreducible is cached (each test takes its gcds in _poly_gcd;
    _poly_rem also squares the Frobenius table's columns)."""
    modulus = least_irreducible(24)
    divided = []
    gcd = field_module._poly_gcd
    monkeypatch.setattr(field_module, "_poly_gcd", lambda a, b: divided.append(b) or gcd(a, b))
    assert Field(24).modulus == modulus
    assert divided == []


def test_unity_roots_factor_only_their_order(monkeypatch):
    """Building F_{2^24} factors nothing, and its 4097-th roots of unity factor 4097 =
    17 * 241, never 2^24 - 1: they need no generator of the whole group."""
    factored = []
    factor = field_module._prime_factors
    monkeypatch.setattr(field_module, "_prime_factors", lambda n: factored.append(n) or factor(n))
    f = Field(24)
    roots = roots_of_unity(f, 4097)
    assert factored == [4097]
    assert len(roots) == 4097 and all(f.pow(z, 4097) == 1 for z in roots[::64])


def test_f16_single_reduction_example():
    f = make_field(4)
    assert f.mul(2, 8) == 3  # X * X^3 = X^4 = X + 1 mod X^4+X+1


def test_mul_matches_oracle_exhaustively():
    for w in (1, 2, 3, 4, 5, 6, 8):
        f = make_field(w)
        for x in range(f.size):
            for y in range(f.size):
                assert f.mul(x, y) == oracle.gfmul(x, y, f.modulus)


def test_mul_matches_oracle_above_table_range():
    """Sampled products at w = 17 and 24 against the big-int oracle: the scalar
    shift-and-reduce, and on the array view the byte-pair multiply (on a (k, 1) x (n,)
    broadcast) and times(k)."""
    for w, xs in [(17, [1, 2, 0x1F2A3, 0x0BEEF]), (24, [1, 2, 0xFEDCBA, 0x80FF01])]:
        f = make_field(w)
        xs += [oracle.generator(f.modulus), f.size - 1]
        expected = [[oracle.gfmul(x, y, f.modulus) for y in xs] for x in xs]
        assert [[f.mul(x, y) for y in xs] for x in xs] == expected
        column, row = np.array(xs)[:, None], np.array(xs)
        assert f.array_ops.mul(column, row).tolist() == expected
        assert [f.array_ops.times(x)(row).tolist() for x in xs] == expected
        assert f.mul(f.inv(xs[2]), xs[2]) == 1


def test_scalar_frobenius_is_an_int_matching_the_oracle_at_every_degree():
    """Every Frobenius at every w from 2 to the cap, on a few elements, against the
    big-int oracle, and always a Python int."""
    rng = random.Random(17)
    for w in range(2, 25):
        f = make_field(w)
        for x in [0, 1, f.size - 1] + [rng.randrange(f.size) for _ in range(6)]:
            for t in range(w + 1):
                y = f.frobenius(x, t)
                assert type(y) is int and y == oracle.gfpow(x, 1 << t, f.modulus), (w, x, t)


def test_scalar_field_on_int64_arrays_is_its_arithmetic_on_ints():
    """The scalar Field's shift-and-reduce, elementwise on int64 arrays, equals it on ints
    and the big-int oracle at every w from 1 to the cap: an array on either side of mul
    (an int factor 0 included), the (k, 1) x (n,) broadcast, times(k) and every
    Frobenius power."""
    rng = random.Random(24)
    for w in range(1, 25):
        f = make_field(w)
        xs, ys = ([0, 1, f.size - 1] + [rng.randrange(f.size) for _ in range(29)] for _ in "xy")
        x, y = np.array(xs), np.array(ys)
        products = [f.mul(u, v) for u, v in zip(xs, ys)]
        assert products == [oracle.gfmul(u, v, f.modulus) for u, v in zip(xs, ys)], w
        assert f.mul(x, y).dtype == np.int64 and f.mul(x, y).tolist() == products, w
        assert f.mul(x[:6, None], y).tolist() == [[f.mul(u, v) for v in ys] for u in xs[:6]]
        for k in (0, 1, ys[3]):
            by_k = [f.mul(k, u) for u in xs]
            assert f.mul(x, k).tolist() == f.mul(k, x).tolist() == f.times(k)(x).tolist() == by_k
        for t in range(w + 1):
            assert f.frobenius(x, t).tolist() == [f.frobenius(u, t) for u in xs], (w, t)


def test_clmul_table_holds_every_carryless_byte_product():
    table = field_module._clmul_table()
    assert table.dtype == np.uint16 and not table.flags.writeable
    assert table.tolist() == [oracle.clmul(u, v) for u in range(256) for v in range(256)]


def test_field_axioms_exhaustive_small():
    """Associativity/commutativity/distributivity, every triple, w <= 6."""
    for w in (1, 2, 3, 4, 6):
        f = make_field(w)
        size = f.size
        M = np.zeros((size, size), dtype=np.int64)
        for x in range(f.size):
            for y in range(f.size):
                M[x, y] = f.mul(x, y)
        assert (M == M.T).all()
        assert (M[0] == 0).all()
        assert (M[1] == np.arange(size)).all()
        # (x*y)*z == x*(y*z) via index gymnastics: both are size^3 tensors
        assert (M[M, :] == M[:, M].transpose(1, 0, 2)).all()
        xs = np.arange(size)
        xor = xs[:, None] ^ xs[None, :]
        for z in range(f.size):
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
        for x in range(f.size):
            assert f.frobenius(x, 0) == x
            assert f.frobenius(x, 1) == f.mul(x, x)
            assert f.frobenius(x, w) == x  # order-w automorphism
            assert f.frobenius(f.frobenius(x, 1), -1) == x  # negative t inverts
            assert f.frobenius(x, -1) == f.frobenius(x, w - 1)
            for t in range(2 * w):
                assert f.frobenius(x, t) == oracle.gfpow(x, 1 << t, f.modulus)


@pytest.mark.parametrize("w", [8, 16, 18, 24])
def test_frobenius_takes_one_exponent_per_element(w):
    """An int64 array t applies its own x -> x^(2^t) at each element, t = 0 and t >= w
    included, and broadcasts against x; the scalar call still returns an int."""
    f = make_field(w)
    rng = random.Random(w)
    xs = np.array([0, 1, f.size - 1] + [rng.randrange(f.size) for _ in range(9)], dtype=np.int64)
    ts = np.array([0, w, 3 * w - 1] + [rng.randrange(3 * w) for _ in range(9)], dtype=np.int64)
    expected = [oracle.gfpow(x, 1 << t, f.modulus) for x, t in zip(xs.tolist(), ts.tolist())]
    assert f.array_ops.frobenius(xs, ts).tolist() == expected
    grid = f.array_ops.frobenius(xs[:, None], np.arange(2 * w, dtype=np.int64))
    assert grid.tolist() == [[f.frobenius(x, t) for t in range(2 * w)] for x in xs.tolist()]
    assert type(f.frobenius(int(xs[4]), int(ts[4]))) is int


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
    assert sorted(x for x in range(f.size) if f.in_subfield(x, 2)) == [0, 1, 6, 7]


def test_in_subfield_counts_and_lattice():
    f = make_field(12)
    for d in (1, 2, 3, 4, 6, 12):
        members = [x for x in range(f.size) if f.in_subfield(x, d)]
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


def test_roots_of_unity_checks_the_order_of_its_root_under_python_O():
    """With the root's order wrong, roots_of_unity_array raises even when python -O strips
    asserts, instead of returning n copies of one element."""
    script = (
        "from apnforge import field\n"
        "field._least_of_order = lambda f, n: 1\n"
        "try:\n"
        "    print(field.roots_of_unity_array(field.make_field(8), 17).tolist())\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.stdout == "raised: h must have multiplicative order n\n", proc.stdout + proc.stderr


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
            v = f.mul(v, oracle.generator(f.modulus))
        assert len(seen) == f.order


def test_generator_is_least():
    # Least generator of F_16 mod X^4+X+1, frozen.
    assert oracle.generator(make_field(4).modulus) == 2
    f = make_field(6)
    for g in range(1, oracle.generator(f.modulus)):
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
        with pytest.raises(FieldMismatchError, match=f"^{bad:#x} is not an element"):
            f4.check(np.array([0, 3, bad, 1, 5]))
        with pytest.raises(FieldMismatchError):
            f4.mul(1, np.array([2, bad]))
    assert f4.check(np.array([0, 3, 2])).tolist() == [0, 3, 2]


def test_make_field_returns_cached_instance():
    assert make_field(4) is make_field(4)
    assert make_field(4) is make_field(4, 0x13)


def test_make_field_degree_cap():
    with pytest.raises(SizeLimitError):
        make_field(25)
    with pytest.raises(ValueError):
        make_field(0)


def test_array_view_refuses_results_past_int32():
    """A field past make_field's cap still builds and multiplies scalars, but its array
    view, whose results are int32, refuses w > 31 instead of overflowing."""
    f = Field(32)
    assert f.mul(f.size - 1, 2) == oracle.gfmul(f.size - 1, 2, f.modulus)
    with pytest.raises(SizeLimitError, match="w=32 exceeds 31"):
        f.array_ops
    g = Field(31)
    top = g.array_ops.mul(np.array([g.size - 1]), g.size - 1)
    assert top.dtype == np.int32 and top.tolist() == [oracle.gfmul(g.size - 1, g.size - 1, g.modulus)]


def test_degree_zero_is_refused():
    """No field has degree 0; the constant polynomial 1 is not irreducible either."""
    assert not is_irreducible(1)
    with pytest.raises(ValueError, match="field degree must be positive, got 0"):
        Field(0)
    with pytest.raises(ValueError, match="degree must be positive, got 0"):
        least_irreducible(0)


def test_modulus_validation():
    with pytest.raises(ValueError):
        make_field(4, 0x15)  # (X^2+X+1)^2
    with pytest.raises(ValueError):
        make_field(4, 0x12)  # zero constant term
    with pytest.raises(ValueError):
        make_field(4, 0x7)  # wrong degree


def test_negative_polynomials_are_rejected():
    """-0x13 has the degree and constant term of a modulus; reducing by it never ends."""
    with pytest.raises(ValueError, match="-0x13 is negative"):
        is_irreducible(-0x13)
    with pytest.raises(ValueError, match="-0x13 is negative"):
        Field(4, -0x13)
    with pytest.raises(ValueError, match="negative"):
        make_field(4, -0x13)


def test_alternative_modulus_changes_arithmetic():
    f = make_field(4, 0x19)  # X^4 + X^3 + 1
    assert f.modulus_hex == "19"
    assert f.mul(2, 8) == oracle.gfmul(2, 8, 0x19) == 9
    for x in range(f.size):
        for y in range(f.size):
            assert f.mul(x, y) == oracle.gfmul(x, y, 0x19)


def test_oracle_exp_log_tables_consistent():
    f = make_field(8)
    exp, log = oracle.exp_log_tables(f)
    assert exp.shape == (2 * f.order,)
    for x in range(1, f.size):
        assert exp[log[x]] == x
    g = oracle.generator(f.modulus)
    for i in (0, 1, 7, f.order - 1):
        assert exp[i] == exp[i + f.order] == oracle.gfpow(g, i, f.modulus)


@pytest.mark.parametrize("w", [8, 16, 24])
def test_gf2_reduce_is_the_same_on_int32_and_int64(w):
    """The oracle's elimination by leading bit in int32 and in int64 rows: seeded vectors
    of rank about w/2 with tags above bit w (within bit 30) give the same bases and residues."""
    rng = np.random.default_rng(w)
    gens = rng.integers(0, 1 << w, size=(w // 2, 300))
    picks = rng.integers(0, 2, size=(w + 6, w // 2, 1))
    low = np.bitwise_xor.reduce(gens * picks, axis=1)
    vectors = low | (1 << (w + np.arange(w + 6) % (31 - w)))[:, None]
    runs = []
    for dtype in (np.int32, np.int64):
        basis = np.zeros((w, 300), dtype=dtype)
        residues = list(oracle.gf2_reduce(vectors.astype(dtype), basis))
        runs.append((basis.astype(np.int64), np.array(residues, dtype=np.int64)))
    (basis32, res32), (basis64, res64) = runs
    assert np.array_equal(basis32, basis64) and np.array_equal(res32, res64)
    assert np.count_nonzero(basis64) and np.count_nonzero(res64)
