"""Spectrum/DDT verification, including the two-route cross-check."""

import dataclasses
import json
import random

import numpy as np
import pytest

import oracle
from apnforge import bitplanes, differential, hexanomial
from apnforge.differential import (
    CrossCheckError,
    DerivativeSpectrum,
    cross_check_spectrum,
    ddt,
    ddt_to_csv,
    derivative_spectrum,
    is_apn,
    is_t_to_one,
    spectrum_report,
    value_table,
)
from apnforge.compatibility import compatibility_predicate, find_compatible_c
from apnforge.field import Field, SizeLimitError, make_field
from apnforge.hexanomial import BCParams, default_d, eval_hexanomial


def params(m, n, c, d=None):
    f = make_field(2 * m)
    return BCParams(m=m, n=n, field=f, c=c, d=d if d is not None else default_d(f, m))


APN_21 = params(2, 1, 9, 2)


def test_value_table_matches_pointwise():
    tab = value_table(APN_21)
    assert tab.dtype == np.int32
    assert tab.tolist() == [eval_hexanomial(APN_21, x) for x in range(16)]


def test_value_table_matches_oracles_at_large_w():
    """Every x at w = 14 and 16 against F on the oracle's table ops; 2000 seeded x against
    the big-int oracle at w = 18."""
    for p in [params(7, 2, 3), params(8, 1, 5)]:
        xs = np.arange(p.field.size)
        assert (value_table(p) == hexanomial.hexanomial_form(oracle.TableOps(p.field), p, xs)).all()
    p = params(9, 4, 7)
    tab = value_table(p)
    for x in random.Random(18).sample(range(p.field.size), 2000):
        assert tab[x] == oracle.hexanomial(p.m, p.n, p.c, p.d, x, p.field.modulus), x


def test_spectrum_frozen_apn_instance():
    spec = derivative_spectrum(APN_21)
    assert spec.kernels.tolist() == [0] + [2] * 15
    for a in range(1, 16):
        assert spec.histogram(a) == {0: 8, 2: 8}
    assert spec.max_count == 2
    assert spec.uniform_fiber_size() == 2
    assert spec.collapsed_summary() == [
        {"histogram": {"0": 8, "2": 8}, "count_a": 15}
    ]


@pytest.mark.parametrize("a", [0, -1, 64])
def test_histogram_refuses_shift_outside_the_field(a):
    spec = derivative_spectrum(params(3, 2, 3))  # w = 6: shifts 1..63
    with pytest.raises(ValueError, match=rf"a={a}\b.*1\.\.63"):
        spec.histogram(a)


def test_spectrum_matches_naive_oracle():
    for p in [APN_21, params(2, 2, 5), params(1, 2, 3), params(2, 1, 0)]:
        spec = derivative_spectrum(p)
        for a in range(1, p.field.size):
            assert spec.histogram(a) == oracle.fiber_histogram(
                p.m, p.n, p.c, p.d, a, p.field.modulus
            )


def test_spectrum_counts_add_up():
    for p in [APN_21, params(3, 2, 3), params(2, 1, 1)]:
        size = p.field.size
        spec = derivative_spectrum(p)
        for hist in map(spec.histogram, range(1, size)):
            assert sum(hist.values()) == size  # one bucket per b
            assert sum(t * cnt for t, cnt in hist.items()) == size  # one slot per x


def test_attained_fiber_sizes_are_even():
    """x and x+a pair up, compatible or not."""
    for c in range(4):
        p = params(2, 1, c)
        spec = derivative_spectrum(p)
        for a in range(1, p.field.size):
            assert all(t % 2 == 0 for t in spec.histogram(a))


def test_incompatible_c_observed_spectrum():
    # Frozen observation: every c outside the compatible set for (2, 1)
    # shows mixed fibers {2, 4}; recorded as data, not a guaranteed property.
    for c in (0, 1, 2, 3):
        p = params(2, 1, c)
        spec = derivative_spectrum(p)
        attained = {t for a in range(1, 16) for t in spec.histogram(a) if t}
        assert attained == {2, 4}
        assert spec.max_count == 4
        assert spec.uniform_fiber_size() is None
        assert not is_apn(p)
        cross_check_spectrum(p, spec)  # the two routes agree even off-theorem


def test_kernel_route_matches_exhaustive_kernels():
    for p in [APN_21, params(2, 2, 5), params(2, 1, 3), params(1, 1, 2)]:
        ks = oracle.kernel_sizes(p)
        for a in range(1, p.field.size):
            assert ks[a] == len(oracle.derivative_kernel(p, a))


def _assert_routes_match_oracles(p):
    """Value table vs F on the oracle's table ops and of ANF degree 2, kernel route vs
    span oracle, definition route vs kernel route and histogram oracle."""
    xs = np.arange(p.field.size)
    assert (value_table(p) == hexanomial.hexanomial_form(oracle.TableOps(p.field), p, xs)).all()
    assert oracle.anf_degree(value_table(p)) == 2, p.to_dict()
    ks = oracle.kernel_sizes(p)
    assert (ks == oracle.span_kernel_sizes(p)).all(), p.to_dict()
    assert (ks == oracle.per_shift_kernel_sizes(p)).all(), p.to_dict()
    spec = derivative_spectrum(p)
    assert (spec.kernels == ks).all(), p.to_dict()
    hists = oracle.histogram_spectrum(p)
    assert all(spec.histogram(a) == hists[a] for a in range(1, p.field.size)), p.to_dict()
    return ks


def test_rank_route_matches_span_route():
    """Every c for six (m, n) pairs (480 instances), plus one instance at w = 10 and 12."""
    seen = set()
    for m, n in [(2, 1), (3, 1), (3, 2), (4, 2), (2, 2), (3, 3)]:
        for c in range(make_field(2 * m).size):
            ks = _assert_routes_match_oracles(params(m, n, c))
            seen.add(frozenset(ks[1:].tolist()))
    assert seen == {frozenset(s) for s in ({2}, {4}, {8}, {2, 4}, {2, 8}, {4, 16})}
    for p in [params(5, 2, 3), params(6, 1, 2)]:
        _assert_routes_match_oracles(p)


@pytest.mark.parametrize(
    "m, n, c, sizes",
    [
        (6, 2, 5, {4, 64}),
        (6, 4, 0, None),
        (6, 3, 0, None),
        (3, 3, 0, None),
        (5, 5, 7, None),
        (8, 1, None, {2}),
    ],
)
def test_kernel_route_matches_per_shift_oracle(m, n, c, sizes):
    """The bilinear kernel route against the per-shift collapsed form it replaced, on
    mixed kernels, gcd > 1 and w = 16 (the compatible c, which is APN)."""
    p = params(m, n, find_compatible_c(m, n, make_field(2 * m)) if c is None else c)
    ks = oracle.kernel_sizes(p)
    assert (ks == oracle.per_shift_kernel_sizes(p)).all(), p.to_dict()
    if sizes is not None:
        assert set(ks[1:].tolist()) == sizes


@pytest.mark.parametrize("m, n, c", [(2, 1, 9), (3, 2, 5), (6, 1, 2), (6, 4, 0), (8, 3, 7)])
def test_kernel_route_images_are_bilinear(m, n, c):
    """Row X^j of the kernel route's unpacked planes is
    B(X^j, X^.) = F(X^j + X^.) + F(X^j) + F(X^.) with F on the oracle's table ops, and the
    images built by doubling over the bits of seeded shifts a are B(a, X^.) as well."""
    p = params(m, n, c)
    ops = oracle.TableOps(p.field)

    def F(x):
        return hexanomial.hexanomial_form(ops, p, x)

    planes = differential.bilinear_planes(p)
    w = p.field.w
    assert planes.dtype == np.uint64 and planes.shape == (w, w, max(1, p.field.size >> 6))
    assert not (planes & ~bitplanes.valid(w)).any()  # no bits past shift 2^w - 1
    images = bitplanes.unpack(planes)
    basis = 1 << np.arange(p.field.w)
    tensor = images[:, basis].T  # tensor[j, i] = B(X^j, X^i)
    assert (tensor == F(basis[:, None] ^ basis) ^ F(basis[:, None]) ^ F(basis)).all()
    rng = random.Random(2 * m)
    a = np.array([rng.randrange(1, p.field.size) for _ in range(200)])[:, None]
    assert (images[:, a[:, 0]].T == F(a ^ basis) ^ F(a) ^ F(basis)).all()


def test_kernel_route_never_reads_the_value_table(monkeypatch):
    def must_not_run(*args, **kwargs):
        pytest.fail("the kernel route read F's value table")

    p = params(5, 2, 3)
    monkeypatch.setattr(differential, "value_table", must_not_run)
    assert (oracle.kernel_sizes(p) == oracle.per_shift_kernel_sizes(p)).all()


def test_array_ops_match_field_ops():
    """The array view's gathers against two independent arithmetics: every pair at w <= 8
    against the oracle's exp/log tables; at every w from 1 to 24, seeded samples against
    the big-int oracle and the scalar Field, which multiplies by shift-and-reduce (on the
    samples' int64 arrays in one call); and
    2000 seeded samples at w = 16 (tables), 18 and 24 (big-int).  The samples cover the
    byte-pair multiply and times(k) on equal shapes, on the c search's (k, 1) x (n,)
    broadcast, with a Python int on either side, and on non-contiguous views
    (_check_table's reversed reshape), and every Frobenius power."""
    for w in range(1, 9):
        f = make_field(w)
        ops, ref = f.array_ops, oracle.TableOps(f)
        xs = np.arange(f.size)
        for y in range(f.size):
            assert (ops.mul(xs, y) == ref.mul(xs, y)).all()
            assert (ops.times(y)(xs) == ref.mul(xs, y)).all()
        for t in range(2 * w):
            assert (ops.frobenius(xs, t) == ref.frobenius(xs, t)).all()
    rng = random.Random(7)
    for w in range(1, 25):
        f = make_field(w)
        ops = f.array_ops

        def mul(x, y):
            return oracle.gfmul(x, y, f.modulus)

        xs, ys = ([0, 1, f.size - 1] + [rng.randrange(f.size) for _ in range(125)] for _ in "xy")
        x, y, k = np.array(xs), np.array(ys), ys[3]
        products = [mul(u, v) for u, v in zip(xs, ys)]
        assert ops.mul(x, y).tolist() == products == f.mul(x, y).tolist(), w
        assert ops.mul(x[:8, None], y).tolist() == [[mul(u, v) for v in ys] for u in xs[:8]], w
        by_k = [mul(k, u) for u in xs]
        assert ops.mul(k, x).tolist() == ops.mul(x, k).tolist() == ops.times(k)(x).tolist() == by_k
        assert ops.times(k)(x[:8, None]).tolist() == [[v] for v in by_k[:8]]
        # F(a + X^i) at every a in _check_table: the halves of each block of 2^(i+1) swapped
        swapped, y3 = x.reshape(-1, 2, 4)[:, ::-1], y.reshape(-1, 2, 4)
        assert not swapped.flags.c_contiguous
        expected = swapped.ravel().tolist()
        assert ops.mul(swapped, y3).ravel().tolist() == [mul(u, v) for u, v in zip(expected, ys)]
        assert ops.times(k)(swapped).ravel().tolist() == [mul(k, u) for u in expected]
        powers = expected  # x^(2^t), squared once per t
        for t in range(w + 1):
            if t:
                powers = [mul(u, u) for u in powers]
            assert ops.frobenius(swapped, t).ravel().tolist() == powers, (w, t)
    rng = np.random.default_rng(7)
    for w in (16, 18, 24):
        f = make_field(w)
        ops = f.array_ops
        xs, ys = rng.integers(0, f.size, size=(2, 2000))
        pairs = list(zip(xs.tolist(), ys.tolist()))
        mul = oracle.TableOps(f).mul if w == 16 else lambda x, y: oracle.gfmul(x, y, f.modulus)
        assert ops.mul(xs, ys).tolist() == [mul(x, y) for x, y in pairs]
        powers = xs.tolist()  # x^(2^t), squared once per t
        for t in range(1, w):
            powers = [mul(x, x) for x in powers]
            if t in (1, w // 2 + 1, w - 1):
                assert ops.frobenius(xs, t).tolist() == powers, (w, t)


def test_derivative_tables_agree_and_match_scalar():
    for p in [APN_21, params(2, 2, 5), params(3, 1, 2)]:
        for a in range(1, p.field.size):
            lin = oracle.derivative_table_linear(p, a)
            dfn = oracle.derivative_table(p, a)
            assert (lin == dfn).all()
            assert lin[0] == 0 and lin[1] == 0


def test_tables_agree_exhaustively_at_top_desk_size():
    """Defining form vs collapsed linear form, every (a, x), up to w = 12."""
    for p in [params(6, 1, 2), params(6, 4, 3)]:
        for a in range(1, p.field.size):
            assert (oracle.derivative_table(p, a) == oracle.derivative_table_linear(p, a)).all()


def test_translation_histograms_match_derivative_histograms():
    """Fiber sizes of D_a and of x -> F(x)+F(x+a) coincide up to relabeling of b."""
    for p in [APN_21, params(2, 2, 5), params(3, 1, 2), params(1, 3, 1)]:
        size = p.field.size
        ftab = value_table(p)
        xs = np.arange(size)
        for a in range(1, size):
            rescaled = np.bincount(oracle.derivative_table_linear(p, a), minlength=size)
            plain = np.bincount(ftab ^ ftab[xs ^ a], minlength=size)
            assert (np.sort(rescaled) == np.sort(plain)).all()


def test_uniform_fibers_for_every_compatible_pair_on_grid():
    """Every compatible (m, n) with 2m <= 12, n <= 12 yields 2^k-to-one derivatives."""
    for m in range(1, 7):
        for n in range(1, 13):
            c = find_compatible_c(m, n)
            assert (c is not None) == compatibility_predicate(m, n)
            if c is None:
                continue
            f = make_field(2 * m)
            p = BCParams(m=m, n=n, field=f, c=c, d=default_d(f, m))
            assert is_t_to_one(p, p.u)


def test_r_to_one_for_five_canonical_c_when_m_divides_n():
    """For m | n any c works and fibers have size r; first five c in canonical order."""
    pairs = [(m, n) for m in range(1, 7) for n in range(m, 13, m)]
    for m, n in pairs:
        f = make_field(2 * m)
        for c in range(min(5, f.size)):
            p = BCParams(m=m, n=n, field=f, c=c, d=default_d(f, m))
            assert p.u == p.r
            assert is_t_to_one(p, p.r)


def test_cross_check_raises_on_tampered_histogram():
    bad = derivative_spectrum(APN_21).kernels.copy()
    bad[3] = 4
    with pytest.raises(CrossCheckError, match="shift a=0x3"):
        cross_check_spectrum(APN_21, dataclasses.replace(derivative_spectrum(APN_21), kernels=bad))


def test_definition_route_refuses_a_non_quadratic_table(monkeypatch):
    """x^7 has algebraic degree 3, and F off by the cubic monomial x0 x1 x2 agrees with F
    at every x of weight <= 2: both are refused instead of a verdict, the second at the
    first shift where a derivative of the table stops being affine."""
    p = params(4, 1, 0)
    x7 = [p.field.pow(x, 7) for x in range(p.field.size)]
    monkeypatch.setattr(differential, "value_table", lambda p: np.array(x7))
    with pytest.raises(CrossCheckError):
        derivative_spectrum(p)
    with pytest.raises(CrossCheckError):
        is_apn(p)
    xs = np.arange(p.field.size)  # the test module's value_table is still the library's
    cubic = value_table(p) ^ ((xs & 7) == 7)
    assert oracle.anf_degree(cubic) == 3
    monkeypatch.setattr(differential, "value_table", lambda p: cubic)
    with pytest.raises(CrossCheckError, match="shift a=0x6, basis X\\^0: "):
        derivative_spectrum(p)
    with pytest.raises(CrossCheckError, match="shift a="):
        is_apn(p)


@pytest.mark.parametrize("bad, named", [((0x28,), 0x28), ((0x28, 0x81), 0x81)])
def test_table_off_by_one_bit_at_weight_2_names_the_point(monkeypatch, bad, named):
    """The weight <= 2 check, one call on all 37 points at w = 8, names the first bad x in
    the order 0, then X^i + X^j for i <= j: X^0 + X^7 = 0x81 comes before X^3 + X^5."""
    p = params(4, 1, 3)
    orig = differential.value_table

    def off_by_one_bit(p):
        table = orig(p)
        table[list(bad)] ^= 1 << 5
        return table

    monkeypatch.setattr(differential, "value_table", off_by_one_bit)
    with pytest.raises(CrossCheckError, match=f"value table disagrees with F at x={named:#x}$"):
        derivative_spectrum(p)


def test_weight_2_check_never_reads_the_array_view(monkeypatch):
    """The scalar side of the weight <= 2 check is the scalar Field alone: on a field whose
    array view is never built, the check still certifies the table."""
    p = params(4, 1, 3)
    ftab, planes = value_table(p), differential.bilinear_planes(p)
    offsets = derivative_spectrum(p).offsets
    monkeypatch.setattr(Field, "array_ops", property(lambda f: pytest.fail("read the array view")))
    q = dataclasses.replace(p, field=Field(8))
    assert np.array_equal(differential._check_table(q, ftab, planes), offsets)


def test_definition_route_refuses_a_table_off_by_an_affine_map(monkeypatch):
    """F(x) + x is still quadratic; only the weight <= 2 points tie the table to F."""
    p = params(2, 1, 9)
    orig = differential.value_table
    monkeypatch.setattr(differential, "value_table", lambda p: orig(p) ^ np.arange(p.field.size))
    with pytest.raises(CrossCheckError, match="value table disagrees with F at x=0x1"):
        derivative_spectrum(p)
    with pytest.raises(CrossCheckError):
        is_apn(p)


def test_is_apn_raises_when_kernel_route_disagrees(monkeypatch):
    def all_ones(p):
        return np.full((p.field.w, p.field.w, 1), np.iinfo(np.uint64).max, dtype=np.uint64)

    monkeypatch.setattr(differential, "bilinear_planes", all_ones)
    with pytest.raises(
        CrossCheckError, match="shift a=0x0, basis X\\^0: value table 0x0 vs kernel route 0xf$"
    ):
        is_apn(APN_21)


def swap_images_at_shift_4(planes):
    """The kernel route's planes with B(4, X^0) and B(4, X^1) swapped: bit 4 of word 0."""
    moved = (planes[0, :, 0] ^ planes[1, :, 0]) & np.uint64(1 << 4)
    planes[0, :, 0] ^= moved
    planes[1, :, 0] ^= moved
    return planes


def test_a_rank_preserving_image_swap_is_refused(monkeypatch):
    """Swapping two of the kernel route's images at one shift keeps every rank, so
    comparing the routes' kernel sizes misses it; comparing their images does not."""
    orig = differential.bilinear_planes

    def swapped(p):
        return swap_images_at_shift_4(orig(p))

    images = bitplanes.unpack(swapped(APN_21))
    reference = bitplanes.unpack(orig(APN_21))
    assert images[:, 4].tolist() == reference[[1, 0, 2, 3], 4].tolist()
    assert np.array_equal(np.delete(images, 4, axis=1), np.delete(reference, 4, axis=1))
    ranks = differential._kernels(bitplanes.echelon(swapped(APN_21)))
    assert (ranks == oracle.kernel_sizes(APN_21)).all()
    monkeypatch.setattr(differential, "bilinear_planes", swapped)
    with pytest.raises(CrossCheckError, match="shift a=0x4, basis X\\^0: "):
        is_apn(APN_21)


def test_derivative_spectrum_runs_each_check_once(monkeypatch):
    """One call is the whole check: one value table, one spot check, one elimination,
    and no second route ranked for comparison."""
    calls = dict.fromkeys(["value_table", "_spot_check", "echelon", "cross_check_spectrum"], 0)
    for name in calls:
        module = bitplanes if name == "echelon" else differential
        orig = getattr(module, name)

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(module, name, counted)
    derivative_spectrum(params(3, 2, 3))
    assert calls == {"value_table": 1, "_spot_check": 1, "echelon": 1, "cross_check_spectrum": 0}


@pytest.mark.parametrize("entry", [is_apn, derivative_spectrum, ddt])
def test_every_verdict_runs_the_spot_check(monkeypatch, entry):
    """B's coefficients wrong only at shifts of Hamming weight >= 2 pass the table check,
    since the kernel route evaluates them at the basis shifts X^j alone; only the spot
    check sees them, in the library's verdict, spectrum and whole-table DDT alike.  It
    names the first bad sample: the seeded generator's 64000 bits in one draw, as 32-bit
    words, a then y, reduced into 1..15 and 0..15; b0 off by 1 moves B(a, y) by y."""
    words = np.frombuffer(random.Random(0).getrandbits(64000).to_bytes(8000, "little"), "<u4")
    samples = [(int(a) % 15 + 1, int(y) % 16) for a, y in words.reshape(-1, 2)]
    a, y = next((a, y) for a, y in samples if a.bit_count() > 1 and y)
    orig = hexanomial.bilinear_coeffs

    def wrong_above_weight_1(f, p, a):
        b0, *rest = orig(f, p, a)
        return (b0 ^ (np.bitwise_count(a) > 1), *rest)

    monkeypatch.setattr(hexanomial, "bilinear_coeffs", wrong_above_weight_1)
    with pytest.raises(CrossCheckError, match=f"forms disagree at a={a:#x}, y={y:#x}$"):
        entry(APN_21)


def test_wrong_linear_form_fails_the_cross_check(monkeypatch):
    """The kernel route reads D_a through the collapsed form the spot check validates."""
    monkeypatch.setattr(hexanomial, "collapsed_form", lambda f, p, coeffs, x: x)
    with pytest.raises(CrossCheckError, match="shift a="):
        is_apn(APN_21)


def test_library_verdicts_build_no_report(monkeypatch):
    def must_not_run(*args, **kwargs):
        pytest.fail("a library verdict built a report")

    monkeypatch.setattr(differential, "spectrum_report", must_not_run)
    assert is_apn(APN_21)


def test_is_t_to_one_verdicts():
    assert is_t_to_one(APN_21, 2)
    assert not is_t_to_one(APN_21, 4)
    assert not is_t_to_one(APN_21, 1)  # fibers pair x with x+a, so never injective
    assert is_apn(APN_21)
    p22 = params(2, 2, 1)
    assert is_t_to_one(p22, 4)
    assert not is_apn(p22)
    with pytest.raises(ValueError):
        is_t_to_one(APN_21, 3)
    with pytest.raises(ValueError):
        is_t_to_one(APN_21, 0)


def test_apn_for_every_c_when_m_is_one():
    f4 = make_field(2)
    for n in (1, 2, 3):
        for c in range(f4.size):
            assert is_apn(params(1, n, c))


def test_spectrum_cap():
    p = params(9, 1, 0, 2)
    with pytest.raises(SizeLimitError):
        derivative_spectrum(p)
    with pytest.raises(SizeLimitError):
        derivative_spectrum(APN_21, degree_cap=2)
    assert derivative_spectrum(APN_21, degree_cap=4).max_count == 2


def test_ddt_structure():
    table = ddt(APN_21)
    size = 16
    assert table.shape == (size, size)
    assert table[0, 0] == size and (table[0, 1:] == 0).all()
    assert (table.sum(axis=1) == size).all()
    assert table[1:].max() == 2  # APN: off-zero rows hold only 0s and 2s
    spec = derivative_spectrum(APN_21)
    for a in range(1, size):
        hist = {int(t): int(c) for t, c in zip(*np.unique(table[a], return_counts=True))}
        assert hist == spec.histogram(a)


def test_ddt_cap():
    p = params(7, 1, 0, 2)
    with pytest.raises(SizeLimitError):
        ddt(p)


def test_ddt_stream_refuses_w_above_16_before_the_first_block():
    """The stream's residues are '<u2', so above w = 16 they would lose bits: at (9, 1)
    row a = 0x17a62 came out with 2^18 nonzero cells summing to 2^19, not 2^17 and 2^18."""
    spec = derivative_spectrum(params(9, 1, find_compatible_c(9, 1)), 18)
    for stream in (differential.ddt_blocks, differential.ddt_csv_blocks):
        with pytest.raises(SizeLimitError, match="DDT stream for w=18 exceeds cap 16"):
            stream(spec)


@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_ddt_blocks_match_the_definition(monkeypatch, block_rows):
    """delta(a, b) = #{x : F(x + a) + F(x) = b} counted point by point on the oracle's F,
    and its CSV joined cell by cell; blocks of 1 and 3 rows put edges mid-table."""
    p = params(3, 2, 5)  # not 2^k-to-one: counts of several widths
    size = p.field.size
    f = [oracle.hexanomial(p.m, p.n, p.c, p.d, x, p.field.modulus) for x in range(size)]
    expected = np.zeros((size, size), dtype=np.int32)
    for a in range(size):
        for x in range(size):
            expected[a, f[x ^ a] ^ f[x]] += 1
    if block_rows is not None:
        monkeypatch.setattr(differential, "_DDT_BLOCK_CELLS", block_rows * size)
    blocks = list(differential.ddt_blocks(derivative_spectrum(p)))
    assert all(b.dtype == np.int32 for b in blocks)
    if block_rows is not None:
        assert [len(b) for b in blocks[:-1]] == [block_rows] * (len(blocks) - 1)
    assert (np.concatenate(blocks) == expected).all()
    assert (ddt(p) == expected).all()
    assert len(set(expected.ravel().tolist())) > 2
    lines = "".join(",".join(map(str, row)) + "\n" for row in expected.tolist())
    assert ddt_to_csv(expected) == lines
    assert b"".join(map(differential.csv_block, blocks)) == lines.encode()


DDT_GRID = [
    (3, 2, 5),  # counts of several widths
    (6, 2, 5),  # kernel sizes 4 and 64 mixed
    (4, 2, None),  # gcd 2: every kernel of size 4
    (3, 3, 0),  # n/m odd: no compatible c, 8-to-one
    (6, 1, None),  # the benchmark's w = 12 instance
]


@pytest.mark.parametrize(
    "m, n, c", DDT_GRID + [(1, 1, 0), (5, 5, 0), (6, 3, 5), (8, 4, 3)]  # gcd 5 and 3; w = 16
)
def test_plane_elimination_matches_gf2_reduce(m, n, c):
    """The elimination on bit-planes against gf2_reduce in int rows over the oracle's
    images B(a, X^i), which the kernel route's planes unpack to: the same kernel sizes,
    an unpacked echelon basis with the same pivots, each vector leading at its bit,
    spanning the same space at every shift; and bitplanes.reduce leaves the residues
    gf2_reduce leaves on that basis."""
    p = params(m, n, find_compatible_c(m, n) if c is None else c)
    w = p.field.w
    images = oracle.bilinear_images(p)
    planes = differential.bilinear_planes(p)
    assert np.array_equal(bitplanes.unpack(planes), images)
    basis_planes = bitplanes.echelon(planes)
    kernels = differential._kernels(basis_planes)
    reference_kernels, reference = oracle.eliminate(images)
    assert np.array_equal(kernels, reference_kernels)
    basis = bitplanes.unpack(basis_planes).astype(np.int64)
    assert np.array_equal(basis != 0, reference != 0)
    assert ((basis >> np.arange(w)[:, None] == 1) | (basis == 0)).all()
    for v in reference:
        assert not next(oracle.gf2_reduce([v], basis.copy())).any()
    vectors = np.random.default_rng(w).integers(0, p.field.size, size=(3, p.field.size))
    residues = bitplanes.pack(vectors, w)
    bitplanes.reduce(residues, basis_planes)
    expected = [next(oracle.gf2_reduce([v], basis.copy())) for v in vectors]
    assert np.array_equal(bitplanes.unpack(residues), expected)


@pytest.mark.parametrize("chunk_words", [1, 3])
def test_plane_elimination_in_chunks_of_a_few_words(monkeypatch, chunk_words):
    """Chunks of 64 or 192 shifts, whose edges fall inside the range, leave the basis of
    one whole chunk: the elimination is shift by shift."""
    planes = differential.bilinear_planes(params(6, 2, 5))  # kernel sizes 4 and 64
    whole = bitplanes.echelon(planes)
    monkeypatch.setattr(bitplanes, "ECHELON_WORDS", chunk_words)
    assert np.array_equal(bitplanes.echelon(planes), whole)


@pytest.mark.parametrize("block_rows", [1, 3, None])
@pytest.mark.parametrize("m, n, c", DDT_GRID)
def test_ddt_stream_matches_the_count_by_definition(monkeypatch, block_rows, m, n, c):
    """Each streamed block equals the oracle's per-cell count over F's table, also with
    blocks of 1 and 3 rows whose edges fall mid-table."""
    p = params(m, n, find_compatible_c(m, n) if c is None else c)
    size = p.field.size
    if block_rows is not None:
        monkeypatch.setattr(differential, "_DDT_BLOCK_CELLS", block_rows * size)
    lo = 0
    for block in differential.ddt_blocks(derivative_spectrum(p)):
        assert block.dtype == np.int32
        assert block_rows is None or len(block) == min(block_rows, size - lo)
        assert (block == oracle.ddt_by_definition(p, lo, lo + len(block))).all(), lo
        lo += len(block)
    assert lo == size


@pytest.mark.parametrize("block_rows", [1, 3, None])
@pytest.mark.parametrize("m, n, c", DDT_GRID + [(1, 1, 0)])  # w = 2: the smallest field
def test_ddt_csv_stream_matches_the_csv_of_the_count_by_definition(
    monkeypatch, block_rows, m, n, c
):
    """The bytes --ddt-out writes are the CSV of the oracle's whole table: on the digit
    glyph path for kernels of 2, 4 and 8, and on csv_block's for (6, 2)'s kernels of 64.
    A block of row 0 alone yields its line and nothing more."""
    p = params(m, n, find_compatible_c(m, n) if c is None else c)
    size = p.field.size
    if block_rows is not None:
        monkeypatch.setattr(differential, "_DDT_BLOCK_CELLS", block_rows * size)
    chunks = [bytes(b) for b in differential.ddt_csv_blocks(derivative_spectrum(p))]
    assert b"".join(chunks) == ddt_to_csv(oracle.ddt_by_definition(p, 0, size)).encode()
    assert chunks[0] == b"%d" % size + b",0" * (size - 1) + b"\n"
    if block_rows == 1:
        assert len(chunks) == size  # one line per block, none empty


def test_ddt_csv_stream_at_w12_comes_in_blocks_of_the_budgeted_rows():
    """At w = 12 a block is 2^18 cells, 64 rows and 512 KiB of CSV: row 0's line and the
    63 rows after it make the first block, and every later block but the last has 64."""
    p = params(6, 1, find_compatible_c(6, 1))
    rows = differential._DDT_BLOCK_CELLS // p.field.size
    assert rows == 64
    chunks = differential.ddt_csv_blocks(derivative_spectrum(p))
    lines = [bytes(chunk).count(b"\n") for chunk in chunks]
    assert lines[:2] == [1, rows - 1]
    assert set(lines[2:-1]) == {rows} and 0 < lines[-1] <= rows
    assert sum(lines) == p.field.size


def test_ddt_csv_roundtrip():
    table = ddt(APN_21)
    text = ddt_to_csv(table)
    rows = [list(map(int, line.split(","))) for line in text.strip().split("\n")]
    assert (np.array(rows) == table).all()
    assert ddt_to_csv(ddt(APN_21)) == text


def test_spectrum_report_shape_and_determinism():
    spec = derivative_spectrum(APN_21)
    rep = spectrum_report(APN_21, spec)
    assert rep["schema"] == 1
    assert rep["kind"] == "derivative-spectrum"
    assert rep["verdicts"] == {"is_apn": True, "is_2k_to_one": True, "k": 1}
    assert rep["params"]["c_hex"] == "9"
    assert json.dumps(rep) == json.dumps(spectrum_report(APN_21, derivative_spectrum(APN_21)))
