"""Spectrum/DDT verification, including the two-route cross-check."""

import json
import random

import numpy as np
import pytest

import oracle
from apnforge import differential, hexanomial
from apnforge.differential import (
    CrossCheckError,
    DerivativeSpectrum,
    cross_check_spectrum,
    ddt,
    ddt_to_csv,
    derivative_spectrum,
    is_apn,
    is_t_to_one,
    kernel_sizes,
    spectrum_report,
    value_table,
)
from apnforge.compatibility import compatibility_predicate, find_compatible_c
from apnforge.field import SizeLimitError, make_field
from apnforge.hexanomial import BCParams, default_d, eval_derivative_linear, eval_hexanomial


def params(m, n, c, d=None):
    f = make_field(2 * m)
    return BCParams(m=m, n=n, field=f, c=c, d=d if d is not None else default_d(f, m))


APN_21 = params(2, 1, 9, 2)


def test_value_table_matches_pointwise():
    tab = value_table(APN_21)
    assert tab.dtype == np.int64
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
        ks = kernel_sizes(p)
        for a in range(1, p.field.size):
            assert ks[a] == len(oracle.derivative_kernel(p, a))


def _assert_routes_match_oracles(p):
    """Value table vs F on the oracle's table ops, kernel route vs span oracle,
    definition route vs kernel route and histogram oracle."""
    xs = np.arange(p.field.size)
    assert (value_table(p) == hexanomial.hexanomial_form(oracle.TableOps(p.field), p, xs)).all()
    ks = kernel_sizes(p)
    assert (ks == oracle.span_kernel_sizes(p)).all(), p.to_dict()
    spec = derivative_spectrum(p)
    assert (spec.kernels == ks).all(), p.to_dict()
    hists = oracle.histogram_spectrum(p)
    assert all(spec.histogram(a) == hists[a] for a in range(1, p.field.size)), p.to_dict()
    return ks


def test_rank_route_matches_span_route():
    """Every c for six (m, n) pairs (480 instances), plus one instance at w = 10 and 12."""
    seen = set()
    for m, n in [(2, 1), (3, 1), (3, 2), (4, 2), (2, 2), (3, 3)]:
        for c in make_field(2 * m).elements():
            ks = _assert_routes_match_oracles(params(m, n, c))
            seen.add(frozenset(ks[1:].tolist()))
    assert seen == {frozenset(s) for s in ({2}, {4}, {8}, {2, 4}, {2, 8}, {4, 16})}
    for p in [params(5, 2, 3), params(6, 1, 2)]:
        _assert_routes_match_oracles(p)


def test_array_ops_match_field_ops():
    """Every pair at w <= 8 and seeded samples at w = 16 against the oracle's table ops;
    seeded samples at w = 18 and 24 against the big-int oracle.  The scalar Field runs
    the array view's own code, so only the oracle is an independent comparison."""
    for w in range(1, 9):
        f = make_field(w)
        ops, ref = f.array_ops, oracle.TableOps(f)
        xs = np.arange(f.size)
        for y in f.elements():
            assert (ops.mul(xs, y) == ref.mul(xs, y)).all()
        for t in range(2 * w):
            assert (ops.frobenius(xs, t) == ref.frobenius(xs, t)).all()
    rng = np.random.default_rng(7)
    for w in (16, 18, 24):
        f = make_field(w)
        ops = f.array_ops
        xs, ys = rng.integers(0, f.size, size=(2, 2000))
        pairs = list(zip(xs.tolist(), ys.tolist()))
        mul, frob = (oracle.TableOps(f).mul, oracle.TableOps(f).frobenius) if w == 16 else (
            lambda x, y: oracle.gfmul(x, y, f.modulus),
            lambda x, t: oracle.gfpow(x, 1 << t, f.modulus),
        )
        assert ops.mul(xs, ys).tolist() == [mul(x, y) for x, y in pairs]
        for t in (1, w // 2 + 1, w - 1):
            assert ops.frobenius(xs, t).tolist() == [frob(x, t) for x in xs.tolist()]


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
        for c in f.elements()[: min(5, f.size)]:
            p = BCParams(m=m, n=n, field=f, c=c, d=default_d(f, m))
            assert p.u == p.r
            assert is_t_to_one(p, p.r)


def test_cross_check_raises_on_tampered_histogram():
    bad = derivative_spectrum(APN_21).kernels.copy()
    bad[3] = 4
    with pytest.raises(CrossCheckError, match="shift a=0x3"):
        cross_check_spectrum(APN_21, DerivativeSpectrum(bad))


def test_definition_route_refuses_a_non_quadratic_table(monkeypatch):
    """x^7 has algebraic degree 3: the degree certificate fails instead of a verdict."""
    p = params(4, 1, 0)
    x7 = [p.field.pow(x, 7) for x in p.field.elements()]
    monkeypatch.setattr(differential, "value_table", lambda p: np.array(x7))
    with pytest.raises(CrossCheckError, match=r"not quadratic: ANF monomial 0x7 \(weight 3\)"):
        derivative_spectrum(p)
    with pytest.raises(CrossCheckError, match="ANF monomial"):
        is_apn(p)


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
    monkeypatch.setattr(
        differential, "kernel_sizes", lambda p: np.ones(p.field.size, dtype=np.int64)
    )
    with pytest.raises(CrossCheckError):
        is_apn(APN_21)


def test_is_apn_runs_the_spot_check(monkeypatch):
    """A wrong defining form fails the spot check, which names the first bad sample."""
    rng = random.Random(0)
    samples = [(rng.randrange(1, 16), rng.randrange(16)) for _ in range(1000)]
    a, x = next((a, x) for a, x in samples if eval_derivative_linear(APN_21, a, x) != x ^ 1)
    monkeypatch.setattr(hexanomial, "derivative_form", lambda f, p, a, x: x ^ 1)
    with pytest.raises(CrossCheckError, match=f"forms disagree at a={a:#x}, x={x:#x}$"):
        is_apn(APN_21)


def test_wrong_linear_form_fails_the_cross_check(monkeypatch):
    """The kernel route reads D_a through the collapsed form the spot check validates."""
    monkeypatch.setattr(hexanomial, "collapsed_form", lambda f, p, coeffs, x: x)
    with pytest.raises(CrossCheckError, match="shift a="):
        is_apn(APN_21)


def test_verify_instance_refuses_w_above_16_before_any_work(monkeypatch):
    def must_not_run(*args, **kwargs):
        pytest.fail("expensive work started before the cap was checked")

    monkeypatch.setattr(differential, "value_table", must_not_run)
    with pytest.raises(SizeLimitError, match="w=18"):
        differential.verify_instance(params(9, 1, 0, 2), degree_cap=18)


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
        for c in f4.elements():
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
    blocks = list(differential.ddt_blocks(p))
    assert all(b.dtype == np.int32 for b in blocks)
    if block_rows is not None:
        assert [len(b) for b in blocks[:-1]] == [block_rows] * (len(blocks) - 1)
    assert (np.concatenate(blocks) == expected).all()
    assert (ddt(p) == expected).all()
    assert len(set(expected.ravel().tolist())) > 2
    lines = "".join(",".join(map(str, row)) + "\n" for row in expected.tolist())
    assert ddt_to_csv(expected) == lines
    assert b"".join(map(differential.csv_block, blocks)) == lines.encode()


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
