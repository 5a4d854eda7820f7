"""Compatibility criterion, searches, witnesses, and report plumbing."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from apnforge import compatibility
from apnforge.compatibility import (
    COMPAT_CSV_COLUMNS,
    CompatReport,
    compat_report,
    compatibility_predicate,
    divisibility_criterion,
    eval_compat_poly,
    find_compatible_c,
    is_compatible_c,
    reports_to_csv,
    reports_to_json,
    sweep_reports,
    vanishing_coeff_set,
    witnesses,
)
from apnforge.field import Field, SizeLimitError, make_field, roots_of_unity

# Compatible coefficients for (m, n) = (2, 1) over X^4+X+1, frozen from
# the oracle's full 16-element scan.
COMPATIBLE_21 = [9, 11, 13, 14]

# Closed-form witness sets per unity root, same instance: [c0, y, y^(-s)].
WITNESSES_21 = {8: [6, 8, 10], 10: [7, 10, 15], 12: [7, 12, 8], 15: [6, 15, 12]}


def test_compat_poly_matches_bigint_oracle():
    f = make_field(4)
    for m, n in [(2, 1), (2, 2), (2, 3)]:
        for c in range(f.size):
            for y in range(1, f.size):
                assert eval_compat_poly(f, m, n, c, y) == oracle.compat_poly(
                    m, n, c, y, f.modulus
                )


def test_structural_roots():
    """c = 0 fails at y = 1; c = y and c = y^(-s) fail at y; unity c never works."""
    for m, n in [(2, 1), (3, 2), (2, 3)]:
        f = make_field(2 * m)
        assert eval_compat_poly(f, m, n, 0, 1) == 0
        assert not is_compatible_c(0, m, n)
        for y in roots_of_unity(f, (1 << m) + 1):
            assert eval_compat_poly(f, m, n, y, y) == 0
            assert eval_compat_poly(f, m, n, f.inv(f.frobenius(y, n)), y) == 0
            assert not is_compatible_c(y, m, n)


def test_compatible_set_frozen():
    f = make_field(4)
    assert [c for c in range(f.size) if is_compatible_c(c, 2, 1)] == COMPATIBLE_21
    assert find_compatible_c(2, 1) == 9


def test_compatible_c_yields_rootless_polynomial():
    f = make_field(4)
    for c in COMPATIBLE_21:
        for y in roots_of_unity(f, 5):
            assert eval_compat_poly(f, 2, 1, c, y) != 0


def test_no_compatible_c_for_r_equal_two():
    for n in (1, 2, 3):
        f = make_field(2)
        assert find_compatible_c(1, n) is None
        assert all(not is_compatible_c(c, 1, n) for c in range(f.size))


def test_no_compatible_c_when_ratio_odd():
    assert find_compatible_c(2, 2) is None
    assert find_compatible_c(3, 3) is None
    assert find_compatible_c(2, 6) is None


def test_predicate_frozen_examples():
    assert not compatibility_predicate(1, 1)
    assert not compatibility_predicate(1, 7)
    assert not compatibility_predicate(3, 9)
    assert not compatibility_predicate(2, 6)
    assert compatibility_predicate(2, 1)
    assert compatibility_predicate(2, 4)
    assert compatibility_predicate(3, 6)
    assert compatibility_predicate(6, 4)


def test_predicate_is_divisibility_in_disguise():
    for m in range(1, 17):
        for n in range(1, 17):
            divides, odd_ratio = divisibility_criterion(m, n)
            assert compatibility_predicate(m, n) == (m > 1 and not divides)
            assert divides == odd_ratio


@pytest.mark.parametrize("call, message", [
    (lambda: compatibility_predicate(0, 3), r"m, n must be positive, got \(0, 3\)"),
    (lambda: find_compatible_c(0, 1), r"m, n must be positive, got \(0, 1\)"),
    (lambda: is_compatible_c(0, 2, 1, make_field(6)), "field degree 6 does not match 2m = 4"),
])
def test_entry_checks_refuse_bad_m_n_or_field(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_divisibility_frozen_examples():
    assert divisibility_criterion(1, 3) == (True, True)
    assert divisibility_criterion(2, 6) == (True, True)
    assert divisibility_criterion(3, 9) == (True, True)
    assert divisibility_criterion(2, 4) == (False, False)
    assert divisibility_criterion(2, 3) == (False, False)
    with pytest.raises(ValueError):
        divisibility_criterion(0, 3)


@given(st.integers(1, 200), st.integers(1, 200))
@settings(max_examples=300, deadline=None)
def test_divisibility_components_agree(m, n):
    divides, odd_ratio = divisibility_criterion(m, n)
    assert divides == odd_ratio
    assert divides == (((1 << n) + 1) % ((1 << m) + 1) == 0)


def test_vanishing_set_basics():
    f = make_field(4)
    subfield_r = {x for x in range(f.size) if f.in_subfield(x, 2)}
    assert vanishing_coeff_set(1, 2, 1) == subfield_r
    for y in (8, 10, 12, 15):
        X = vanishing_coeff_set(y, 2, 1)
        assert y in X
        assert len(X) <= 4  # at most r solutions of an affine r-semilinear equation
        for a in X:
            assert eval_compat_poly(f, 2, 1, a, y) == 0
        for a in set(range(f.size)) - X:
            assert eval_compat_poly(f, 2, 1, a, y) != 0
    with pytest.raises(ValueError):
        vanishing_coeff_set(2, 2, 1)  # 2 is not a 5th root of unity
    with pytest.raises(ValueError):
        vanishing_coeff_set(0, 2, 1)


def test_union_of_vanishing_sets_is_incompatible_set():
    f = make_field(4)
    union = set()
    for y in roots_of_unity(f, 5):
        union |= vanishing_coeff_set(y, 2, 1)
    assert union == set(range(f.size)) - set(COMPATIBLE_21)
    assert len(union) == 12 < 16  # strictly smaller than r^2


def test_witnesses_frozen_table():
    for y, expected in WITNESSES_21.items():
        assert witnesses(y, 2, 1) == expected


def test_witnesses_vanish_and_land_in_structured_set():
    """Every witness is a root at y and lies in F_r union mu_{r+1}."""
    for m, n in [(2, 1), (2, 3), (3, 1), (3, 2)]:
        f = make_field(2 * m)
        mu = set(roots_of_unity(f, (1 << m) + 1))
        for y in sorted(mu - {1}):
            assert len(vanishing_coeff_set(y, m, n, f)) <= 1 << m
            ws = witnesses(y, m, n, f)
            assert len(ws) == len(set(ws))
            for wv in ws:
                assert eval_compat_poly(f, m, n, wv, y) == 0
                assert f.in_subfield(wv, m) or wv in mu


def test_witness_case_split():
    # (2, 4): s - 1 = 15 kills every y (5 | 15): two unity-root witnesses.
    f = make_field(4)
    for y in (8, 10, 12, 15):
        ws = witnesses(y, 2, 4, f)
        assert ws == [y, f.inv(f.frobenius(y, 4))] == [y, f.inv(y)]
    # (2, 2): s + 1 = 5 kills every y: subfield witness plus y itself.
    for y in (8, 10, 12, 15):
        ws = witnesses(y, 2, 2, f)
        assert len(ws) == 2 and ws[1] == y and f.in_subfield(ws[0], 2)
    # (2, 1): generic case, three distinct witnesses.
    assert all(len(witnesses(y, 2, 1, f)) == 3 for y in (8, 10, 12, 15))


def test_witnesses_reject_bad_y():
    with pytest.raises(ValueError):
        witnesses(1, 2, 1)
    with pytest.raises(ValueError):
        witnesses(2, 2, 1)
    with pytest.raises(ValueError):
        witnesses(0, 2, 1)


def test_root_construction_for_odd_ratio():
    """When n/m is odd, y = c^((r/2)(r-1)) pins a root for every coefficient."""
    for m, n in [(2, 2), (2, 6), (3, 3)]:
        f = make_field(2 * m)
        r = 1 << m
        for c in range(f.size):
            y = f.pow(c, (r // 2) * (r - 1)) if c else 1
            assert f.pow(y, r + 1) == 1
            assert eval_compat_poly(f, m, n, c, y) == 0


def test_vanishing_sets_pair_up_when_s_minus_one_divides():
    """r+1 | s-1 makes X_y = X_{1/y}, so the union stays within r(1 + r/2)."""
    for m, n in [(1, 2), (2, 4), (3, 6)]:
        f = make_field(2 * m)
        r = 1 << m
        assert ((1 << n) - 1) % (r + 1) == 0  # the case hypothesis
        union = set()
        for y in roots_of_unity(f, r + 1):
            X = vanishing_coeff_set(y, m, n, f)
            union |= X
            if y != 1:
                assert X == vanishing_coeff_set(f.inv(y), m, n, f)
        assert len(union) <= r * (1 + r // 2)


def test_search_matches_the_oracle_scan(monkeypatch):
    """(found_c, search_size) and is_compatible_c against the scalar table scan on every
    row with m <= 5 and n <= 10, exhaustive rows included.  The search runs with its own
    chunks and with 40-value chunks (from m = 3 on, each elimination takes a few of the
    roots, and each marking step 40 >> dim of them), so chunk edges fall inside the root
    list."""
    for m in range(1, 6):
        f = make_field(2 * m)
        for n in range(1, 11):
            found, size = oracle.search_c(f, m, n)
            # The scan found every c before `found` incompatible, and `found` compatible.
            for c in range(size):
                assert is_compatible_c(c, m, n, f) == (c == found), (m, n, c)
            for chunk in (compatibility._CHUNK_VALUES, 40):
                with monkeypatch.context() as patch:
                    patch.setattr(compatibility, "_CHUNK_VALUES", chunk)
                    rep = compat_report(m, n, f)
                    assert (rep.found_c, rep.search_size) == (found, size), (m, n, chunk)
                    assert find_compatible_c(m, n, f) == found


def test_sweep_decides_every_n_of_one_m_as_the_oracle_scan(monkeypatch):
    """sweep_reports searches all n of one m together, with (n, root) pairs as columns; row
    by row it must give the scalar scan's (found_c, search_size) on every row with m <= 5
    and n <= 10, with its own chunks and with 40-value chunks (groups of several n at
    m = 1, elimination chunks inside one n's roots from m = 3 on)."""
    expected = {
        (m, n): oracle.search_c(make_field(2 * m), m, n) for m in range(1, 6) for n in range(1, 11)
    }
    for chunk in (compatibility._CHUNK_VALUES, 40):
        with monkeypatch.context() as patch:
            patch.setattr(compatibility, "_CHUNK_VALUES", chunk)
            rows = sweep_reports(range(1, 6), range(1, 11))
        assert [(r.m, r.n) for r in rows] == list(expected)
        assert {(r.m, r.n): (r.found_c, r.search_size) for r in rows} == expected, chunk


def test_rows_n_and_n_plus_2m_agree():
    """y^(2^n) depends on n mod 2m only, so (m, n) and (m, n + 2m) decide alike, whether
    they share an elimination or not."""
    for m in range(1, 9):
        low = sweep_reports([m], range(1, 2 * m + 1))
        high = sweep_reports([m], range(2 * m + 1, 4 * m + 1))
        assert [(r.found_c, r.search_size) for r in low] == [
            (r.found_c, r.search_size) for r in high
        ], m


def test_search_matches_the_array_scan_up_to_m_8():
    """Every row with m = 6..8, n <= 16 (the exhausted (6, 6), (7, 7), (8, 8) included)
    against the brute-force array scan on the tables."""
    for m in range(6, 9):
        f = make_field(2 * m)
        for n in range(1, 17):
            rep = compat_report(m, n, f)
            assert (rep.found_c, rep.search_size) == oracle.array_search_c(f, m, n), (m, n)
            assert rep.consistent


def test_every_search_kernel_has_dimension_m():
    """For y in mu_{r+1} the kernel of c -> c y^s + c^r y is c0 F_r, c0^(r-1) = y^(s-1):
    after the full feed every column's echelon basis has exactly m rows, at every n of
    one period 1..2m and every m <= 10, sizes the brute-force oracle cannot reach."""
    for m in range(1, 11):
        f = make_field(2 * m)
        roots = compatibility._unity_roots(f, m)
        ns = np.arange(1, 2 * m + 1)
        cosets = compatibility._Cosets(f, m, np.repeat(ns, len(roots)), np.tile(roots, len(ns)))
        cosets.feed(f.w)
        assert (np.count_nonzero(cosets.kernel, axis=0) == m).all(), m


def test_prefix_cosets_are_the_full_sets_cut_below_the_prefix():
    """Once the images of X^0..X^(k-1) have joined, each column's least c and its kernel
    rows with leading bit < k give exactly the c < 2^k of its full vanishing set: what
    window k reads is the same whatever images are still to come."""
    for m in range(1, 4):
        f = make_field(2 * m)
        roots = np.array(roots_of_unity(f, (1 << m) + 1), dtype=np.int64)
        for n in range(1, 7):
            full = [oracle.vanishing_coeff_set(f, m, n, int(y)) for y in roots]
            cosets = compatibility._Cosets(f, m, np.full(len(roots), n), roots)
            for k in range(1, f.w + 1):
                cosets.feed(k)
                least = cosets.least()
                for j, vanishing in enumerate(full):
                    below = {c for c in vanishing if c < 1 << k}
                    assert least[j] == min(below, default=f.size), (m, n, k, j)
                    if below:
                        ker = cosets.kernel[:k, j : j + 1]
                        assert set(compatibility._coset_elements(least[j : j + 1], ker)) == below


def _spy_on_search(monkeypatch):
    """Record each call of _Cosets._images as (fed, k) and each window as its fed."""
    feeds, windows = [], []
    images, least = compatibility._Cosets._images, compatibility._Cosets.least

    def spy_images(self, part, k):
        feeds.append((self.fed, k))
        return images(self, part, k)

    def spy_least(self):
        windows.append(self.fed)
        return least(self)

    monkeypatch.setattr(compatibility._Cosets, "_images", spy_images)
    monkeypatch.setattr(compatibility._Cosets, "least", spy_least)
    return feeds, windows


def test_found_row_evaluates_only_the_images_its_window_reads(monkeypatch):
    """(12, 1) finds c = 9 in window 4, which reads the images of X^0..X^3: the search
    produces those and no others of the w = 24 images, in a feed of 2 (X^0, X^1) and
    then one up to 4 (X^2, X^3), and never evaluates P: its target P(0, y) comes from
    the y^s of the running product."""
    make_field(24)
    evaluated = []

    def spy(f, m, n, c, y):
        evaluated.append(np.ravel(c).tolist())
        return eval_compat_poly(f, m, n, c, y)

    monkeypatch.setattr(compatibility, "eval_compat_poly", spy)
    feeds, windows = _spy_on_search(monkeypatch)
    assert find_compatible_c(12, 1) == 9
    assert feeds == [(0, 2), (2, 4)]
    assert windows == [2, 4]
    assert evaluated == []


@pytest.mark.parametrize("m, ns, chunk", [(3, [2], 1 << 14), (4, [1, 3, 8, 11], 40)])
def test_target_is_the_polynomial_at_c_zero(monkeypatch, m, ns, chunk):
    """The target each column's first feed takes, y^(s+1) + 1 from y^s, is
    eval_compat_poly at c = 0 with the column's n and y: on a one-n search and on a
    sweep of several n in one elimination (n an array), fed in chunks of 40 values."""
    monkeypatch.setattr(compatibility, "_CHUNK_VALUES", chunk)
    targets = []
    images = compatibility._Cosets._images

    def spy(self, part, k):  # before the first image joins, the target is P(0, y) as taken
        if not self.fed:
            targets.append((self.field, self.n[part], self.y[part], self.target[part].copy()))
        return images(self, part, k)

    monkeypatch.setattr(compatibility._Cosets, "_images", spy)
    if len(ns) == 1:
        find_compatible_c(m, ns[0])
    else:
        sweep_reports([m], ns)
    assert sum(len(y) for _, _, y, _ in targets) == len(ns) * ((1 << m) + 1)
    assert len(targets) > 1 or len(ns) == 1  # the sweep spans several chunks
    for f, n, y, target in targets:
        assert np.array_equal(target, eval_compat_poly(f.array_ops, m, n, 0, y))


@pytest.mark.parametrize("m, windows", [(1, [2]), (3, [2, 4, 6]), (6, [2, 4, 8, 12])])
def test_windows_run_only_at_the_fed_sizes(monkeypatch, m, windows):
    """An exhausted row (m, m) reads every window: k = 2, 4, 8, ..., w, one right after
    each feed, and none between two feeds."""
    feeds, seen = _spy_on_search(monkeypatch)
    assert find_compatible_c(m, m) is None
    assert seen == windows
    assert feeds == list(zip([0] + windows[:-1], windows))


@pytest.mark.parametrize("m, chunk", [(1, 40), (2, 40), (3, 40), (5, 40), (8, 40), (12, 1 << 14)])
def test_images_by_recurrence_match_the_polynomial(monkeypatch, m, chunk):
    """Each image the search feeds, X^i y^s + (X^i)^r y from the running products, is
    eval_compat_poly(X^i) + eval_compat_poly(0) at its column, for every unity root and
    i < w, with columns of several n (n >= 2m among them), fed one image at a time up to
    m = 5 and in batches of doubling size above, in chunks of 40 values up to m = 8 and
    of the search's own size at m = 12 (two or more chunks of its 8,194 columns per feed)."""
    monkeypatch.setattr(compatibility, "_CHUNK_VALUES", chunk)
    fed = []
    images = compatibility._Cosets._images

    def spy(self, part, k):
        fed.append((self.n[part], self.y[part], self.fed, k, images(self, part, k)))
        return fed[-1][-1]

    monkeypatch.setattr(compatibility._Cosets, "_images", spy)
    f = make_field(2 * m)
    roots = np.array(roots_of_unity(f, (1 << m) + 1), dtype=np.int64)
    ns = np.array([1, m, 2 * m, 2 * m + 3, 5 * m + 1] if m < 12 else [1, 2 * m + 1])
    steps = range(1, f.w + 1) if m <= 5 else [k for k in (2, 4, 8, 16) if k < f.w] + [f.w]
    cosets = compatibility._Cosets(f, m, np.repeat(ns, len(roots)), np.tile(roots, len(ns)))
    for k in steps:
        cosets.feed(k)
    assert len(fed) >= len(steps) * -(-len(cosets.y) // chunk)
    assert len(fed) > len(steps) or m == 1  # some feed spans several chunks
    ops = f.array_ops
    covered = np.zeros(f.w, dtype=np.int64)
    for n, y, lo, hi, got in fed:
        c = np.left_shift(1, np.arange(lo, hi))[:, None]
        want = eval_compat_poly(ops, m, n, c, y) ^ eval_compat_poly(ops, m, n, 0, y)
        assert np.array_equal(got, want), (lo, hi)
        covered[lo:hi] += len(y)
    assert (covered == len(cosets.y)).all()


@pytest.mark.parametrize("w", range(1, 25))
def test_insertion_order_elimination_matches_gf2_reduce(w):
    """_join's residues, low part and tags, against the oracle's elimination by leading
    bit, on tagged random images of which about a third are forced combinations of
    earlier ones (zero among them), w + 4 per column: the same residues, and the joined
    rows, each at its leading bit, are the oracle's basis."""
    rng = np.random.default_rng(1000 + w)
    count, columns, low = w + 4, 20, (1 << w) - 1
    vectors = rng.integers(0, 1 << w, size=(count, columns))
    for i in range(1, count):
        forced = rng.random(columns) < 1 / 3
        picks = rng.integers(0, 2, size=(i, columns))
        vectors[i, forced] = np.bitwise_xor.reduce(vectors[:i] * picks, axis=0)[forced]
    vectors |= np.left_shift(1, w + np.arange(count))[:, None]
    joined = np.zeros((count, columns), dtype=np.int64)
    pivots = np.zeros((count, columns), dtype=np.uint8)
    ours = [compatibility._join(v, joined[: i + 1], pivots[: i + 1], low) for i, v in enumerate(vectors)]
    basis = np.zeros((w, columns), dtype=np.int64)
    theirs = list(oracle.gf2_reduce(vectors, basis))
    assert np.array_equal(np.array(ours), np.array(theirs))
    assert ((np.array(ours) & low) == 0).any() and (np.array(ours) & low).any()
    for j in range(columns):
        rows = joined[:, j][joined[:, j] != 0]
        assert sorted(rows.tolist()) == sorted(basis[:, j][basis[:, j] != 0].tolist()), j
        assert (pivots[:, j][joined[:, j] != 0] == [int(r & low).bit_length() - 1 for r in rows]).all()


def test_search_exhausts_odd_ratio_rows_beyond_the_oracle():
    for m in (9, 10):
        rep = compat_report(m, m)
        assert (rep.exists_c, rep.consistent, rep.search_size) == (False, True, 1 << 2 * m)


def test_exhausted_row_at_the_field_cap_stays_within_memory():
    """(12, 12) marks all 2^24 candidates; the chunks keep its peak allocation bounded."""
    make_field(24)
    tracemalloc.start()
    try:
        rep = compat_report(12, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.exists_c, rep.consistent, rep.search_size) == (False, True, 1 << 24)
    assert peak < 64 << 20, peak


def test_search_refuses_fields_beyond_its_tag_width():
    """Above w = 31 the elimination's tags would overflow an int64; refuse, never misreport."""
    f = Field(32)  # past make_field's cap
    with pytest.raises(SizeLimitError, match="w=32 exceeds 31"):
        compat_report(16, 1, f)
    with pytest.raises(SizeLimitError, match="w=32 exceeds 31"):
        vanishing_coeff_set(1, 16, 1, f)


def test_vanishing_set_matches_the_full_evaluation():
    """The enumerated coset against all 2^w evaluations, every unity root, m <= 4, n <= 8."""
    for m in range(1, 5):
        f = make_field(2 * m)
        for n in range(1, 9):
            for y in roots_of_unity(f, (1 << m) + 1):
                assert vanishing_coeff_set(y, m, n, f) == oracle.vanishing_coeff_set(f, m, n, y)


def test_compat_report_frozen():
    rep = compat_report(2, 1)
    assert rep == CompatReport(
        m=2, n=1, predicate=True, exists_c=True, found_c=9, modulus=0x13, search_size=10
    )
    assert rep.consistent
    assert rep.to_dict() == {
        "m": 2,
        "n": 1,
        "predicate": True,
        "exists_c": True,
        "found_c_hex": "9",
        "modulus_hex": "13",
        "search_size": 10,
    }
    exhausted = compat_report(2, 2)
    assert exhausted.found_c is None
    assert exhausted.search_size == 16
    assert exhausted.consistent
    assert exhausted.to_dict()["found_c_hex"] is None


def test_sweep_reports_order_and_override():
    rows = sweep_reports(range(1, 3), range(1, 3))
    assert [(r.m, r.n) for r in rows] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(r.consistent for r in rows)
    alt = sweep_reports([2], [1], modulus_table={4: 0x19})
    assert alt[0].modulus == 0x19
    assert alt[0].exists_c  # existence is basis-independent...
    assert (alt[0].found_c, alt[0].search_size) == (2, 3)  # ...the witness is not


def test_report_serializers():
    rows = sweep_reports(range(1, 3), range(1, 3))
    csv_text = reports_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(COMPAT_CSV_COLUMNS)
    assert lines[1] == "1,1,false,false,,7,4"
    assert lines[3] == "2,1,true,true,9,13,10"
    doc = json.loads(reports_to_json(rows))
    assert doc["schema"] == 1
    assert doc["rows"][2]["found_c_hex"] == "9"
    # byte-identical on re-serialization
    assert reports_to_json(rows) == reports_to_json(sweep_reports(range(1, 3), range(1, 3)))
