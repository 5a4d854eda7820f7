"""Existence analysis for the compatibility coefficient c.

With (r, s) = (2^m, 2^n), a coefficient c is *BC-compatible* when the
polynomial

    y^(s+1) + c y^s + c^r y + 1

has no root y among the (r+1)-st roots of unity.  Hexanomials built from
a compatible c have 2^gcd(m,n)-to-one derivatives, so compatibility is
the whole game for this family.

Three views of the same question live here and check each other:

* exhaustive search -- the least c, in canonical order, whose polynomial
  vanishes at no root of mu_{r+1} (:func:`find_compatible_c`), read off
  the union of each root's vanishing coset instead of a candidate scan,
  in windows [0, 2^k) for k = 2, 4, 8, ..., w, each right after the
  images of X^0..X^(k-1) join the elimination, so a row found early
  feeds few images; a sweep decides every n of one m in one search, the
  (n, root) pairs sharing each elimination (:func:`sweep_reports`);
* the exact closed-form criterion -- compatible c exist iff m > 1 and
  n/m is not an odd integer (:func:`compatibility_predicate`), whose
  integer core is the divisibility fact (2^m + 1) | (2^n + 1) iff n/m is
  an odd integer (:func:`divisibility_criterion`);
* root structure -- for each unity root y, the set of coefficient values
  that vanish at y (:func:`vanishing_coeff_set`), empty or a coset of the
  m-dimensional kernel c0 F_r, c0^(r-1) = y^(s-1), and the closed-form
  witnesses inside F_r union mu_{r+1} (:func:`witnesses`).

The polynomial is written once (:func:`eval_compat_poly`), generic over
field ops: :func:`is_compatible_c` evaluates it at one c, on the field's
array view, the witness report on the scalar field.  The search needs only
its value at c = 0, y^(s+1) + 1, one multiply from the y^s it holds anyway,
and takes the images of X^0, X^1, ... by recurrence from running products.
Everything is deterministic; a sweep re-run must be byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .field import Field, SizeLimitError, make_field, roots_of_unity_array
from .hexanomial import instance_field

# Values per array in either step of the c search: one per image and column as
# images join, up to 2^(kernel dimension) per column when marking.  A group of n
# takes about this many columns.
_CHUNK_VALUES = 1 << 14

COMPAT_CSV_COLUMNS = (
    "m",
    "n",
    "predicate",
    "exists_c",
    "found_c_hex",
    "modulus_hex",
    "search_size",
)


def eval_compat_poly(f, m: int, n: int, c, y):
    """y^(s+1) + c y^s + c^r y + 1 under field ops f, via Frobenius iterates only.

    f is a :class:`Field` (c and y are elements) or its ``array_ops`` (c
    and y are int64 arrays that broadcast against each other; n may be an
    int64 array too, one n per y, since n enters only through y^s).
    """
    ys = f.frobenius(y, n)
    return f.mul(ys, y) ^ f.mul(c, ys) ^ f.mul(f.frobenius(c, m), y) ^ 1


def _unity_roots(field: Field, m: int) -> np.ndarray:
    return roots_of_unity_array(field, (1 << m) + 1)


def is_compatible_c(c: int, m: int, n: int, field: Field | None = None) -> bool:
    """True when no (r+1)-st root of unity vanishes the polynomial at c."""
    field = instance_field(m, n, field)
    field.check(c)
    return bool(eval_compat_poly(field.array_ops, m, n, c, _unity_roots(field, m)).all())


class _Cosets:
    """Each column's vanishing set, from the images of X^0..X^(fed-1) fed so far.

    Column j is the pair (n[j], y[j]): the columns may be the (n, root) pairs of
    several n.  c -> P(c, y) + P(0, y) = c y^s + c^r y is F_2-linear, so the c with
    P(c, y) = 0 form a coset of its kernel, or none.  The image of X^i is
    X^i y^s + (X^i)^r y: two running products per column, each advanced by one
    multiplication by a fixed element (X and X^r) per image (:meth:`_images`).
    Image i joins the elimination tagged by bit w + i (:func:`_join`), so a
    dependent image's residue tags a kernel element whose leading bit is its own
    index: kernel[i] (0 where there is none) is an echelon basis.  The target
    P(0, y) = y^(s+1) + 1, taken at the first feed from the y^s that starts the
    running product, is reduced by each new residue as it joins (one step: the
    residue is 0 at every earlier pivot), so its tags come from independent
    images only and are 0 at every leading bit of the kernel basis: once its low
    part is 0 they are the coset's least element (:meth:`least`).  Below 2^fed
    that element and the kernel rows with leading bit < fed are those of the
    full elimination, however many images are still to come.
    """

    def __init__(self, field: Field, m: int, n: np.ndarray, y: np.ndarray):
        if field.w > 31:  # the tags take bits w..2w-1 of an int64
            raise SizeLimitError(f"c search for w={field.w} exceeds 31")
        self.field, self.m, self.n, self.y, self.fed = field, m, n, y, 0
        self.target = np.zeros(len(y), dtype=np.int64)  # P(0, y), from the first feed
        # X^(fed-1) y^s and (X^(fed-1))^r y, from the first feed
        self.ys, self.yr = np.zeros((2, len(y)), dtype=np.int32)
        # joined[i]: image i's residue where it joined, else 0; pivots[i]: its leading bit
        self.joined = np.zeros((field.w, len(y)), dtype=np.int64)
        self.pivots = np.zeros((field.w, len(y)), dtype=np.uint8)
        self.kernel = np.zeros((field.w, len(y)), dtype=np.int32)

    def feed(self, k: int) -> None:
        """The images of X^fed..X^(k-1) join, over chunks of columns whose images fill
        about _CHUNK_VALUES."""
        w, low, first = self.field.w, self.field.order, not self.fed
        tags = np.left_shift(1, w + np.arange(self.fed, k))[:, None]
        step = max(1, _CHUNK_VALUES // (len(tags) + first))  # the target rides with the first
        for lo in range(0, len(self.y), step):
            part = slice(lo, lo + step)
            target = self.target[part]
            if first:
                ops, n, y = self.field.array_ops, self.n[part], self.y[part]
                ys = ops.frobenius(y, n)
                target[:] = ops.mul(ys, y) ^ 1  # P(0, y)
                self.ys[part], self.yr[part] = ys, y
            for i, v in enumerate(self._images(part, k) | tags, self.fed):
                r = _join(v, self.joined[: i + 1, part], self.pivots[: i + 1, part], low)
                self.kernel[i, part] = np.where(r & low, 0, r >> w)
                target ^= self.joined[i, part] & -(target >> self.pivots[i, part] & 1)
        self.fed = k

    def _images(self, part: slice, k: int) -> np.ndarray:
        """The images of X^fed..X^(k-1) at the columns `part`, (k - fed, columns) int64:
        X^i y^s + (X^i)^r y, advancing both running products one image at a time."""
        ops = self.field.array_ops
        times_x, times_xr = ops.times(2), ops.times(self.field.frobenius(2, self.m))  # X, X^r
        ys, yr = self.ys[part], self.yr[part]
        images = np.empty((k - self.fed, len(ys)), dtype=np.int64)
        for row, i in enumerate(range(self.fed, k)):
            if i:
                ys[:], yr[:] = times_x(ys), times_xr(yr)
            np.bitwise_xor(ys, yr, out=images[row])
        return images

    def least(self) -> np.ndarray:
        """Each column's least c < 2^fed that vanishes there, or 2^w where there is none."""
        return np.where(self.target & self.field.order, self.field.size, self.target >> self.field.w)

    def keep(self, columns: np.ndarray) -> None:
        """Only the columns where the boolean mask `columns` is set stay."""
        self.n, self.y, self.target = self.n[columns], self.y[columns], self.target[columns]
        self.ys, self.yr = self.ys[columns], self.yr[columns]
        self.joined, self.pivots = self.joined[:, columns], self.pivots[:, columns]
        self.kernel = self.kernel[:, columns]


def _join(v: np.ndarray, joined: np.ndarray, pivots: np.ndarray, low: int) -> np.ndarray:
    """v's residue against joined[:-1], which it then joins as joined[-1] (F_2
    elimination, vectorized over the columns).

    Each earlier row is 0 at the pivots of the rows before it, so reducing v by
    them in the order they joined, each at its own pivot, clears every pivot in
    one pass of at most len(joined) - 1 steps, against one per low bit when
    reducing by leading bit.  The residue 0 at every pivot is unique, so it is
    that elimination's, tags included.  Only bits in `low` pivot; higher bits ride
    along as tags, so a dependent vector's residue (low part 0) tags the
    combination of earlier vectors that cancels it.  Where the residue's low part
    is nonzero it joins with its leading bit as pivot; elsewhere joined[-1] is 0
    (pivot 0), so later reductions skip it.
    """
    for r, p in zip(joined[:-1], pivots[:-1]):
        v = v ^ r & -(v >> p & 1)
    joined[-1] = np.where(v & low, v, 0)
    pivots[-1] = np.frexp(v & low | 1)[1] - 1  # x = mantissa * 2^exponent, mantissa in [0.5, 1)
    return v


def _coset_elements(least: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """least XOR every combination of the kernel rows, for each column, flat (an
    element of two cosets appears twice)."""
    values, owner = least, np.arange(len(least))
    for row in kernel:
        delta = row[owner]
        has = np.flatnonzero(delta)
        values = np.concatenate((values, values[has] ^ delta[has]))
        owner = np.concatenate((owner, owner[has]))
    return values


def _search_c(field: Field, m: int, ns: Sequence[int]) -> list[int | None]:
    """The least compatible c, or None, for each n in ns.

    n enters the polynomial only through y^s, so the (n, root) pairs of
    several n share one elimination as its columns.  The n go in groups of
    at most about _CHUNK_VALUES columns (one n at least).
    """
    roots = _unity_roots(field, m)
    per_group = max(1, _CHUNK_VALUES // len(roots))
    found = []
    for lo in range(0, len(ns), per_group):
        group = np.array(ns[lo : lo + per_group], dtype=np.int64)
        cosets = _Cosets(field, m, np.repeat(group, len(roots)), np.tile(roots, len(group)))
        found += _least_unmarked(cosets, len(group))
    return found


def _least_unmarked(cosets: _Cosets, count: int) -> list[int | None]:
    """For each of `count` rows, equally many consecutive columns of `cosets`: the
    least c in no column's coset, or None.

    The c below 2^k that vanish at a column are least XOR the span of its kernel
    rows with leading bit below k when least < 2^k, and none otherwise, so window k
    reads only the images of X^0..X^(k-1).  They join in batches of doubling size,
    and a window runs right after each: k = fed = 2, 4, 8, ..., w (a window between
    two feeds reads no new image, so it decides nothing the next one misses).
    Window k marks those c for every undecided row at once, row i in the stretch
    i << k of one array.  A row's first window with an unmarked c decides it, and
    its columns leave before the next feed, so a found c costs about the images of
    twice its bit length.
    """
    w, per_row = cosets.field.w, len(cosets.y) // count
    found: list[int | None] = [None] * count
    rows = np.arange(count)
    while len(rows) and cosets.fed < w:
        cosets.feed(k := min(w, max(2, 2 * cosets.fed)))
        least = cosets.least().reshape(len(rows), per_row)
        row, col = np.nonzero(least < 1 << k)
        ker = cosets.kernel[:k].reshape(k, len(rows), per_row)[:, row, col]
        start = least[row, col] | row << k
        marked = np.zeros(len(rows) << k, dtype=bool)
        step = max(1, _CHUNK_VALUES >> int(np.count_nonzero(ker, axis=0).max(initial=0)))
        for lo in range(0, len(start), step):
            marked[_coset_elements(start[lo : lo + step], ker[:, lo : lo + step])] = True
        marked = marked.reshape(len(rows), 1 << k)
        done = ~marked.all(axis=1)
        for i, c in zip(rows[done].tolist(), marked[done].argmin(axis=1).tolist()):
            found[i] = c
        if done.any():  # keep copies every column it keeps
            rows = rows[~done]
            cosets.keep(np.repeat(~done, per_row))
    return found


def find_compatible_c(m: int, n: int, field: Field | None = None) -> int | None:
    """First compatible c in canonical element order, or None."""
    field = instance_field(m, n, field)
    return _search_c(field, m, [n])[0]


def divisibility_criterion(m: int, n: int) -> tuple[bool, bool]:
    """((2^m + 1) divides (2^n + 1), n/m is an odd integer).

    Pure integer arithmetic, no field anywhere; the two components are
    provably equal for all m, n >= 1, and the test suite compares them
    exhaustively.
    """
    if m < 1 or n < 1:
        raise ValueError(f"m, n must be positive, got ({m}, {n})")
    divides = ((1 << n) + 1) % ((1 << m) + 1) == 0
    odd_ratio = n % m == 0 and (n // m) % 2 == 1
    return divides, odd_ratio


def compatibility_predicate(m: int, n: int) -> bool:
    """Exact criterion: compatible c exist iff m > 1 and n/m is not an odd integer."""
    return not divisibility_criterion(m, n)[1] and m > 1  # the call first: it checks m, n


def _require_unity_root(field: Field, m: int, y: int) -> None:
    field.check(y)
    if y == 0 or field.pow(y, (1 << m) + 1) != 1:
        raise ValueError(f"y={y:#x} is not an (2^{m}+1)-st root of unity")


def vanishing_coeff_set(y: int, m: int, n: int, field: Field | None = None) -> set[int]:
    """All coefficient values a for which y is a root of the polynomial: a coset, or empty."""
    field = instance_field(m, n, field)
    _require_unity_root(field, m, y)
    cosets = _Cosets(field, m, np.array([n]), np.array([y], dtype=np.int64))
    cosets.feed(field.w)  # the last window's images
    least = cosets.least()
    return set(_coset_elements(least, cosets.kernel).tolist()) if least[0] < field.size else set()


def witnesses(y: int, m: int, n: int, field: Field | None = None) -> list[int]:
    """Closed-form roots of the polynomial at y that lie in F_r union mu_{r+1}.

    For y != 1 the guaranteed incompatible coefficients are:

    * if y^(s-1) = 1: y itself and y^(-s) (two distinct unity roots);
    * else c0 = (y^(s+1) + 1) / (y^s + y), which lands in F_r, plus
      y when y^(s+1) != 1, plus y^(-s) when it differs from the others.

    The returned list is deduplicated, in the construction order above.
    Every entry e satisfies eval_compat_poly(field, m, n, e, y) == 0.
    """
    field = instance_field(m, n, field)
    _require_unity_root(field, m, y)
    if y == 1:
        raise ValueError("witnesses are defined for unity roots y != 1")
    ys = field.frobenius(y, n)
    y_neg_s = field.inv(ys)
    ys1 = field.mul(ys, y)
    if ys == y:
        return [y, y_neg_s]
    c0 = field.mul(ys1 ^ 1, field.inv(ys ^ y))
    if ys1 == 1:
        return [c0, y]
    return [c0, y, y_neg_s]


@dataclass(frozen=True)
class CompatReport:
    """One sweep row: the closed-form criterion against the exhaustive search.

    ``search_size`` counts the c candidates in canonical order up to the
    first compatible one: found_c + 1 on success and 2^(2m) on exhaustion.
    """

    m: int
    n: int
    predicate: bool
    exists_c: bool
    found_c: int | None
    modulus: int
    search_size: int

    @property
    def consistent(self) -> bool:
        return self.predicate == self.exists_c

    def to_dict(self) -> dict:
        f = make_field(2 * self.m, self.modulus)
        return {
            "m": self.m,
            "n": self.n,
            "predicate": self.predicate,
            "exists_c": self.exists_c,
            "found_c_hex": None if self.found_c is None else f.element_hex(self.found_c),
            "modulus_hex": f.modulus_hex,
            "search_size": self.search_size,
        }


def _reports(field: Field, m: int, ns: Sequence[int]) -> list[CompatReport]:
    """One report per n in ns, from one search over the field."""
    return [
        CompatReport(
            m=m,
            n=n,
            predicate=compatibility_predicate(m, n),
            exists_c=found is not None,
            found_c=found,
            modulus=field.modulus,
            search_size=field.size if found is None else found + 1,
        )
        for n, found in zip(ns, _search_c(field, m, ns))
    ]


def compat_report(m: int, n: int, field: Field | None = None) -> CompatReport:
    return _reports(instance_field(m, n, field), m, [n])[0]


def sweep_reports(
    m_values: Sequence[int],
    n_values: Sequence[int],
    modulus_table: Mapping[int, int] | None = None,
) -> list[CompatReport]:
    """Reports for the full grid, m ascending then n ascending; fields are built first,
    then each m is one search that decides every n."""
    table, ns = modulus_table or {}, sorted(n_values)
    # the least n is the one that can break the contract
    fields = {m: instance_field(m, min(ns, default=1), modulus=table.get(2 * m)) for m in m_values}
    return [row for m in sorted(m_values) for row in _reports(fields[m], m, ns)]


def reports_to_json(rows: Sequence[CompatReport], kind: str = "compatibility-sweep") -> str:
    doc = {"schema": 1, "kind": kind, "rows": [r.to_dict() for r in rows]}
    return json.dumps(doc, indent=2) + "\n"


def rows_to_csv(columns: Sequence[str], rows: Sequence[Mapping]) -> str:
    """Header then one line per row; booleans as true/false, None as an empty cell."""

    def cell(v):
        return "" if v is None else str(v).lower() if isinstance(v, bool) else v

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cell(row[k]) for k in columns] for row in rows)
    return buf.getvalue()


def reports_to_csv(rows: Sequence[CompatReport]) -> str:
    return rows_to_csv(COMPAT_CSV_COLUMNS, [r.to_dict() for r in rows])
