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
  the union of each root's vanishing coset instead of a candidate scan;
* the exact closed-form criterion -- compatible c exist iff m > 1 and
  n/m is not an odd integer (:func:`compatibility_predicate`), whose
  integer core is the divisibility fact (2^m + 1) | (2^n + 1) iff n/m is
  an odd integer (:func:`divisibility_criterion`);
* root structure -- for each unity root y, the set of coefficient values
  that vanish at y (:func:`vanishing_coeff_set`) and the closed-form
  witnesses inside F_r union mu_{r+1} (:func:`witnesses`).

The polynomial is written once (:func:`eval_compat_poly`), generic over
field ops: the search and :func:`vanishing_coeff_set` evaluate it at
c = 0, X^0, ..., X^(w-1) and :func:`is_compatible_c` at one c, on the
field's array view, the witness report on the scalar field.  Everything
is deterministic; a sweep re-run must be byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .field import Field, SizeLimitError, gf2_reduce, make_field, roots_of_unity

# Values per array in either step of the c search: w + 1 per root in the
# elimination, up to 2^(kernel dimension) per root when marking.
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


def _context(m: int, n: int, field: Field | None) -> Field:
    if m < 1 or n < 1:
        raise ValueError(f"m, n must be positive, got ({m}, {n})")
    if field is None:
        return make_field(2 * m)
    if field.w != 2 * m:
        raise ValueError(f"field degree {field.w} does not match 2m = {2 * m}")
    return field


def eval_compat_poly(f, m: int, n: int, c, y):
    """y^(s+1) + c y^s + c^r y + 1 under field ops f, via Frobenius iterates only.

    f is a :class:`Field` (c and y are elements) or its ``array_ops`` (c
    and y are int64 arrays that broadcast against each other).
    """
    ys = f.frobenius(y, n)
    return f.mul(ys, y) ^ f.mul(c, ys) ^ f.mul(f.frobenius(c, m), y) ^ 1


def _unity_roots(field: Field, m: int) -> np.ndarray:
    return np.array(roots_of_unity(field, (1 << m) + 1), dtype=np.int64)


def is_compatible_c(c: int, m: int, n: int, field: Field | None = None) -> bool:
    """True when no (r+1)-st root of unity vanishes the polynomial at c."""
    field = _context(m, n, field)
    field.check(c)
    return bool(eval_compat_poly(field.array_ops, m, n, c, _unity_roots(field, m)).all())


def _cosets(field: Field, m: int, n: int, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each root's vanishing set as (least, kernel): one GF(2) elimination over the roots.

    c -> P(c, y) + P(0, y) is F_2-linear, so the c with P(c, y) = 0 form a
    coset of its kernel, or none.  The images of X^0, X^1, ... join the
    elimination in that order, tagged by their index in bits w..2w-1, so a
    dependent image's tags are a kernel element whose leading bit is its own
    index: kernel[i] (0 where there is none) is an echelon basis.  The
    target P(0, y), marked by bit 2w so that a solvable target never
    leaves residue 0, reduces to a particular solution.  Its tags come from
    independent images only, so it is 0 at every leading bit of the kernel
    basis: it is already the coset's least element (least is 2^w when the
    set is empty).
    """
    w = field.w
    if w > 31:  # the tags take bits w..2w of an int64
        raise SizeLimitError(f"c search for w={w} exceeds 31")
    units = np.array([1 << i for i in range(w)] + [0], dtype=np.int64)[:, None]
    vectors = eval_compat_poly(field.array_ops, m, n, units, roots)
    vectors[:w] ^= vectors[w]  # the linear part's images; row w is the target
    vectors |= np.left_shift(1, np.arange(w, 2 * w + 1))[:, None]
    basis = np.zeros((w, len(roots)), dtype=np.int64)
    *kernel, target = (r >> w for r in gf2_reduce(vectors, basis))
    return target ^ field.size, np.array(kernel, dtype=np.int32)


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


def _search_c(field: Field, m: int, n: int) -> tuple[int | None, int]:
    """(first compatible c or None, number of candidates examined).

    The c below 2^k that vanish at y are least XOR the span of the kernel
    rows with leading bit below k when least < 2^k, and none otherwise.
    Window k = 0, 1, ... marks them for every root; the first window with
    an unmarked c holds the least compatible c, so a found c costs the
    window of its own bit length.  Both steps take the roots a chunk at a
    time, about _CHUNK_VALUES values per array.
    """
    w = field.w
    roots = _unity_roots(field, m)
    least = np.empty(len(roots), dtype=np.int64)
    kernel = np.empty((w, len(roots)), dtype=np.int32)
    step = max(1, _CHUNK_VALUES // (w + 1))
    for lo in range(0, len(roots), step):
        part = slice(lo, lo + step)
        least[part], kernel[:, part] = _cosets(field, m, n, roots[part])
    for k in range(w + 1):
        marked = np.zeros(1 << k, dtype=bool)
        live = np.flatnonzero(least < 1 << k)
        dim = np.count_nonzero(kernel[:k, live], axis=0).max(initial=0)
        step = max(1, _CHUNK_VALUES >> int(dim))
        for lo in range(0, len(live), step):
            part = live[lo : lo + step]
            marked[_coset_elements(least[part], kernel[:k, part])] = True
        if not marked.all():
            c = int(marked.argmin())
            return c, c + 1
    return None, field.size


def find_compatible_c(m: int, n: int, field: Field | None = None) -> int | None:
    """First compatible c in canonical element order, or None."""
    field = _context(m, n, field)
    return _search_c(field, m, n)[0]


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
    if m < 1 or n < 1:
        raise ValueError(f"m, n must be positive, got ({m}, {n})")
    return m > 1 and not (n % m == 0 and (n // m) % 2 == 1)


def _require_unity_root(field: Field, m: int, y: int) -> None:
    field.check(y)
    if y == 0 or field.pow(y, (1 << m) + 1) != 1:
        raise ValueError(f"y={y:#x} is not an (2^{m}+1)-st root of unity")


def vanishing_coeff_set(y: int, m: int, n: int, field: Field | None = None) -> set[int]:
    """All coefficient values a for which y is a root of the polynomial: a coset, or empty."""
    field = _context(m, n, field)
    _require_unity_root(field, m, y)
    least, kernel = _cosets(field, m, n, np.array([y], dtype=np.int64))
    return set(_coset_elements(least, kernel).tolist()) if least[0] < field.size else set()


def witnesses(y: int, m: int, n: int, field: Field | None = None) -> list[int]:
    """Closed-form roots of the polynomial at y that lie in F_r union mu_{r+1}.

    For y != 1 the guaranteed incompatible coefficients are:

    * if y^(s-1) = 1: y itself and y^(-s) (two distinct unity roots);
    * else c0 = (y^(s+1) + 1) / (y^s + y), which lands in F_r, plus
      y when y^(s+1) != 1, plus y^(-s) when it differs from the others.

    The returned list is deduplicated, in the construction order above.
    Every entry e satisfies eval_compat_poly(field, m, n, e, y) == 0.
    """
    field = _context(m, n, field)
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


def compat_report(m: int, n: int, field: Field | None = None) -> CompatReport:
    field = _context(m, n, field)
    found, tested = _search_c(field, m, n)
    return CompatReport(
        m=m,
        n=n,
        predicate=compatibility_predicate(m, n),
        exists_c=found is not None,
        found_c=found,
        modulus=field.modulus,
        search_size=tested,
    )


def sweep_reports(
    m_values: Sequence[int],
    n_values: Sequence[int],
    modulus_table: Mapping[int, int] | None = None,
) -> list[CompatReport]:
    """Reports for the full grid, m ascending then n ascending; fields are built first."""
    table = modulus_table or {}
    fields = {m: make_field(2 * m, table.get(2 * m)) for m in m_values}
    return [compat_report(m, n, fields[m]) for m in sorted(m_values) for n in sorted(n_values)]


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
