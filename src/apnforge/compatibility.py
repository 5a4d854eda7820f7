"""Existence analysis for the compatibility coefficient c.

With (r, s) = (2^m, 2^n), a coefficient c is *BC-compatible* when the
polynomial

    y^(s+1) + c y^s + c^r y + 1

has no root y among the (r+1)-st roots of unity.  Hexanomials built from
a compatible c have 2^gcd(m,n)-to-one derivatives, so compatibility is
the whole game for this family.

Three views of the same question live here and check each other:

* exhaustive search -- every c in canonical order against all of
  mu_{r+1}, a chunk of candidates at a time (:func:`find_compatible_c`);
* the exact closed-form criterion -- compatible c exist iff m > 1 and
  n/m is not an odd integer (:func:`compatibility_predicate`), whose
  integer core is the divisibility fact (2^m + 1) | (2^n + 1) iff n/m is
  an odd integer (:func:`divisibility_criterion`);
* root structure -- for each unity root y, the set of coefficient values
  that vanish at y (:func:`vanishing_coeff_set`) and the closed-form
  witnesses inside F_r union mu_{r+1} (:func:`witnesses`).

The polynomial is written once (:func:`eval_compat_poly`), generic over
field ops: the search, :func:`is_compatible_c` and
:func:`vanishing_coeff_set` evaluate it on the field's array view, the
witness report on the scalar field.  Everything is deterministic; a
sweep re-run must be byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .field import Field, make_field, roots_of_unity

_SEARCH_CHUNK_PAIRS = 1 << 14

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


def _search_c(field: Field, m: int, n: int) -> tuple[int | None, int]:
    """(first compatible c or None, number of candidates examined).

    Candidates are taken in canonical order, a chunk at a time, each
    chunk against every unity root at once: about _SEARCH_CHUNK_PAIRS
    (c, y) pairs per chunk, so memory stays flat and a found c costs only
    its own chunk.
    """
    roots = _unity_roots(field, m)
    step = max(1, _SEARCH_CHUNK_PAIRS // len(roots))
    for lo in range(0, field.size, step):
        cs = np.arange(lo, min(lo + step, field.size), dtype=np.int64)
        ok = eval_compat_poly(field.array_ops, m, n, cs[:, None], roots).all(axis=1)
        if ok.any():
            c = lo + int(ok.argmax())
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
    """All coefficient values a for which y is a root of the polynomial."""
    field = _context(m, n, field)
    _require_unity_root(field, m, y)
    values = eval_compat_poly(field.array_ops, m, n, np.arange(field.size, dtype=np.int64), y)
    return set(np.flatnonzero(values == 0).tolist())


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
    """One sweep row: the closed-form criterion against the brute-force search.

    ``search_size`` records how many c candidates the search needed -- it
    stops at the first compatible c, so it is found_c + 1 on success and
    2^(2m) on exhaustion.
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
