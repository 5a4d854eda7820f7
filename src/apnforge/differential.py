"""Differential-spectrum verification for hexanomial instances.

Every exponent of F has binary weight at most 2, so F is quadratic and
each derivative is affine: its nonzero fibers are cosets of one kernel,
whose size fixes the fiber histogram.  Two routes give |ker| for every
shift a != 0 as 2^(w - rank), with the F_2-rank of w basis images from
one elimination vectorized over all shifts (:func:`gf2_reduce`),
O(w^2 2^w).  They differ only in where the images come from:

* the definition route reads B(a, X^i) = F(a + X^i) + F(a) + F(X^i) + F(0)
  off a table of F (its formula on the field's array view), once a
  Moebius transform has certified the table quadratic and the scalar F
  has matched it at every x of weight <= 2, the points that fix a
  quadratic map;
* the kernel route evaluates D_a(X^i) through the linearized form
  l0 x + lr x^r + ls x^s + lrs x^(rs) of :mod:`apnforge.hexanomial`,
  the form the spot check holds to the definition (both forms of D_a
  on seeded (a, x) pairs, evaluated at once on the field's array view).

They must agree at every shift, or :class:`CrossCheckError` replaces the
verdict; the test suite holds each route to its own oracle as well.  A
map is 2^k-to-one exactly when every kernel has size 2^k; APN is k = 1.
Spectra are capped (w <= 16 by default and always in
:func:`verify_instance`); the O(4^w) difference distribution table is
capped tighter (default w <= 12) and made a block of rows at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import hexanomial
from .field import SizeLimitError, gf2_reduce
from .hexanomial import BCParams, eval_hexanomial

SPECTRUM_DEGREE_CAP = 16
DDT_DEGREE_CAP = 12
_DDT_BLOCK_CELLS = 1 << 16  # cells per streamed block of DDT rows: 16 rows at w = 12
SPOT_CHECK_SAMPLES = 1000


class CrossCheckError(RuntimeError):
    """The routes disagree, or F is not quadratic: an internal bug, not a verdict."""


@dataclass(frozen=True, eq=False)  # eq would compare arrays, whose truth value is ambiguous
class DerivativeSpectrum:
    """kernels[a] = |ker| of the derivative at shift a (index 0 unused)."""

    kernels: np.ndarray

    def histogram(self, a: int) -> dict[int, int]:
        """{fiber size: #b} for x -> F(x) + F(x + a), a in 1..2^w - 1."""
        if not 0 < a < len(self.kernels):
            raise ValueError(f"shift a={a} outside 1..{len(self.kernels) - 1}")
        return _coset_histogram(len(self.kernels), int(self.kernels[a]))

    @property
    def max_count(self) -> int:
        """The largest fiber over all shifts: a DDT's largest off-zero entry."""
        return int(self.kernels[1:].max())

    def uniform_fiber_size(self) -> int | None:
        """The one fiber size attained at every shift, or None when sizes are mixed."""
        sizes = np.unique(self.kernels[1:])
        return int(sizes[0]) if len(sizes) == 1 else None

    def collapsed_summary(self) -> list[dict]:
        """Histogram shapes grouped over a: few lines even for big sweeps."""
        size = len(self.kernels)
        groups = zip(*np.unique(self.kernels[1:], return_counts=True))
        shapes = sorted((sorted(_coset_histogram(size, int(k)).items()), int(n)) for k, n in groups)
        return [{"histogram": {str(t): c for t, c in shape}, "count_a": n} for shape, n in shapes]


def value_table(p: BCParams) -> np.ndarray:
    """F at every element, canonical order: one evaluation of F's formula on array ops."""
    f = p.field
    return hexanomial.hexanomial_form(f.array_ops, p, np.arange(f.size, dtype=np.int64))


def check_degree(what: str, w: int, degree_cap: int) -> None:
    """Refuse a job over F_{2^w} whose cap is below w."""
    if w > degree_cap:
        raise SizeLimitError(f"{what} for w={w} exceeds cap {degree_cap}")


def _check_quadratic(p: BCParams, ftab: np.ndarray) -> None:
    """Raise CrossCheckError unless the table has ANF degree <= 2 (a binary Moebius
    transform) and equals the scalar F at every x of weight <= 2, which fix a quadratic map."""
    w = p.field.w
    anf = ftab.copy()
    for i in range(w):
        halves = anf.reshape(-1, 2, 1 << i)
        halves[:, 1] ^= halves[:, 0]
    low = [0] + [1 << i | 1 << j for i in range(w) for j in range(i, w)]  # weight <= 2
    anf[low] = 0
    high = np.flatnonzero(anf)
    if high.size:
        u = int(high[0])
        raise CrossCheckError(f"F is not quadratic: ANF monomial {u:#x} (weight {u.bit_count()})")
    for x in low:
        if int(ftab[x]) != eval_hexanomial(p, x):
            raise CrossCheckError(f"value table disagrees with F at x={x:#x}")


def derivative_spectrum(p: BCParams, degree_cap: int = SPECTRUM_DEGREE_CAP) -> DerivativeSpectrum:
    """|ker| for every a != 0 from the value table alone: the definition route.

    Once F is certified quadratic, x -> F(x) + F(x + a) is affine with
    linear part B(a, x) = F(a + x) + F(a) + F(x) + F(0), whose images
    of X^0..X^(w-1) are w table lookups per shift.
    """
    check_degree("spectrum", p.field.w, degree_cap)
    w = p.field.w
    ftab = value_table(p)
    _check_quadratic(p, ftab)
    shifts = np.arange(1, p.field.size)
    base = ftab[shifts] ^ ftab[0]
    images = (ftab[shifts ^ (1 << i)] ^ base ^ ftab[1 << i] for i in range(w))
    return DerivativeSpectrum(_kernels_from_images(images, w))


def _kernels_from_images(images, w: int) -> np.ndarray:
    """2^(w - rank) at every shift 1..2^w - 1 from its w basis images; index 0 unused."""
    basis = np.zeros((w, (1 << w) - 1), dtype=np.int64)
    for _ in gf2_reduce(images, basis):
        pass
    kernels = np.zeros(1 << w, dtype=np.int64)
    kernels[1:] = np.left_shift(1, w - np.count_nonzero(basis, axis=0))
    return kernels


def kernel_sizes(p: BCParams) -> np.ndarray:
    """|ker D_a| = 2^(w - rank) for every a (index 0 unused); the kernel route.

    The rank is over the images D_a(X^0..X^(w-1)) of the linearized form
    in :mod:`apnforge.hexanomial`, evaluated for every shift at once.
    """
    w, ops = p.field.w, p.field.array_ops
    coeffs = hexanomial.collapsed_coeffs(ops, p, np.arange(1, p.field.size, dtype=np.int64))
    images = (hexanomial.collapsed_form(ops, p, coeffs, 1 << i) for i in range(w))
    return _kernels_from_images(images, w)


def _coset_histogram(size: int, kernel: int) -> dict[int, int]:
    """The fiber histogram an affine map on `size` points with the given kernel size must have."""
    attained = size // kernel
    hist = {kernel: attained}
    if attained < size:
        hist[0] = size - attained
    return hist


def cross_check_spectrum(p: BCParams, spec: DerivativeSpectrum) -> None:
    """Raise CrossCheckError unless the definition and kernel routes agree at every shift."""
    ks = kernel_sizes(p)
    bad = np.flatnonzero(spec.kernels != ks)
    if bad.size:
        a = int(bad[0])
        raise CrossCheckError(
            f"shift a={a:#x}: definition route |ker| {int(spec.kernels[a])}"
            f" vs kernel route {int(ks[a])}"
        )


def _spot_check(p: BCParams, seed: int) -> dict:
    """Seeded (a, x) samples on which the defining and linearized forms of D_a must agree."""
    rng = random.Random(seed)
    size = p.field.size
    a, x = np.array(
        [(rng.randrange(1, size), rng.randrange(size)) for _ in range(SPOT_CHECK_SAMPLES)],
        dtype=np.int64,
    ).T
    ops = p.field.array_ops
    defining = hexanomial.derivative_form(ops, p, a, x)
    collapsed = hexanomial.collapsed_form(ops, p, hexanomial.collapsed_coeffs(ops, p, a), x)
    bad = np.flatnonzero(defining != collapsed)
    if bad.size:
        i = int(bad[0])
        raise CrossCheckError(
            f"defining and linear forms disagree at a={int(a[i]):#x}, x={int(x[i]):#x}"
        )
    return {"seed": seed, "samples": SPOT_CHECK_SAMPLES, "agree": True}


def verify_instance(
    p: BCParams, degree_cap: int = SPECTRUM_DEGREE_CAP, seed: int = 0
) -> tuple[int | None, dict]:
    """The whole exact check: (uniform fiber size or None, report with spot check).

    The spectrum cap is checked before any work and never exceeds w = 16,
    because both rank routes hold all 2^w shifts at once, unchunked (at
    w = 20 the kernel route alone takes about 19 s and the run about
    300 MiB on a 2-core Xeon).  Both routes and the spot check run; a
    failed degree certificate or any disagreement raises
    :class:`CrossCheckError` instead of a verdict.
    """
    spec = derivative_spectrum(p, min(degree_cap, SPECTRUM_DEGREE_CAP))
    cross_check_spectrum(p, spec)
    report = spectrum_report(p, spec)
    report["spot_check"] = _spot_check(p, seed)
    return spec.uniform_fiber_size(), report


def is_t_to_one(p: BCParams, t: int) -> bool:
    """Every nonzero-shift fiber has size exactly t (t a power of two)."""
    if t < 1 or t & (t - 1):
        raise ValueError(f"fiber size must be a power of two, got {t}")
    return verify_instance(p)[0] == t


def is_apn(p: BCParams) -> bool:
    """Almost perfect nonlinear: every derivative is 2-to-one."""
    return is_t_to_one(p, 2)


def ddt_blocks(p: BCParams, degree_cap: int = DDT_DEGREE_CAP):
    """DDT rows a ascending in int32 blocks of ~_DDT_BLOCK_CELLS cells; cap checked at the call."""
    check_degree("ddt", p.field.w, degree_cap)
    size, ftab = p.field.size, value_table(p)
    xs, step = np.arange(size), max(1, _DDT_BLOCK_CELLS // size)

    def block(lo: int) -> np.ndarray:  # one bincount of F(x + a) + F(x), offset by row
        a = np.arange(lo, min(lo + step, size))[:, None]
        cells = ftab[xs ^ a]
        cells ^= ftab
        cells += (a - lo) * size
        return np.bincount(cells.ravel(), minlength=cells.size).astype(np.int32).reshape(-1, size)

    return map(block, range(0, size, step))


def ddt(p: BCParams, degree_cap: int = DDT_DEGREE_CAP) -> np.ndarray:
    """Full difference distribution table, int32; row a=0 is the conventional [2^w, 0, ...]."""
    blocks = ddt_blocks(p, degree_cap)  # refuses w over the cap before the table exists
    table = np.empty((p.field.size, p.field.size), dtype=np.int32)
    lo = 0
    for block in blocks:
        table[lo : lo + len(block)] = block
        lo += len(block)
    return table


def csv_block(rows: np.ndarray) -> bytes:
    """CSV lines of a block of rows: each count's glyph ("v," or "v\\n" in the last column),
    NUL-padded to the block's widest value, gathered at once and stripped of its NULs."""
    top = int(rows.max())
    glyphs = np.char.add(np.arange(top + 1).astype(f"S{len(str(top))}"), [[b","], [b"\n"]])
    cells = glyphs[0].take(rows)  # take, not [], gathers fixed-width bytes several times faster
    cells[:, -1] = glyphs[1].take(rows[:, -1])
    return cells.tobytes().translate(None, b"\0")


def ddt_to_csv(table: np.ndarray) -> str:
    """Rows a ascending, columns b ascending, plain integers: the bytes ``--ddt-out`` writes."""
    step = max(1, _DDT_BLOCK_CELLS // table.shape[1])
    return b"".join(csv_block(table[lo : lo + step]) for lo in range(0, len(table), step)).decode()


def spectrum_report(p: BCParams, spec: DerivativeSpectrum) -> dict:
    """Deterministic JSON-ready summary of one verification run."""
    uniform = spec.uniform_fiber_size()
    return {
        "schema": 1,
        "kind": "derivative-spectrum",
        "params": p.to_dict(),
        "per_a_histogram_summary": spec.collapsed_summary(),
        "max_count": spec.max_count,
        "verdicts": {"is_apn": uniform == 2, "is_2k_to_one": uniform == p.u, "k": p.k},
    }
